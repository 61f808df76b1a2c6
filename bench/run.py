"""Run freefold benchmark workloads, check every answer, print the metrics.

    python3 bench/run.py --workload chain_deep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40   # every workload

Runs from any working directory; the library is imported from ``src/`` next
to this directory.  Each metric prints on its own line with its unit; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``END_TO_END``), timed at reference speed
(``speed.py``); with ``--trace 1`` the layers are traced and the metrics are
the per-layer ones (``PER_LAYER``).
``--out FILE`` also writes the full result, pass by pass, as JSON.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import workloads
except ModuleNotFoundError as exc:
    if exc.name != "freefold":
        raise
    raise SystemExit(f"error: no freefold library under {ROOT / 'src'}") from None
from speed import SpeedProbe
from tracing import LAYERS, Tracer

MIN_SETUP_PROBES = 7  # fresh interpreters timed per run; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric prefix -> traced span name; each gets .calls and .self_s.
SPANS = {
    "graphs.fold_subgroup": "graphs.fold_subgroup",
    "graphs.is_basis_of_ambient": "graphs.is_basis_of_ambient",
    "graphs.contains": "graphs.SubgroupGraph.contains",
    "graphs.express": "graphs.SubgroupGraph.express",
    "words.multiply": "words.multiply",
    "words.cyclic_normal_form": "words.cyclic_normal_form",
    "words.pow": "words.Word.__pow__",
    "words.root": "words.root",
    "words.is_conjugate": "words.is_conjugate",
    "whitehead.is_primitive": "whitehead.is_primitive",
    "whitehead.minimize_tuple": "whitehead.minimize_tuple",
    "whitehead.apply": "whitehead.Automorphism.apply",
    "cosets.build_coset_automaton": "cosets.build_coset_automaton",
    "cosets.accepts": "cosets.CosetAutomaton.accepts",
    "abelian.smith_normal_form": "abelian.smith_normal_form",
    "chain.build_chain": "chain.build_chain",
    "chain.verify_surface_rewrite": "chain.verify_surface_rewrite",
    "chain.verify_free_factor_chain": "chain.verify_free_factor_chain",
    "chain.explicit_flag_decomposition": "chain.explicit_flag_decomposition",
    "chain.cross_conjugacy_scan": "chain.cross_conjugacy_scan",
    "chain.orbit_distinct_check": "chain.orbit_distinct_check",
    "cli.main": "cli.main",
}
COUNTS = ("graphs.fold.letters_in", "graphs.fold.vertices_out", "words.pow.letters_out",
          "whitehead.moves_taken", "cosets.automaton_states", "cosets.eps_edges",
          "abelian.matrix_cells")
QUERY_P50_LAYERS = ("graphs", "words", "whitehead", "cosets", "abelian")


def _per_layer_units() -> dict:
    units = {}
    for prefix in SPANS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({f"{layer}.query_p50_ms": "ms" for layer in QUERY_P50_LAYERS})
    units.update({
        "whitehead.query_p99_ms": "ms",
        "whitehead.move_hit_ratio": "ratio",
        "whitehead.warmup_s": "s",
        "chain.separation.classes": "count",
        "chain.reported_elapsed_ms": "ms",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
    units.update({
        "bench.self_share": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


PER_LAYER = _per_layer_units()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def probe_setup(name: str) -> float:
    """One fresh interpreter's import plus warm-up, in seconds at reference speed."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _repeat(step, seconds: float, started: float) -> list:
    """Call ``step`` at least once, and again while the next call, taking as
    long as the last one, would still end within ``seconds`` of ``started``."""
    results = []
    while True:
        t0 = perf_counter()
        results.append(step())
        end = perf_counter()
        if end + (end - t0) - started > seconds:
            return results


def _untraced(name: str, ops, seconds: float) -> tuple[dict, list, dict]:
    """Repeat the pass for ``seconds`` and report medians over the run.

    Every timing is taken at reference speed (``speed.py``).  A set-up probe
    follows every pass, so that ``setup_s``, their median, samples the whole
    run rather than one moment of the host's speed.
    """
    workloads.warm_up(name)
    setups = []
    probe = SpeedProbe()

    def step():
        with probe.running():
            result = workloads.run_pass(ops)
        setups.append(probe_setup(name))
        return result

    passes = _repeat(step, seconds, perf_counter())
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(probe_setup(name))
    walls = [probe.at_reference_speed(*p.window) for p in passes]
    # Each operation's median over the passes: the percentiles below rank
    # the workload's inputs, not single noisy calls.
    latencies = [statistics.median(probe.at_reference_speed(*p.op_windows[i]) for p in passes)
                 * 1000.0 for i in range(len(ops))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "queries_per_s": len(ops) * len(passes) / sum(walls),
        "query_p50_ms": percentile(latencies, 0.50),
        "query_p99_ms": percentile(latencies, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "passes": len(passes),
        "operations": len(latencies),
        "p99_samples_beyond": len(latencies) - math.ceil(0.99 * len(latencies)),
        "setup_probes": len(setups),
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "host_slowness": statistics.median(probe.slowness(*p.window) for p in passes),
        "reference_slices": len(probe.durations),
    }
    return metrics, passes, notes


def _traced(name: str, seed: int, ops, seconds: float) -> tuple[dict, list, dict]:
    warm_up = workloads.warm_up(name)
    started = perf_counter()
    baseline = workloads.run_pass(ops)  # untraced, for overhead and latencies
    tracer = Tracer()
    with tracer.installed():
        passes = _repeat(lambda: workloads.run_pass(ops, tracer), seconds, started)
    k = len(passes)
    wall = statistics.mean(p.wall_s for p in passes)
    metrics = {}
    for prefix, span in SPANS.items():
        calls, self_s = tracer.stats.get(span, (0, 0.0))
        metrics[f"{prefix}.calls"] = calls / k
        metrics[f"{prefix}.self_s"] = self_s / k
    for counter in COUNTS:
        metrics[counter] = tracer.counts[counter] / k
    by_layer: dict[str, list] = {}
    for layer, ms in baseline.latencies:
        by_layer.setdefault(layer, []).append(ms)
    for layer in QUERY_P50_LAYERS:
        metrics[f"{layer}.query_p50_ms"] = percentile(by_layer.get(layer, [0.0]), 0.50)
    metrics["whitehead.query_p99_ms"] = percentile(by_layer.get("whitehead", [0.0]), 0.99)
    examined = tracer.counts["whitehead.candidates"]
    metrics["whitehead.move_hit_ratio"] = (
        tracer.counts["whitehead.moves_taken"] / examined if examined else 0.0)
    metrics["whitehead.warmup_s"] = warm_up.get("whitehead", 0.0)
    classes = [c for extra in baseline.extras for c in extra["classes"]]
    metrics["chain.separation.classes"] = statistics.mean(classes) if classes else 0.0
    metrics["chain.reported_elapsed_ms"] = sum(e["elapsed_ms"] for e in baseline.extras)
    in_spans = 0.0
    for layer in LAYERS:
        self_s = sum(s for span, (_, s) in tracer.stats.items()
                     if span.startswith(layer + ".")) / k
        in_spans += self_s
        metrics[f"{layer}.self_s"] = self_s
        # single-threaded: a faster layer saves at most its own self time
        metrics[f"{layer}.self_share"] = self_s / wall
    metrics["bench.self_share"] = max(0.0, wall - in_spans) / wall
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - baseline.wall_s
    metrics["trace.spans"] = tracer.n_spans / k
    spans_path = BENCH / "out" / f"spans-{name}-seed{seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    notes = {"traced_passes": k, "untraced_wall_s": baseline.wall_s,
             "spans_written": len(tracer.spans), "spans_file": str(spans_path)}
    return metrics, [baseline] + passes, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.generate(name, seed)
    if trace:
        metrics, passes, notes = _traced(name, seed, ops, seconds)
    else:
        metrics, passes, notes = _untraced(name, ops, seconds)
    units = PER_LAYER if trace else END_TO_END
    attempted = sum(len(p.verdicts) for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [p.first_failure for p in passes if p.first_failure]
    if failures:
        notes["first_failure"] = failures[0]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "pass_wall_s": [p.wall_s for p in passes],
        "notes": notes,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def _print_result(result: dict) -> None:
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:<14} {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{name:<14} {'error_rate':<40} {result['error_rate']:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for key, value in result["notes"].items():
        print(f"{name:<14} note {key} = {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_result(result)
        results.append(result)
    if args.out is not None:
        args.out.write_text(json.dumps(results if len(results) > 1 else results[0],
                                       indent=2) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": e for r in results for m, e in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
