"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

They check the generator's by-construction answers against the library's
independent oracles, that tracing changes no verdict, that reference slices
are taken out of timings, and the output contract of ``bench/run.py``.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from freefold import words  # noqa: E402
from freefold.chain import cross_conjugacy_scan  # noqa: E402
from freefold.cosets import double_coset_member_bounded  # noqa: E402
from freefold.graphs import fold_subgroup, is_basis_of_ambient, verify_expression  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def mix():
    return workloads.generate("decide_mix", SEED)


def _kind(ops, kind, limit=None):
    return [op for op in ops if op.kind == kind][:limit]


def test_same_seed_gives_same_inputs():
    def fingerprint(ops):
        return [(op.kind, repr(op.args), op.expected) for op in ops]

    a = workloads.generate("decide_mix", 3)
    assert fingerprint(a) == fingerprint(workloads.generate("decide_mix", 3))
    assert fingerprint(a) != fingerprint(workloads.generate("decide_mix", 4))
    assert len(a) == 2000
    assert sum(op.expected is True for op in a) > 400


def test_primitive_positives_are_images_of_a_basis(mix):
    for op in [op for op in _kind(mix, "primitive") if op.expected][:15]:
        alphabet = op.args[0].alphabet
        images = [words.Word(alphabet, codes) for codes in op.cert]
        assert images[0] == op.args[0]
        assert is_basis_of_ambient(images, alphabet)


def test_coset_answers_match_bounded_search(mix):
    for op in _kind(mix, "double_coset", 40):
        u, z_mid, v, z = op.args
        if op.expected:
            a, b = op.cert
            assert double_coset_member_bounded(u, z_mid, v, z, max(abs(a), abs(b)))
        else:
            assert not double_coset_member_bounded(u, z_mid, v, z, 4)
    for op in _kind(mix, "e3", 40):
        p, q, x, y, z, _, _, z_mid = op.args
        u, v = words.root(x)[0] ** p, words.root(y)[0] ** q
        assert double_coset_member_bounded(u, z_mid, v, z, 6) == op.expected


def test_conjugacy_answers_match_ball_scan(mix):
    for op in _kind(mix, "conjugate", 8):
        r0, r1, k, g, g2 = op.args
        u, v = words.conjugate(r0 ** k, g), words.conjugate(r1 ** k, g2)
        report = cross_conjugacy_scan([u], [v], 1)
        assert (report.status == "fail") == op.expected
    for op in _kind(mix, "root", 8):
        r0, k, g = op.args
        letters, exponent = op.expected
        assert words.Word(r0.alphabet, letters) ** exponent == words.conjugate(r0 ** k, g)


def test_membership_answers_match_expression_certificate(mix):
    graph = None
    for op in mix:
        if op.kind == "fold":
            graph = fold_subgroup(op.args[0].gens)
        elif op.kind == "member":
            assert verify_expression(graph, op.args[1]) == op.expected


def _determinant(matrix) -> int:
    """Fraction-free Gaussian elimination (Bareiss) over the integers."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def test_extendable_answers_match_determinant_and_content(mix):
    for op in _kind(mix, "extendable", 40):
        (rows,) = op.args
        if op.expected:
            assert abs(_determinant(op.cert)) == 1
            assert all(list(r) in op.cert for r in rows)
        else:
            assert any(workloads._content(r) >= 2 for r in rows)


def test_traced_pass_gives_the_untraced_verdicts(mix):
    ops = [workloads.Op("verify", (n, flip), workloads._expected_verify(n, flip))
           for n, flip in ((2, False), (4, True))] + mix[:150]
    multiply = words.multiply
    plain = workloads.run_pass(ops)
    tracer = Tracer()
    with tracer.installed():
        assert words.multiply is not multiply
        traced = workloads.run_pass(ops, tracer)
    assert words.multiply is multiply
    assert plain.failed == 0
    assert traced.verdicts == plain.verdicts
    assert tracer.stats["cli.main"][0] == 2
    assert tracer.stats["chain.cross_conjugacy_scan"][0] == 2
    assert tracer.stats["words.multiply"][0] > 1000


def test_self_time_excludes_child_spans():
    alphabet = workloads._alphabet(3)
    basis = [alphabet.word("x0 x1"), alphabet.word("x1"), alphabet.word("x2 x0^2")]
    tracer = Tracer()
    with tracer.installed():
        from freefold import graphs
        assert graphs.is_basis_of_ambient(basis, alphabet)
    spans = {name: (sid, parent, start, end)
             for sid, parent, _, name, start, end in tracer.spans}
    outer = spans["graphs.is_basis_of_ambient"]
    inner = spans["graphs.fold_subgroup"]
    assert inner[1] == outer[0] and outer[1] == 0
    assert tracer.stats["graphs.is_basis_of_ambient"][1] < outer[3] - outer[2]


def test_reference_slices_are_taken_out_of_timings():
    probe = speed.SpeedProbe()
    ops = [workloads.Op("verify", (2, False), workloads._expected_verify(2, False))]
    with probe.running():
        result = workloads.run_pass(ops)
    slices = len(probe.durations)
    time.sleep(3 * speed.PERIOD_S)
    assert len(probe.durations) == slices  # the timer stops with the run
    assert result.failed == 0
    t0, t1 = result.window
    inside = [(s, d) for s, d in zip(probe.starts, probe.durations) if t0 <= s <= t1]
    assert len(inside) >= 3
    assert all(s + d <= t1 for s, d in inside)
    busy = t1 - t0 - sum(d for _, d in inside)
    assert probe.at_reference_speed(t0, t1) == pytest.approx(busy / probe.slowness(t0, t1))
    assert probe.slowness(t0, t1) == pytest.approx(
        statistics.mean(d for _, d in inside) / speed.REFERENCE_SLICE_S)


def test_wrong_report_counts_as_failure_without_stopping(monkeypatch):
    good = workloads.QUERIES["verify"](2, False)
    payload = json.loads(good[1])
    payload[0]["extra"] = 1
    monkeypatch.setitem(workloads.QUERIES, "verify",
                        lambda n, flip: (good[0], json.dumps(payload)))
    ops = [workloads.Op("verify", (2, False), workloads._expected_verify(2, False))] * 2
    result = workloads.run_pass(ops)
    assert result.failed == 2
    assert "SchemaError" in result.verdicts[0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}


def test_run_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain_shallow", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
