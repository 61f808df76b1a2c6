import hashlib
import io
import json
import re
import shlex
import time
from pathlib import Path

import jsonschema
import pytest

import freefold.cli as cli
from freefold.chain import CHECKS, VerificationReport, flag_indices
from freefold.cli import main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["check", "params", "status", "witnesses", "elapsed_ms"],
    "additionalProperties": False,
    "properties": {
        "check": {"type": "string"},
        "params": {"type": "object", "additionalProperties": {"type": "integer"}},
        "status": {"enum": ["pass", "fail", "budget-exhausted"]},
        "witnesses": {"type": "array", "items": {"type": "string"}},
        "elapsed_ms": {"type": "integer", "minimum": 0},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--alphabet", "a,b", "a a^-1 b")
    assert (code, out.strip()) == (0, "b")


def test_reduce_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("b b a"))
    code, out, _ = run(capsys, "reduce", "--alphabet", "a,b")
    assert (code, out.strip()) == (0, "b^2 a")


def test_reduce_malformed_word(capsys):
    code, _, err = run(capsys, "reduce", "--alphabet", "a,b", "a zz^2")
    assert code == 2
    assert "token 2" in err


def test_conj(capsys):
    code, out, _ = run(capsys, "conj", "--alphabet", "a,b", "b", "a")
    assert (code, out.strip()) == (0, "a^-1 b a")


def test_root(capsys):
    code, out, _ = run(capsys, "root", "--alphabet", "a,b", "a b a b")
    assert code == 0
    assert out.strip() == "a b\t2"


def test_root_of_identity_is_usage_error(capsys):
    code, _, err = run(capsys, "root", "--alphabet", "a,b", "1")
    assert code == 2 and "root" in err


def test_primitive_true_false(capsys):
    assert run(capsys, "primitive", "--alphabet", "a,b", "a a b")[0] == 0
    assert run(capsys, "primitive", "--alphabet", "a,b", "a b a^-1 b^-1")[0] == 1


def test_exponent_past_an_index_is_usage_error(capsys):
    huge = "a^99999999999999999999"
    for argv in (("primitive", "--alphabet", "a,b", huge),
                 ("member", "--alphabet", "a,b", "--gen", "b", huge),
                 ("member", "--alphabet", "a,b", "--gen", huge, "b")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "exponent too large" in err


def test_word_too_long_for_memory_is_usage_error(capsys):
    # 2^62 letters: the list or tuple repeat fails at once, allocating nothing
    huge = 2**62
    for argv in (("reduce", "--alphabet", "a", f"a^{huge}"),
                 ("primitive", "--alphabet", "a,b", f"a^{huge}"),
                 ("eq", "e3", "--alphabet", "a,b", "--p", str(huge), "a", "b", "a", "a", "b", "a")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: out of memory")


def test_primitive_exhausted_budget_is_undecided(capsys):
    code, out, err = run(
        capsys, "primitive", "--budget", "1", "--alphabet", "a,b", "a b a b^-1"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("undecided:")


def test_primitive_generator_needs_no_search(capsys):
    # a single letter is at the length floor: no candidate move is examined
    assert run(capsys, "primitive", "--budget", "1", "--alphabet", "a,b,c", "b")[0] == 0


def test_member(capsys):
    code, out, _ = run(
        capsys, "member", "--alphabet", "a,b", "--gen", "a^2", "--gen", "b",
        "b a^2 b^-1",
    )
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(
        capsys, "member", "--alphabet", "a,b", "--gen", "a^2", "--gen", "b", "a"
    )
    assert (code, out.strip()) == (1, "false")


def test_eq_subcommands(capsys):
    assert run(capsys, "eq", "e0", "--alphabet", "a,b", "a b", "b a")[0] == 0
    assert run(capsys, "eq", "e0", "--alphabet", "a,b", "a", "b")[0] == 1
    assert run(
        capsys, "eq", "e1", "--alphabet", "a,b", "--m", "2", "a", "b", "a", "b a^4"
    )[0] == 0
    assert run(
        capsys, "eq", "e2", "--alphabet", "a,b", "--m", "2", "a", "b", "a", "a^3 b"
    )[0] == 1
    assert run(
        capsys, "eq", "e1", "--alphabet", "a,b", "--m", "2", "a", "b", "a", "b a^3"
    )[0] == 1
    assert run(
        capsys, "eq", "e2", "--alphabet", "a,b", "--m", "2", "a", "b", "a", "a^4 b"
    )[0] == 0
    assert run(
        capsys, "eq", "e3", "--alphabet", "a,b", "--p", "1", "--q", "1",
        "a", "b", "a^2 b^3", "a", "b", "1",
    )[0] == 0


def test_eq_arity_error(capsys):
    code, _, err = run(capsys, "eq", "e0", "--alphabet", "a,b", "a")
    assert code == 2 and "takes 2 words" in err


@pytest.mark.parametrize("argv, option", [
    (["e3", "--alphabet", "a,b", "--m", "3", "a", "b", "a", "a", "b", "a"], "--m"),
    (["e0", "--alphabet", "a,b", "--m", "2", "a", "a"], "--m"),
    (["e1", "--alphabet", "a,b", "--p", "2", "--q", "2", "a", "b", "a", "b"], "--p"),
    (["e2", "--alphabet", "a,b", "--q", "1", "a", "b", "a", "b"], "--q"),
    (["e0", "--alphabet", "a,b", "--p", "1", "a", "a"], "--p"),
])
def test_eq_option_the_relation_does_not_take_is_usage_error(capsys, argv, option):
    code, out, err = run(capsys, "eq", *argv)
    assert (code, out) == (2, "") and option in err


def test_eq_exponent_options_default_to_one_where_they_apply(capsys):
    # a b a^-1 b^-1 = a^1 (b a^-1 b^-1) b^0, so with p = 1 it is in E3, and
    # with p = 2 the odd a-exponent keeps it out
    e3 = ["e3", "--alphabet", "a,b", "a", "b", "a b a^-1 b^-1", "a", "b", "b a^-1 b^-1"]
    assert run(capsys, "eq", *e3)[0] == run(capsys, "eq", "--p", "1", *e3)[0] == 0
    assert run(capsys, "eq", "--p", "2", *e3)[0] == 1
    e1 = ["e1", "--alphabet", "a,b", "a", "b", "a", "b a"]
    assert run(capsys, "eq", *e1)[0] == run(capsys, "eq", "--m", "1", *e1)[0] == 0
    assert run(capsys, "eq", "--m", "2", *e1)[0] == 1


def test_eq_library_input_errors_exit_2_with_its_message(capsys):
    code, _, err = run(capsys, "eq", "e1", "--alphabet", "a,b", "--m", "0",
                       "a", "b", "a", "b")
    assert (code, err.strip()) == (2, "error: m must be a positive integer")
    code, _, err = run(capsys, "eq", "e3", "--alphabet", "a,b",
                       "1", "b", "a", "a", "b", "a")
    assert (code, err.strip()) == (
        2, "error: E3 requires nontrivial centralizer anchors")


def test_gn_build(capsys):
    code, out, _ = run(capsys, "gn", "build", "--n", "1")
    assert code == 0
    assert "d0 = c0^-1 b0 a0 b0^-1 a0^-1" in out
    code, out, _ = run(capsys, "gn", "build", "--n", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["c"][1] == "t0^-1 c0^-1 b0 a0 b0^-1 a0^-1 t0"
    code, out, _ = run(capsys, "gn", "build", "--n", "2")
    assert code == 0
    assert "s0 = t0^-1\ns1 = t1^-1 t0^-1\n" in out
    code, out, _ = run(capsys, "gn", "build", "--n", "2", "--format", "json")
    assert json.loads(out)["s"] == ["t0^-1", "t1^-1 t0^-1"]


# The SHA-256 of the stdout of `gn build --n N`, as text and then as JSON,
# for N = 0 ... 16 in turn, recorded while SurfaceChain stored every d-word:
# reading d_i off c_{i+1} must not change a line.
GN_DIGEST = "8c3b1ec1003213ea37e0b80ecee8fc3cc63c259b8ef44e7ccc5bcec7d5192fc8"


def test_gn_output_keeps_its_digest(capsys):
    h = hashlib.sha256()
    for n in range(17):
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "gn", "build", "--n", str(n), "--format", fmt)
            assert code == 0
            h.update(out.encode())
    assert h.hexdigest() == GN_DIGEST


def test_verify_single_lemma_json_schema_and_roundtrip(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--lemma", "surface", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    report = VerificationReport.from_dict(payload)
    assert report.to_dict() == payload
    assert report.passed


def test_verify_all_json_reports_sorted_and_valid(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--lemma", "all", "--format", "json",
        "--max-len", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) >= 7
    for item in payload:
        jsonschema.validate(item, REPORT_SCHEMA)
    checks = [item["check"] for item in payload]
    assert checks == sorted(checks)


def test_verify_all_odd_n_skips_with_note(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--lemma", "all",
                       "--max-len", "3")
    assert code == 0
    assert "surface skipped" in out
    assert "flag skipped" in out


def test_verify_json_skip_notes_go_to_stderr(capsys):
    code, out, err = run(capsys, "verify", "--n", "0", "--lemma", "all",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for item in payload:
        jsonschema.validate(item, REPORT_SCHEMA)
    assert [item["check"] for item in payload] == [
        "orbit_distinct[amalgam]", "orbit_distinct[hnn]", "relation_chain"]
    assert [line.split()[1] for line in err.splitlines() if "skipped:" in line] == [
        "freefactor", "surface", "flag", "abelian", "separation"]


def test_verify_flag_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--n", "4", "--lemma", "flag", "--i", "9")
    assert code == 2 and "out of range" in err


def test_verify_flag_requires_index(capsys):
    code, _, err = run(capsys, "verify", "--n", "4", "--lemma", "flag")
    assert code == 2 and "--i" in err


@pytest.mark.parametrize("lemma", ["surface", "all", "separation"])
def test_verify_index_with_another_lemma_is_usage_error(capsys, lemma):
    code, out, err = run(capsys, "verify", "--n", "4", "--lemma", lemma, "--i", "1")
    assert code == 2 and out == "" and "--i" in err


def test_verify_injected_convention_flip_fails_with_residue(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--lemma", "all", "--max-len", "3",
        "--flip-convention",
    )
    assert code == 1
    assert "fail" in out
    assert "residue" in out


def test_verify_surface_odd_n_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--n", "3", "--lemma", "surface")
    assert code == 2


def test_verify_exhausted_budget_is_undecided(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--lemma", "separation",
                       "--budget", "10")
    assert code == 3
    assert out.startswith("budget-exhausted")
    # a failing report outranks an exhausted budget
    code, out, _ = run(capsys, "verify", "--n", "2", "--lemma", "all",
                       "--budget", "10", "--max-len", "2", "--flip-convention")
    assert code == 1
    assert "budget-exhausted" in out


def test_verify_huge_scan_depth_exhausts_budget_at_once(capsys):
    # the ball outgrows the budget within a few lengths, so the scan must stop
    # there and not walk (or count) the other lengths up to --max-len
    started = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--n", "2", "--lemma", "separation",
                       "--max-len", "1000000000", "--budget", "1000")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out.startswith("budget-exhausted")


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "2", "--lemma", "separation", "--budget", "0"),
    ("verify", "--n", "2", "--lemma", "all", "--budget", "-5"),
    ("verify", "--n", "2", "--lemma", "separation", "--max-len", "0"),
    ("verify", "--n", "2", "--lemma", "separation", "--max-len", "-3"),
    ("primitive", "--budget", "0", "--alphabet", "a,b", "a b a b^-1"),
])
def test_budget_and_scan_depth_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "at least 1" in err


def _reports(out):
    payload = json.loads(out)
    rows = payload if isinstance(payload, list) else [payload]
    return sorted((r["check"], sorted(r["params"].items()), r["status"], r["witnesses"])
                  for r in rows)


def test_verify_all_is_the_union_of_the_single_lemmas(capsys):
    for n in range(7):
        for flip in ((), ("--flip-convention",)):
            base = ("verify", "--n", str(n), "--max-len", "2", *flip)
            _, all_json, _ = run(capsys, *base, "--lemma", "all", "--format", "json")
            _, all_text, _ = run(capsys, *base, "--lemma", "all")
            singles = []
            for lemma in CHECKS:
                indices = (list(flag_indices(n)) or [1]) if lemma == "flag" else [None]
                for i in indices:
                    argv = [*base, "--lemma", lemma, "--format", "json"]
                    if i is not None:
                        argv += ["--i", str(i)]
                    code, out, _ = run(capsys, *argv)
                    skipped = f"note  {lemma} skipped: " in all_text
                    assert (code == 2) == skipped, (n, flip, lemma)
                    if not skipped:
                        singles += _reports(out)
            assert _reports(all_json) == sorted(singles), (n, flip)


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["verify", "--lemma", "all"]) == 2


def test_one_parser_serves_every_call(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    surface = ("verify", "--n", "4", "--lemma", "surface", "--format", "json")
    try:
        code, out, _ = run(capsys, *surface)
        assert code == 0 and json.loads(out)["status"] == "pass"
        assert run(capsys, "verify", "--n", "4", "--lemma", "bogus")[0] == 2
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "verify" in out
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0 and "--lemma" in out
        # a repeatable option starts empty on every call
        assert run(capsys, "member", "--alphabet", "a,b", "--gen", "a", "a")[:2] == (0, "true\n")
        assert run(capsys, "member", "--alphabet", "a,b", "--gen", "b", "a")[:2] == (1, "false\n")
        code, out, _ = run(capsys, *surface, "--flip-convention")
        assert code == 1 and json.loads(out)["status"] == "fail"
        code, out, _ = run(capsys, *surface)
        assert code == 0 and json.loads(out)["status"] == "pass"
        assert built == [1]
    finally:
        cli._parser.cache_clear()
    # outside callers still get a parser of their own
    assert real() is not real()


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def _console_script_lines():
    """The ``freefold`` lines of the CI step that runs the installed script,
    each with the exit code the step requires of it: the ``N`` of a
    ``test "$status" -eq N`` on the next line, else 0.  The comments there
    say why each holds."""
    lines = [line.strip() for line in WORKFLOW.read_text().splitlines()]
    cases = []
    for k, line in enumerate(lines):
        if line.startswith("freefold "):
            command = line.removeprefix("freefold ").removesuffix(" || status=$?")
            command = command.removesuffix(" > /dev/null")
            status = re.fullmatch(r'test "\$status" -eq (\d+)', lines[k + 1])
            cases.append((command, int(status.group(1)) if status else 0))
    return cases


CONSOLE_SCRIPT_LINES = _console_script_lines()


def test_console_script_lines_are_read_off_the_workflow():
    assert len(CONSOLE_SCRIPT_LINES) >= 30
    assert CONSOLE_SCRIPT_LINES[0] == ("verify --n 16 --lemma all --format json", 0)
    assert ("verify --n 16 --lemma all --format json --flip-convention", 1) in CONSOLE_SCRIPT_LINES
    assert ("eq e3 --alphabet a,b --m 3 a b a a b a", 2) in CONSOLE_SCRIPT_LINES
    assert {code for _, code in CONSOLE_SCRIPT_LINES} == {0, 1, 2, 3}


@pytest.mark.parametrize("line, expected", CONSOLE_SCRIPT_LINES)
def test_console_script_lines_exit_codes(capsys, line, expected):
    assert main(shlex.split(line)) == expected
