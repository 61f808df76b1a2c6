"""Command-line front end: word utilities, relation queries, certificates.

Exit codes: 0 = pass / true, 1 = fail / false, 2 = usage or input error
(a word too long for memory included), 3 = undecided: a search ran out of
its budget before it could answer (``primitive --budget``; ``verify`` when
a report is budget-exhausted and none failed).  ``--budget`` and
``--max-len`` must be at least 1.  ``eq`` takes ``--m`` for e1/e2 and
``--p``/``--q`` for e3 only (each 1 by default); an exponent option the
relation does not take is a usage error.
Reports print as text or as JSON objects with the stable schema
{"check", "params", "status", "witnesses", "elapsed_ms"}; in JSON mode the
notes of skipped checks go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .chain import (
    BUDGET,
    CHECKS,
    DEFAULT_SCAN_CAP,
    DEFAULT_SCAN_LEN,
    FAIL,
    VerificationReport,
    build_chain,
    run_checks,
)
from .cosets import e0, e1, e2, e3
from .graphs import fold_subgroup
from .whitehead import DEFAULT_BUDGET, BudgetExhausted, is_primitive
from .words import (
    Alphabet,
    Word,
    WordSyntaxError,
    conjugate,
    parse_word,
    root,
)

LEMMAS = (*CHECKS, "all")


def _alphabet(text: str) -> Alphabet:
    try:
        return Alphabet.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alphabet: {exc}") from exc


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _word(text: str, alphabet: Alphabet) -> Word:
    try:
        return parse_word(text, alphabet)
    except WordSyntaxError as exc:
        raise ValueError(f"bad word {text!r}: {exc}") from exc


def _emit_reports(reports: list[VerificationReport], notes: list[str],
                  fmt: str) -> None:
    reports = sorted(reports, key=lambda r: (r.check, sorted(r.params.items())))
    if fmt == "json":
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            print(f"{r.status:>6}  {r.check}  {params}  ({r.elapsed_ms} ms)")
            for w in r.witnesses:
                print(f"        witness: {w}")
    # JSON stdout holds reports only, so its notes go to stderr
    for note in notes:
        print(f"  note  {note}", file=sys.stderr if fmt == "json" else sys.stdout)


def _run_verify(args) -> int:
    chain = build_chain(args.n, inverted_stable_letters=args.flip_convention)
    reports, notes = run_checks(chain, args.lemma, args.i, args.max_len, args.budget)
    _emit_reports(reports, notes, args.format)
    statuses = {r.status for r in reports}
    return 1 if FAIL in statuses else 3 if BUDGET in statuses else 0


def _verdict(result: bool) -> int:
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_reduce(args) -> int:
    text = args.word if args.word is not None else sys.stdin.read()
    print(_word(text, args.alphabet))
    return 0


def _cmd_conj(args) -> int:
    print(conjugate(_word(args.x, args.alphabet), _word(args.g, args.alphabet)))
    return 0


def _cmd_root(args) -> int:
    r, k = root(_word(args.word, args.alphabet))
    print(f"{r}\t{k}")
    return 0


def _cmd_primitive(args) -> int:
    return _verdict(is_primitive(_word(args.word, args.alphabet), args.budget))


def _cmd_member(args) -> int:
    graph = fold_subgroup([_word(g, args.alphabet) for g in args.gen], args.alphabet)
    return _verdict(graph.contains(_word(args.word, args.alphabet)))


# relation -> (its decider, the exponent options it takes, the names of its words)
EQ = {
    "e0": (e0, (), "x y"),
    "e1": (e1, ("m",), "x y x' y'"),
    "e2": (e2, ("m",), "x y x' y'"),
    "e3": (e3, ("p", "q"), "x y z x' y' z'"),
}


def _cmd_eq(args) -> int:
    decide, options, names = EQ[args.relation]
    given = {o: getattr(args, o) for o in ("m", "p", "q") if getattr(args, o) is not None}
    for option in given:
        if option not in options:
            raise ValueError(f"--{option} does not apply to {args.relation}")
    words = [_word(w, args.alphabet) for w in args.words]
    if len(words) != len(names.split()):
        raise ValueError(f"{args.relation} takes {len(names.split())} words: {names}")
    return _verdict(decide(*(given.get(o, 1) for o in options), *words))


def _cmd_gn(args) -> int:
    chain = build_chain(args.n)
    # chain.d builds every d-word afresh, so each list is read once
    words = {key: [str(w) for w in getattr(chain, key)] for key in ("c", "d", "s")}
    if args.format == "json":
        print(json.dumps({"n": chain.n, "alphabet": list(chain.alphabet.names), **words},
                         indent=2))
        return 0
    print(f"alphabet: {','.join(chain.alphabet.names)}")
    for i, (c, d) in enumerate(zip(words["c"], words["d"])):
        print(f"c{i} = {c}\nd{i} = {d}")
    for i, s in enumerate(words["s"]):
        print(f"s{i} = {s}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freefold",
        description="exact free-group computations and construction certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alphabet = argparse.ArgumentParser(add_help=False)
    alphabet.add_argument("--alphabet", required=True, type=_alphabet)
    # eq lists its relation before --alphabet, in its usage errors too
    relation = argparse.ArgumentParser(add_help=False)
    relation.add_argument("relation", choices=EQ)

    p = sub.add_parser("reduce", parents=[alphabet],
                       help="freely reduce a word (stdin if omitted)")
    p.add_argument("word", nargs="?")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("conj", parents=[alphabet], help="conjugate x by g (g^-1 x g)")
    p.add_argument("x")
    p.add_argument("g")
    p.set_defaults(fn=_cmd_conj)

    p = sub.add_parser("root", parents=[alphabet], help="maximal root and exponent of a word")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_root)

    p = sub.add_parser("primitive", parents=[alphabet], help="is the word part of some basis")
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("word")
    p.set_defaults(fn=_cmd_primitive)

    p = sub.add_parser("member", parents=[alphabet],
                       help="subgroup membership via folded graph")
    p.add_argument("--gen", action="append", required=True,
                   help="subgroup generator (repeatable)")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("eq", parents=[relation, alphabet],
                       help="decide a basic equivalence relation")
    p.add_argument("--m", type=int, help="e1/e2 exponent (default 1)")
    p.add_argument("--p", type=int, help="e3 exponent on the x side (default 1)")
    p.add_argument("--q", type=int, help="e3 exponent on the y side (default 1)")
    p.add_argument("words", nargs="+")
    p.set_defaults(fn=_cmd_eq)

    p = sub.add_parser("gn", help="build the witness construction")
    p.add_argument("action", choices=["build"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_gn)

    p = sub.add_parser("verify", help="run construction certificates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lemma", choices=LEMMAS, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=_positive, default=DEFAULT_SCAN_CAP)
    p.add_argument("--max-len", type=_positive, default=DEFAULT_SCAN_LEN, dest="max_len")
    p.add_argument("--flip-convention", action="store_true",
                   help=argparse.SUPPRESS)  # fault injection for testing
    p.set_defaults(fn=_run_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reads every argument list with: parsing keeps
    no state on it, so it is built once per process, not once per call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:  # usage and input errors, the library's included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # an input whose letters do not fit, e.g. a^(2^62)
        print("error: out of memory: the words are too long", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
