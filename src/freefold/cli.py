"""Command-line front end: word utilities, relation queries, certificates.

Exit codes: 0 = pass / true, 1 = fail / false, 2 = usage or input error,
3 = undecided: a search ran out of its budget before it could answer
(``primitive --budget``; ``verify`` when a report is budget-exhausted and
none failed).  ``--budget`` and ``--max-len`` must be at least 1.
Reports print as text or as JSON objects with the stable schema
{"check", "params", "status", "witnesses", "elapsed_ms"}; in JSON mode the
notes of skipped checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chain import (
    BUDGET,
    CHECKS,
    DEFAULT_SCAN_CAP,
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


class _UsageError(ValueError):
    pass


def _alphabet(text: str) -> Alphabet:
    try:
        return Alphabet.parse(text)
    except ValueError as exc:
        raise _UsageError(f"bad alphabet: {exc}") from exc


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _word(text: str, alphabet: Alphabet) -> Word:
    try:
        return parse_word(text, alphabet)
    except WordSyntaxError as exc:
        raise _UsageError(f"bad word {text!r}: {exc}") from exc


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


def _cmd_reduce(args) -> int:
    alphabet = _alphabet(args.alphabet)
    text = args.word if args.word is not None else sys.stdin.read()
    print(_word(text, alphabet))
    return 0


def _cmd_conj(args) -> int:
    alphabet = _alphabet(args.alphabet)
    print(conjugate(_word(args.x, alphabet), _word(args.g, alphabet)))
    return 0


def _cmd_root(args) -> int:
    alphabet = _alphabet(args.alphabet)
    r, k = root(_word(args.word, alphabet))
    print(f"{r}\t{k}")
    return 0


def _cmd_primitive(args) -> int:
    alphabet = _alphabet(args.alphabet)
    result = is_primitive(_word(args.word, alphabet), args.budget)
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_member(args) -> int:
    alphabet = _alphabet(args.alphabet)
    gens = [_word(g, alphabet) for g in args.gen]
    graph = fold_subgroup(gens, alphabet)
    result = graph.contains(_word(args.word, alphabet))
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_eq(args) -> int:
    alphabet = _alphabet(args.alphabet)
    words = [_word(w, alphabet) for w in args.words]
    relation = args.relation
    if relation == "e0":
        if len(words) != 2:
            raise _UsageError("e0 takes 2 words: x y")
        result = e0(*words)
    elif relation in ("e1", "e2"):
        if len(words) != 4:
            raise _UsageError(f"{relation} takes 4 words: x y x' y'")
        fn = e1 if relation == "e1" else e2
        result = fn(args.m, *words)
    else:
        if len(words) != 6:
            raise _UsageError("e3 takes 6 words: x y z x' y' z'")
        result = e3(args.p, args.q, *words)
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_gn(args) -> int:
    chain = build_chain(args.n)
    if args.format == "json":
        payload = {
            "n": chain.n,
            "alphabet": list(chain.alphabet.names),
            "c": [str(w) for w in chain.c],
            "d": [str(w) for w in chain.d],
            "s": [str(w) for w in chain.s],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"alphabet: {','.join(chain.alphabet.names)}")
    for i in range(chain.n + 1):
        print(f"c{i} = {chain.c[i]}")
        print(f"d{i} = {chain.d[i]}")
    for i in range(chain.n):
        print(f"s{i} = {chain.s[i]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freefold",
        description="exact free-group computations and construction certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word (stdin if omitted)")
    p.add_argument("--alphabet", required=True)
    p.add_argument("word", nargs="?")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("conj", help="conjugate x by g (g^-1 x g)")
    p.add_argument("--alphabet", required=True)
    p.add_argument("x")
    p.add_argument("g")
    p.set_defaults(fn=_cmd_conj)

    p = sub.add_parser("root", help="maximal root and exponent of a word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("word")
    p.set_defaults(fn=_cmd_root)

    p = sub.add_parser("primitive", help="is the word part of some basis")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("word")
    p.set_defaults(fn=_cmd_primitive)

    p = sub.add_parser("member", help="subgroup membership via folded graph")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--gen", action="append", required=True,
                   help="subgroup generator (repeatable)")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("eq", help="decide a basic equivalence relation")
    p.add_argument("relation", choices=["e0", "e1", "e2", "e3"])
    p.add_argument("--alphabet", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
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
    p.add_argument("--max-len", type=_positive, default=6, dest="max_len")
    p.add_argument("--flip-convention", action="store_true",
                   help=argparse.SUPPRESS)  # fault injection for testing
    p.set_defaults(fn=_run_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
