"""The command line as a transcript: one answer of each subcommand, with its
exact stdout and exit code, and one case of each usage-error class, with its
exit code and the last line it writes to stderr.

Help texts and usage lines are not pinned here: argparse wraps and words
them differently across Python versions.  A report's ``elapsed_ms`` is
masked, as it depends on the machine.
"""

import re
import shlex

import pytest

from freefold.cli import main

ANSWERS = [
    ("reduce --alphabet a,b 'a a^-1 b'", 0, "b\n"),
    ("conj --alphabet a,b b a", 0, "a^-1 b a\n"),
    ("root --alphabet a,b 'a b a b'", 0, "a b\t2\n"),
    ("primitive --alphabet a,b 'a a b'", 0, "true\n"),
    ("primitive --alphabet a,b 'a b a^-1 b^-1'", 1, "false\n"),
    ("member --alphabet a,b --gen a^2 --gen b 'b a^2 b^-1'", 0, "true\n"),
    ("member --alphabet a,b --gen a^2 --gen b a", 1, "false\n"),
    ("eq e0 --alphabet a,b 'a b' 'b a'", 0, "true\n"),
    ("eq e1 --alphabet a,b --m 2 a b a 'b a^4'", 0, "true\n"),
    ("eq e2 --alphabet a,b --m 2 a b a 'a^3 b'", 1, "false\n"),
    ("eq e3 --alphabet a,b a b 'a^2 b^3' a b 1", 0, "true\n"),
    ("gn build --n 1", 0,
     "alphabet: c0,a0,b0,t0,a1,b1\n"
     "c0 = c0\n"
     "d0 = c0^-1 b0 a0 b0^-1 a0^-1\n"
     "c1 = t0^-1 c0^-1 b0 a0 b0^-1 a0^-1 t0\n"
     "d1 = t0^-1 a0 b0 a0^-1 b0^-1 c0 t0 b1 a1 b1^-1 a1^-1\n"
     "s0 = t0^-1\n"),
    ("gn build --n 1 --format json", 0,
     '{\n  "n": 1,\n  "alphabet": [\n    "c0",\n    "a0",\n    "b0",\n'
     '    "t0",\n    "a1",\n    "b1"\n  ],\n  "c": [\n    "c0",\n'
     '    "t0^-1 c0^-1 b0 a0 b0^-1 a0^-1 t0"\n  ],\n  "d": [\n'
     '    "c0^-1 b0 a0 b0^-1 a0^-1",\n'
     '    "t0^-1 a0 b0 a0^-1 b0^-1 c0 t0 b1 a1 b1^-1 a1^-1"\n  ],\n'
     '  "s": [\n    "t0^-1"\n  ]\n}\n'),
    ("verify --n 2 --lemma relation", 0, "  pass  relation_chain  n=2  (0 ms)\n"),
    ("verify --n 2 --lemma surface --format json", 0,
     '{\n  "check": "surface_rewrite",\n  "params": {\n    "n": 2,\n'
     '    "basis_size": 9,\n    "inverted_stable_letters": 0\n  },\n'
     '  "status": "pass",\n  "witnesses": [],\n  "elapsed_ms": 0\n}\n'),
]

USAGE_ERRORS = [
    # the arity of each relation
    ("eq e0 --alphabet a,b a", 2, "error: e0 takes 2 words: x y"),
    ("eq e1 --alphabet a,b a b a", 2, "error: e1 takes 4 words: x y x' y'"),
    ("eq e3 --alphabet a,b a b", 2, "error: e3 takes 6 words: x y z x' y' z'"),
    # an exponent option the relation does not take
    ("eq e3 --alphabet a,b --m 3 a b a a b a", 2, "error: --m does not apply to e3"),
    ("eq e0 --alphabet a,b --p 1 a a", 2, "error: --p does not apply to e0"),
    # a malformed word, and a word over an unknown generator
    ("reduce --alphabet a,b 'a zz^2'", 2,
     "error: bad word 'a zz^2': token 2: unknown generator 'zz'"),
    ("member --alphabet a,b --gen c a", 2,
     "error: bad word 'c': token 1: unknown generator 'c'"),
    # a missing required option
    ("reduce a", 2,
     "freefold reduce: error: the following arguments are required: --alphabet"),
    ("eq", 2,
     "freefold eq: error: the following arguments are required: relation, --alphabet, words"),
    ("member --alphabet a,b a", 2,
     "freefold member: error: the following arguments are required: --gen"),
    # the empty word
    ("root --alphabet a,b 1", 2, "error: the empty word has no root"),
    ("primitive --alphabet a,b 1", 2, "error: primitivity is undefined for the empty word"),
    # an exponent whose letters do not fit in memory
    ("reduce --alphabet a a^4611686018427387904", 2,
     "error: out of memory: the words are too long"),
    # a bad alphabet
    ("reduce --alphabet a,a a", 2,
     "freefold reduce: error: argument --alphabet: bad alphabet: duplicate generator name 'a'"),
]


def _run(capsys, line):
    code = main(shlex.split(line))
    captured = capsys.readouterr()
    return code, re.sub(r'(\(|"elapsed_ms": )\d+', r"\g<1>0", captured.out), captured.err


@pytest.mark.parametrize("line, code, out", ANSWERS)
def test_answer(capsys, line, code, out):
    assert _run(capsys, line) == (code, out, "")


@pytest.mark.parametrize("line, code, last", USAGE_ERRORS)
def test_usage_error(capsys, line, code, last):
    got, out, err = _run(capsys, line)
    assert (got, out, err.splitlines()[-1]) == (code, "", last)

