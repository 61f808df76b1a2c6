"""Seeded inputs, library queries and output checks for the benchmark workloads.

A workload is a list of operations run in order by one client in a closed
loop: the next operation starts when the previous one returns.  Each
operation carries its inputs and the answer it must give.  The answers are
known by construction and computed here with the benchmark's own code
(free reduction, exponent vectors, gcds), never by asking the library.

``chain_deep`` and ``chain_shallow`` call ``freefold verify --lemma all``
in-process; ``decide_mix`` is a stream of library queries.  The seed only
chooses the inputs: the chain workloads take it as the order of their
``verify`` calls, ``decide_mix`` as the words, subgroups and matrices.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from freefold import abelian, chain, cli, cosets, graphs, whitehead, words

# (depth n, flipped gluing convention) per `verify --lemma all` call.
CHAIN_LADDERS = {
    "chain_deep": ((8, False), (12, False), (16, False)),
    "chain_shallow": ((2, False), (4, False), (4, True)),
}
WORKLOADS = ("chain_deep", "chain_shallow", "decide_mix")

# The layer whose query latency each decide_mix query kind reports under.
QUERY_LAYERS = {
    "primitive": "whitehead",
    "fold": "graphs",
    "member": "graphs",
    "root": "words",
    "conjugate": "words",
    "e3": "cosets",
    "double_coset": "cosets",
    "extendable": "abelian",
    "verify": "cli",
}

# decide_mix composition of one pass: 2,000 queries in about ten seconds, so
# that a run repeats every query a few times and the p99 of a pass has twenty
# samples beyond it.  The tail is the seed's hardest Whitehead queries; with
# ten beyond it, the p99 of ten seeds spread by 0.13 (interquartile range over
# median), with twenty by about 0.07.  Whitehead descent is most of the time,
# while the many small coset and abelian queries set the median.
PRIMITIVE_QUERIES = {3: 192, 4: 192, 5: 96}  # per rank, half primitive, half not
PRIMITIVE_LENGTH = {3: 12, 4: 8, 5: 6}  # cyclic length of each query word
SUBGROUPS = 20  # each one fold plus MEMBER_QUERIES membership queries
MEMBER_QUERIES = 20
POWER_QUERIES = 20  # each of root and conjugacy, words of length 500-2000
COSET_QUERIES = 300  # each of e3 and double_coset_member
EXTENDABLE_QUERIES = 460

REPORT_KEYS = {"check", "params", "status", "witnesses", "elapsed_ms"}
STATUSES = {"pass", "fail", "budget-exhausted"}


@dataclass
class Op:
    """One query: its kind, its inputs, and the verdict it must produce.

    ``cert`` keeps construction data (an automorphism's images, exponents,
    a unimodular matrix) that the self-tests hand to independent oracles.
    """

    kind: str
    args: tuple
    expected: Any
    cert: Any = None

    @property
    def layer(self) -> str:
        return QUERY_LAYERS[self.kind]


@dataclass
class Subgroup:
    """Generators of a subgroup, folded once by its ``fold`` operation."""

    gens: list
    graph: Any = None
    basis: list = field(default_factory=list)


# -- the benchmark's own free-group arithmetic on letter codes ---------------
# A letter is 2*g for generator g and 2*g + 1 for its inverse, as in
# freefold.words; these helpers are independent re-implementations.


def _reduce(codes) -> tuple:
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def _inv(codes) -> tuple:
    return tuple(c ^ 1 for c in reversed(codes))


def _power(codes, k: int) -> tuple:
    return _reduce((codes if k >= 0 else _inv(codes)) * abs(k))


def _cyclic_core(codes) -> tuple:
    lo, hi = 0, len(codes)
    while hi - lo >= 2 and codes[lo] == codes[hi - 1] ^ 1:
        lo, hi = lo + 1, hi - 1
    return codes[lo:hi]


def _exponents(codes, rank: int) -> tuple:
    out = [0] * rank
    for c in codes:
        out[c >> 1] += -1 if c & 1 else 1
    return tuple(out)


def _content(vector) -> int:
    g = 0
    for x in vector:
        g = math.gcd(g, x)
    return g


def _independent(u, v) -> bool:
    return any(u[i] * v[j] != u[j] * v[i]
               for i in range(len(u)) for j in range(i + 1, len(u)))


def _random_word(rng, rank: int, length: int) -> tuple:
    out: list[int] = []
    while len(out) < length:
        c = rng.randrange(2 * rank)
        if not out or out[-1] != c ^ 1:
            out.append(c)
    return tuple(out)


def _random_cyclic(rng, rank: int, length: int) -> tuple:
    """A cyclically reduced word that is not a proper power."""
    while True:
        w = _random_word(rng, rank, length)
        if w[0] == w[-1] ^ 1:
            continue
        if any(length % d == 0 and w == w[:d] * (length // d) for d in range(1, length)):
            continue
        return w


def _alphabet(rank: int) -> words.Alphabet:
    return words.Alphabet([f"x{i}" for i in range(rank)])


# -- chain workloads ----------------------------------------------------------


def _expected_verify(n: int, flip: bool) -> tuple:
    """Exit code and sorted (check, status, has witness) rows of `verify --lemma all`."""
    checks = ["relation_chain", "orbit_distinct[amalgam]", "orbit_distinct[hnn]"]
    if n >= 1:
        checks += ["free_factor_chain", "abelian_obstruction"]
    if n >= 2 and n % 2 == 0:
        checks.append("surface_rewrite")
    checks += ["flag_decomposition"] * sum(1 for i in range(1, n) if 2 * i + 2 <= n)
    if n >= 2:
        checks.append("conjugacy_separation")
    # the flipped convention breaks the gluing recursion and the surface relator
    failing = {"relation_chain", "surface_rewrite"} if flip else set()
    rows = tuple(sorted((c, "fail" if c in failing else "pass", c in failing)
                        for c in checks))
    return (1 if flip else 0, rows)


def _chain_ops(name: str, rng) -> list[Op]:
    ladder = list(CHAIN_LADDERS[name])
    rng.shuffle(ladder)
    return [Op("verify", (n, flip), _expected_verify(n, flip)) for n, flip in ladder]


def _query_verify(n: int, flip: bool):
    argv = ["verify", "--n", str(n), "--lemma", "all", "--format", "json"]
    if flip:
        argv.append("--flip-convention")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class SchemaError(ValueError):
    """A verify report that breaks the pinned JSON schema."""


def _validate_report(r) -> None:
    if not isinstance(r, dict) or set(r) != REPORT_KEYS:
        raise SchemaError(f"report keys {sorted(r) if isinstance(r, dict) else r!r}")
    if not isinstance(r["check"], str) or r["status"] not in STATUSES:
        raise SchemaError(f"bad check or status in {r!r}")
    if not isinstance(r["params"], dict) or not all(
            isinstance(v, int) for v in r["params"].values()):
        raise SchemaError(f"params must be integer-valued: {r['params']!r}")
    if not isinstance(r["witnesses"], list) or not all(
            isinstance(w, str) for w in r["witnesses"]):
        raise SchemaError(f"witnesses must be strings: {r['witnesses']!r}")
    if not isinstance(r["elapsed_ms"], int) or r["elapsed_ms"] < 0:
        raise SchemaError(f"bad elapsed_ms {r['elapsed_ms']!r}")


def _check_verify(result):
    code, text = result
    payload = json.loads(text)
    reports = payload if isinstance(payload, list) else [payload]
    for r in reports:
        _validate_report(r)
    rows = tuple(sorted((r["check"], r["status"], bool(r["witnesses"])) for r in reports))
    extras = {
        "elapsed_ms": sum(r["elapsed_ms"] for r in reports),
        "classes": [(r["params"]["classes_1"] + r["params"]["classes_2"]) / 2
                    for r in reports if r["check"] == "conjugacy_separation"],
    }
    return (code, rows), extras


# -- decide_mix -----------------------------------------------------------------


def _nielsen_images(rng, rank: int, target: int, query) -> tuple:
    """Basis images under random elementary Nielsen moves, grown until the
    cyclic length of ``query(images)`` lands in [target, target + 2]."""
    while True:
        images = [(2 * g,) for g in range(rank)]
        for _ in range(200):
            length = len(_cyclic_core(query(images)))
            if length >= target:
                break
            i = 0 if rng.random() < 0.5 else rng.randrange(rank)
            j = rng.randrange(rank - 1)
            j += j >= i
            m = images[j] if rng.random() < 0.5 else _inv(images[j])
            images[i] = _reduce(images[i] + m if rng.random() < 0.5 else m + images[i])
        if target <= length <= target + 2:
            return tuple(images)


def _primitive_ops(rng) -> list[Op]:
    ops = []
    for rank, count in PRIMITIVE_QUERIES.items():
        alphabet = _alphabet(rank)
        target = PRIMITIVE_LENGTH[rank]
        for q in range(count):
            if q % 2 == 0:  # the image of x0 under an automorphism is primitive
                images = _nielsen_images(rng, rank, target, lambda im: im[0])
                codes = images[0]
            elif q % 4 == 1:  # the image of x0^2 is not
                images = _nielsen_images(rng, rank, target,
                                         lambda im: _power(im[0], 2))
                codes = _power(images[0], 2)
            else:  # nor is the image of the commutator [x0, x1]
                images = _nielsen_images(
                    rng, rank, target,
                    lambda im: _reduce(im[0] + im[1] + _inv(im[0]) + _inv(im[1])))
                codes = _reduce(images[0] + images[1] + _inv(images[0]) + _inv(images[1]))
            primitive = q % 2 == 0
            # a primitive element has a primitive exponent vector
            assert primitive or _content(_exponents(codes, rank)) != 1
            ops.append(Op("primitive", (words.Word(alphabet, codes),), primitive,
                          cert=images if primitive else None))
    return ops


def _membership_blocks(rng) -> list[list[Op]]:
    """Subgroups inside the kernel of (x0-exponent mod 2); a word with odd
    x0-exponent is therefore certainly outside, a product of generators inside."""

    def parity(codes):
        return sum(1 for c in codes if c >> 1 == 0) % 2

    blocks = []
    for _ in range(SUBGROUPS):
        rank = rng.choice((2, 3))
        alphabet = _alphabet(rank)
        n_gens = rng.randint(2, 5)
        gens = []
        while len(gens) < n_gens:
            w = _random_word(rng, rank, rng.randint(3, 8))
            if parity(w) == 0:
                gens.append(w)
        sub = Subgroup([words.Word(alphabet, g) for g in gens])
        block = [Op("fold", (sub,), True)]
        for q in range(MEMBER_QUERIES):
            if q % 2 == 0:
                factors = [(rng.randrange(len(gens)), rng.choice((1, -1)))
                           for _ in range(rng.randint(1, 6))]
                codes = _reduce(c for i, s in factors for c in _power(gens[i], s))
                if not codes:
                    codes = gens[0]
                block.append(Op("member", (sub, words.Word(alphabet, codes)), True))
            else:
                codes = ()
                while parity(codes) == 0:
                    codes = _random_word(rng, rank, rng.randint(3, 12))
                block.append(Op("member", (sub, words.Word(alphabet, codes)), False))
        blocks.append(block)
    return blocks


def _power_ops(rng) -> list[Op]:
    """root and is_conjugate on g^-1 r^k g.  The lengths of r^k spread
    evenly over 500..2000 and the base lengths of r are fixed per query, so
    that every seed puts the same amount of work in the tail."""
    ops = []
    for q in range(POWER_QUERIES):
        target = 500 + (1500 * q) // (POWER_QUERIES - 1)
        rank = rng.choice((2, 3))
        alphabet = _alphabet(rank)
        base = 5 + q
        r0 = _random_cyclic(rng, rank, base)
        k = target // base
        g = _random_word(rng, rank, rng.randint(1, 10))
        word = lambda codes: words.Word(alphabet, codes)
        # the maximal root of g^-1 r0^k g is g^-1 r0 g, exponent k
        ops.append(Op("root", (word(r0), k, word(g)),
                      (_reduce(_inv(g) + r0 + g), k)))
        g2 = _random_word(rng, rank, rng.randint(1, 10))
        if q % 2 == 0:  # a rotation of r0 is conjugate to it
            shift = rng.randrange(1, base)
            r1, same = r0[shift:] + r0[:shift], True
        else:  # a different exponent vector, even up to sign, is not
            e0 = _exponents(r0, rank)
            while True:
                r1 = _random_cyclic(rng, rank, base)
                e1 = _exponents(r1, rank)
                if e1 != e0 and e1 != tuple(-x for x in e0):
                    break
            same = False
        ops.append(Op("conjugate", (word(r0), word(r1), k, word(g), word(g2)), same))
    return ops


def _coset_ops(rng) -> list[Op]:
    """z in <rx^p> z' <ry^q>: members are rx^(p a) z' ry^(q b).  For a
    nonmember the exponent of rx (or ry) is not a multiple of p (or q);
    with independent exponent vectors of rx and ry, abelianizing proves it."""
    ops = []
    for q in range(2 * COSET_QUERIES):
        rank = rng.choice((2, 3))
        alphabet = _alphabet(rank)
        while True:
            rx = _random_cyclic(rng, rank, rng.randint(2, 6))
            ry = _random_cyclic(rng, rank, rng.randint(2, 6))
            if _independent(_exponents(rx, rank), _exponents(ry, rank)):
                break
        z_mid = _random_word(rng, rank, rng.randint(2, 8))
        member = q % 4 < 2
        if member:
            p, qq = rng.randint(1, 3), rng.randint(1, 3)
            a, b = p * rng.randint(-3, 3), qq * rng.randint(-3, 3)
        else:
            p, qq = rng.choice(((2, 1), (1, 2), (2, 3), (3, 2), (2, 2)))
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            while a % p == 0 and b % qq == 0:
                a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        z = _reduce(_power(rx, a) + z_mid + _power(ry, b))
        word = lambda codes: words.Word(alphabet, codes)
        cert = (a // p, b // qq) if member else None
        if q % 2 == 0:
            x = _power(rx, rng.choice((1, 2, -1, -2)))
            x2 = _power(rx, rng.choice((1, 3, -1, -3)))
            y = _power(ry, rng.choice((1, 2, -1, -2)))
            y2 = _power(ry, rng.choice((1, 3, -1, -3)))
            ops.append(Op("e3", (p, qq, word(x), word(y), word(z), word(x2), word(y2),
                                 word(z_mid)), member, cert))
        else:
            ops.append(Op("double_coset", (word(_power(rx, p)), word(z_mid),
                                           word(_power(ry, qq)), word(z)), member, cert))
    return ops


def _extendable_ops(rng) -> list[Op]:
    """Rows of a random unimodular matrix extend to a lattice basis; a row
    scaled by d >= 2 has content d and cannot."""
    ops = []
    for q in range(EXTENDABLE_QUERIES):
        n = rng.randint(3, 6)
        matrix = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            j += j >= i
            m = rng.randint(1, 10**6) * rng.choice((1, -1))
            matrix[i] = [x + m * y for x, y in zip(matrix[i], matrix[j])]
        rng.shuffle(matrix)
        rows = [list(r) for r in matrix[: rng.randint(2, n)]]
        extendable = q % 2 == 0
        if not extendable:
            j, d = rng.randrange(len(rows)), rng.randint(2, 9)
            rows[j] = [d * x for x in rows[j]]
            assert _content(rows[j]) >= 2
        ops.append(Op("extendable", (rows,), extendable, cert=matrix))
    return ops


def _decide_ops(rng) -> list[Op]:
    blocks = [[op] for op in _primitive_ops(rng)]
    blocks += _membership_blocks(rng)
    blocks += [[op] for op in _power_ops(rng)]
    blocks += [[op] for op in _coset_ops(rng)]
    blocks += [[op] for op in _extendable_ops(rng)]
    rng.shuffle(blocks)  # a fold stays in front of its membership queries
    return [op for block in blocks for op in block]


def generate(name: str, seed: int) -> list[Op]:
    """The operations of one pass of workload ``name``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "decide_mix":
        return _decide_ops(rng)
    return _chain_ops(name, rng)


# -- running and checking -----------------------------------------------------


def _query_fold(sub):
    sub.graph = graphs.fold_subgroup(sub.gens)
    sub.basis = sub.graph.basis()
    return all(sub.graph.contains(h) for h in sub.gens)


def _query_member(sub, w):
    if not sub.graph.contains(w):
        return None
    return sub.graph.express(w)


def _check_member(sub, w, factors) -> bool:
    """Multiply the expressed basis factors back and compare with w."""
    if factors is None:
        return False
    codes = []
    for f in factors:
        piece = sub.basis[abs(f) - 1].letters
        codes += piece if f > 0 else _inv(piece)
    return _reduce(codes) == w.letters


# Library functions are looked up at call time, so that the tracer's
# wrappers, installed in the module namespaces, are the ones called.
QUERIES = {
    "verify": _query_verify,
    "primitive": lambda w: whitehead.is_primitive(w),
    "fold": _query_fold,
    "member": _query_member,
    "root": lambda r0, k, g: words.root(words.conjugate(r0 ** k, g)),
    "conjugate": lambda r0, r1, k, g, g2: words.is_conjugate(
        words.conjugate(r0 ** k, g), words.conjugate(r1 ** k, g2)),
    "e3": lambda *args: cosets.e3(*args),
    "double_coset": lambda *args: cosets.double_coset_member(*args),
    "extendable": lambda rows: abelian.is_basis_extendable_abelian(rows),
}


def check(op: Op, result):
    """The verdict to compare with ``op.expected``, plus extra report data."""
    if op.kind == "verify":
        return _check_verify(result)
    if op.kind == "member":
        return _check_member(*op.args, result), None
    if op.kind == "root":
        r, k = result
        return (r.letters, k), None
    return result, None


@dataclass
class PassResult:
    wall_s: float
    latencies: list  # (layer, milliseconds) per operation
    verdicts: list
    failed: int
    extras: list
    first_failure: str | None = None
    window: tuple = ()  # (start, end) of the pass on the perf_counter clock
    op_windows: list = field(default_factory=list)  # (start, end) per operation


def run_pass(ops: list[Op], tracer=None) -> PassResult:
    """Run every operation once, in order, and check each answer.

    A wrong verdict, a schema violation or an exception counts as one failed
    operation; none of them stops the pass.
    """
    latencies, verdicts, extras, op_windows = [], [], [], []
    failed, first_failure = 0, None
    started = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            result = QUERIES[op.kind](*op.args)
            t1 = perf_counter()
            verdict, extra = check(op, result)
        except Exception as exc:  # counted in error_rate, never aborts the run
            t1 = perf_counter()
            verdict, extra = f"{type(exc).__name__}: {exc}", None
            if first_failure is None:
                traceback.print_exc(file=sys.stderr)
        latencies.append((op.layer, (t1 - t0) * 1000.0))
        op_windows.append((t0, t1))
        verdicts.append(verdict)
        if extra:
            extras.append(extra)
        if verdict != op.expected:
            failed += 1
            if first_failure is None:
                first_failure = (f"operation {i} ({op.kind}): got {verdict!r}, "
                                 f"expected {op.expected!r}")
    ended = perf_counter()
    return PassResult(ended - started, latencies, verdicts, failed, extras, first_failure,
                      (started, ended), op_windows)


def warm_up(name: str) -> dict:
    """The lazy set-up a library user pays once per process.

    decide_mix builds the Whitehead move table of every rank it queries
    (through the public is_primitive); the chain workloads build their
    chains.  Returns the seconds spent, keyed by layer.
    """
    started = perf_counter()
    if name == "decide_mix":
        for rank in PRIMITIVE_QUERIES:
            whitehead.is_primitive(_alphabet(rank).gen("x0"))
        return {"whitehead": perf_counter() - started}
    for n, flip in CHAIN_LADDERS[name]:
        chain.build_chain(n, inverted_stable_letters=flip)
    return {"chain": perf_counter() - started}
