"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them all)
and enforces the stated runtime limit where one applies.  Oracles here are
deliberately independent of the code paths they check: bounded enumeration
for membership, orbit closure from the generators for primitivity, bounded
exponent search plus constructed members for double cosets.
"""

import random
import time
from contextlib import contextmanager

from freefold.abelian import exponent_vector
from freefold.chain import (
    build_chain,
    cross_conjugacy_scan,
    documented_orbit_instances,
    explicit_flag_decomposition,
    orbit_distinct_check,
    separation_parts,
    surface_rewrite,
    verify_free_factor_chain,
    verify_not_decomposable,
    verify_relation_chain,
    verify_surface_rewrite,
)
from freefold.cosets import (
    double_coset_member,
    double_coset_member_bounded,
    e0,
    e1,
    e2,
    e3,
)
from freefold.graphs import fold_subgroup, verify_expression
from freefold.whitehead import is_primitive
from freefold.words import (
    Alphabet,
    Word,
    conjugate,
    cyclic_normal_form,
    invert,
    multiply,
    root,
)
from helpers import all_reduced_words, random_word, whitehead_generators


@contextmanager
def criterion(num, label, limit_s=None):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {num:2d} {label}: PASS ({elapsed:.2f}s)")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s >= {limit_s}s"


def test_criterion_01_construction_soundness():
    with criterion(1, "construction soundness n<=6", limit_s=1.0):
        for n in range(7):
            report = verify_relation_chain(build_chain(n))
            assert report.passed, report


def test_criterion_02_free_factor_chain():
    with criterion(2, "free-factor chain n in 1..4", limit_s=5.0):
        for n in range(1, 5):
            chain = build_chain(n)
            report = verify_free_factor_chain(chain)
            assert report.passed, report
            graph = fold_subgroup(chain.alphabet.generators(), chain.alphabet)
            assert graph.rank() == 3 * (n + 1)


def test_criterion_03_surface_rewrite():
    with criterion(3, "surface rewrite n in {2,4}", limit_s=10.0):
        for n, size in ((2, 9), (4, 15)):
            chain = build_chain(n)
            report = verify_surface_rewrite(chain)
            assert report.passed, report
            assert report.params["basis_size"] == size
            assert not surface_rewrite(chain).identity_residue
            flipped = build_chain(n, inverted_stable_letters=True)
            assert surface_rewrite(flipped).identity_residue


def test_criterion_04_flag_decomposition():
    with criterion(4, "flag decomposition (4,1) (6,1) (6,2)", limit_s=30.0):
        for n, i in ((4, 1), (6, 1), (6, 2)):
            report = explicit_flag_decomposition(build_chain(n), i)
            assert report.passed, report


def test_criterion_05_abelian_obstruction():
    with criterion(5, "abelian obstruction n in 1..8", limit_s=1.0):
        for n in range(1, 9):
            chain = build_chain(n)
            report = verify_not_decomposable(chain)
            assert report.passed, report
            sign = (-1) ** (n + 1)
            vec = exponent_vector(chain.c[0])
            assert exponent_vector(chain.d[n]) == tuple(sign * x for x in vec)


def test_criterion_06_orbit_evidence():
    with criterion(6, "twist-orbit evidence N=10", limit_s=1.0):
        instances = documented_orbit_instances()
        assert [tag for tag, *_ in instances] == ["amalgam", "hnn"]
        for tag, family, g, N in instances:
            assert N == 10
            report = orbit_distinct_check(family, g, N, check_suffix=tag)
            assert report.passed, report


def test_criterion_07_conjugacy_separation():
    with criterion(7, "conjugacy separation H0 vs H2, max_len 6", limit_s=60.0):
        part1, part2 = separation_parts(build_chain(2))
        report = cross_conjugacy_scan(part1, part2, max_len=6)
        assert report.status == "pass"
        assert report.witnesses == []


def test_criterion_08_membership_oracle():
    with criterion(8, "membership vs brute-force enumeration"):
        rng = random.Random(20240)
        alphabet = Alphabet.parse("x,y,z")
        disagreements = 0
        instances = 0
        while instances < 100:
            gens = [
                random_word(rng, alphabet, 4, nonempty=True)
                for _ in range(rng.randint(1, 3))
            ]
            instances += 1
            graph = fold_subgroup(gens, alphabet)
            # every product of at most 4 generator letters
            letters = []
            for g in gens:
                letters += [g, invert(g)]
            members = {alphabet.identity()}
            frontier = [alphabet.identity()]
            for _ in range(4):
                nxt = []
                for w in frontier:
                    for l in letters:
                        p = multiply(w, l)
                        if p not in members:
                            members.add(p)
                            nxt.append(p)
                frontier = nxt
            for w in members:
                if not graph.contains(w):
                    disagreements += 1
            probes = [random_word(rng, alphabet, 8) for _ in range(25)]
            for w in probes:
                if graph.contains(w):
                    if not verify_expression(graph, w):
                        disagreements += 1
                elif w in members:
                    disagreements += 1
        assert disagreements == 0


def _primitive_classes(alphabet, max_len):
    """Orbit closure of the generators under Whitehead moves, truncated at
    max_len: exactly the primitive conjugacy classes of that length."""
    autos = whitehead_generators(alphabet)
    seed = set()
    for code in range(2 * alphabet.rank):
        seed.add(cyclic_normal_form(Word(alphabet, (code,))).canonical.letters)
    found = set(seed)
    frontier = set(seed)
    while frontier:
        nxt = set()
        for key in frontier:
            w = Word(alphabet, key)
            for f in autos:
                image = cyclic_normal_form(f.apply(w)).canonical
                if 0 < len(image) <= max_len and image.letters not in found:
                    found.add(image.letters)
                    nxt.add(image.letters)
        frontier = nxt
    return found


def test_criterion_09_primitivity_oracle():
    with criterion(9, "primitivity vs orbit-closure brute force"):
        alphabet = Alphabet.parse("a0,b0")
        primitives = _primitive_classes(alphabet, 6)
        disagreements = 0
        for length in range(1, 7):
            for w in all_reduced_words(alphabet, length):
                oracle = cyclic_normal_form(w).canonical.letters in primitives
                if is_primitive(w) != oracle:
                    disagreements += 1
        assert disagreements == 0
        assert not is_primitive(alphabet.word("a0 b0 a0^-1 b0^-1"))


def test_criterion_10_double_coset_oracle():
    with criterion(10, "double cosets vs bounded search"):
        rng = random.Random(30103)
        alphabet = Alphabet.parse("x,y,z")
        checked = 0
        while checked < 100:
            u = random_word(rng, alphabet, 3, nonempty=True)
            v = random_word(rng, alphabet, 3, nonempty=True)
            z_mid = random_word(rng, alphabet, 8)
            z = random_word(rng, alphabet, 8)
            checked += 1
            accepted = double_coset_member(u, z_mid, v, z)
            witness_found = double_coset_member_bounded(u, z_mid, v, z, 6)
            if witness_found:
                assert accepted  # no false negatives against found witnesses
            if not accepted:
                assert not witness_found
            # constructed member: ground-truth positive
            a_exp, b_exp = rng.randint(-6, 6), rng.randint(-6, 6)
            member = multiply(multiply(u**a_exp, z_mid), v**b_exp)
            assert double_coset_member(u, z_mid, v, member)
        # the collapsing family: u^a z v^b = r^(a-b) z, solvable only at a-b=5
        rs = Alphabet.parse("r,s")
        u, z_mid = rs.word("r"), rs.word("s")
        v = rs.word("s^-1 r^-1 s")
        z = rs.word("r^5 s")
        # witnesses satisfy a - b = 5, so a bound of 2 cannot reach one while
        # the spec's bound of 6 admits the direct a = 5 witness
        assert not double_coset_member_bounded(u, z_mid, v, z, 2)
        assert double_coset_member_bounded(u, z_mid, v, z, 6)
        assert double_coset_member(u, z_mid, v, z)
        beyond = rs.word("r^20 s")
        assert not double_coset_member_bounded(u, z_mid, v, beyond, 6)
        assert double_coset_member(u, z_mid, v, beyond)


def _random_conjugate(rng, alphabet, w):
    return conjugate(w, random_word(rng, alphabet, 4))


def test_criterion_11_equivalence_laws():
    with criterion(11, "equivalence-relation laws, 1000 instances each"):
        rng = random.Random(40405)
        alphabet = Alphabet.parse("x,y,z")

        for _ in range(1000):
            x = random_word(rng, alphabet, 6)
            y = _random_conjugate(rng, alphabet, x) if rng.random() < 0.5 else random_word(rng, alphabet, 6)
            z = _random_conjugate(rng, alphabet, y) if rng.random() < 0.5 else random_word(rng, alphabet, 6)
            assert e0(x, x)
            assert e0(x, y) == e0(y, x)
            if e0(x, y) and e0(y, z):
                assert e0(x, z)

        for relation in (e1, e2):
            for _ in range(1000):
                m = rng.randint(1, 3)
                x = random_word(rng, alphabet, 4, nonempty=True)
                r = root(x)[0]
                y = random_word(rng, alphabet, 4)

                def related(base_x, base_y):
                    nx = base_x ** rng.choice([-2, -1, 1, 2])
                    step = root(nx)[0] ** (m * rng.randint(-2, 2))
                    ny = multiply(base_y, step) if relation is e1 else multiply(step, base_y)
                    return nx, ny

                if rng.random() < 0.7:
                    x2, y2 = related(x, y)
                else:
                    x2 = random_word(rng, alphabet, 4, nonempty=True)
                    y2 = random_word(rng, alphabet, 4)
                x3, y3 = related(x2, y2)
                assert relation(m, x, y, x, y)
                assert relation(m, x, y, x2, y2) == relation(m, x2, y2, x, y)
                if relation(m, x, y, x2, y2) and relation(m, x2, y2, x3, y3):
                    assert relation(m, x, y, x3, y3)

        for _ in range(1000):
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            x = random_word(rng, alphabet, 3, nonempty=True)
            y = random_word(rng, alphabet, 3, nonempty=True)
            z = random_word(rng, alphabet, 4)
            rx, ry = root(x)[0], root(y)[0]

            def related3(bx, by, bz):
                nx = bx ** rng.choice([-1, 1, 2])
                ny = by ** rng.choice([-1, 1, 2])
                nz = multiply(
                    multiply(rx ** (p * rng.randint(-1, 1)), bz),
                    ry ** (q * rng.randint(-1, 1)),
                )
                return nx, ny, nz

            if rng.random() < 0.7:
                x2, y2, z2 = related3(x, y, z)
            else:
                x2 = random_word(rng, alphabet, 3, nonempty=True)
                y2 = random_word(rng, alphabet, 3, nonempty=True)
                z2 = random_word(rng, alphabet, 4)
            x3, y3, z3 = related3(x2, y2, z2)
            assert e3(p, q, x, y, z, x, y, z)
            assert e3(p, q, x, y, z, x2, y2, z2) == e3(p, q, x2, y2, z2, x, y, z)
            if e3(p, q, x, y, z, x2, y2, z2) and e3(p, q, x2, y2, z2, x3, y3, z3):
                assert e3(p, q, x, y, z, x3, y3, z3)
