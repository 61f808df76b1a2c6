import random
from itertools import permutations
from math import prod

import pytest

from freefold.abelian import exponent_vector, is_basis_extendable_abelian
from freefold.whitehead import extends_to_basis
from freefold.words import Alphabet, DegenerateInput, commutator, conjugate, multiply
from helpers import (
    bareiss_determinant,
    maximal_minor_gcd,
    naive_is_basis_extendable_abelian,
    random_word,
    whitehead_generators,
)

AB = Alphabet.parse("a0,b0")
ABC = Alphabet.parse("a0,b0,c0")


def test_exponent_vector_examples():
    assert exponent_vector(AB.word("a0 b0 a0")) == (2, 1)
    rng = random.Random(3)
    for _ in range(100):
        u, v = random_word(rng, AB, 6), random_word(rng, AB, 6)
        assert exponent_vector(commutator(u, v)) == (0, 0)
    d0 = ABC.word("c0^-1 b0 a0 b0^-1 a0^-1")
    assert exponent_vector(d0) == (0, 0, -1)


def test_exponent_vector_is_additive_and_conjugation_invariant():
    rng = random.Random(5)
    for _ in range(200):
        u, v, g = (random_word(rng, ABC, 7) for _ in range(3))
        eu, ev = exponent_vector(u), exponent_vector(v)
        assert exponent_vector(multiply(u, v)) == tuple(a + b for a, b in zip(eu, ev))
        assert exponent_vector(conjugate(u, g)) == eu


def test_non_integer_entries_are_rejected_not_truncated():
    for rows in ([[2.5, 0], [0, 1]], [[1.9, 0]], [[1, "2"]], [[1, 2], [3, None]]):
        with pytest.raises(ValueError):
            is_basis_extendable_abelian(rows)


def unimodular_scramble(rng, m):
    m = [row[:] for row in m]
    nr, nc = len(m), len(m[0])
    for _ in range(12):
        op = rng.randrange(4)
        if op == 0:
            i, j = rng.sample(range(nr), 2) if nr > 1 else (0, 0)
            k = rng.randint(-3, 3)
            if i != j:
                for c in range(nc):
                    m[i][c] += k * m[j][c]
        elif op == 1:
            i, j = rng.sample(range(nc), 2) if nc > 1 else (0, 0)
            k = rng.randint(-3, 3)
            if i != j:
                for r in range(nr):
                    m[r][i] += k * m[r][j]
        elif op == 2:
            i, j = rng.sample(range(nr), 2) if nr > 1 else (0, 0)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(nr)
            m[i] = [-x for x in m[i]]
    return m


def test_unimodular_operations_keep_extendability():
    # row and column unimodular operations keep the gcd of the maximal
    # minors, which decides extendability
    rng = random.Random(7)
    answers = set()
    for _ in range(120):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        expected = is_basis_extendable_abelian(m)
        scrambled = unimodular_scramble(rng, m)
        assert maximal_minor_gcd(scrambled) == maximal_minor_gcd(m)
        assert is_basis_extendable_abelian(scrambled) == expected
        answers.add(expected)
    assert answers == {True, False}


def test_maximal_minor_gcd_is_the_product_of_elementary_divisors():
    # the oracle itself: d_1 ... d_k, from known Smith normal forms
    assert maximal_minor_gcd([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == 2 * 2 * 156
    assert maximal_minor_gcd([[2, 0], [0, 1]]) == 2
    assert maximal_minor_gcd([[1, 0, 0], [-1, 0, 0]]) == 0
    assert maximal_minor_gcd([[1, 0, 0], [0, 2, 3]]) == 1
    assert maximal_minor_gcd([[6]]) == 6
    # Bareiss against the Leibniz expansion, zero pivots included
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        leibniz = sum(
            (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            * prod(m[i][p[i]] for i in range(n))
            for p in permutations(range(n))
        )
        assert bareiss_determinant(m) == leibniz, m


def test_is_basis_extendable_abelian_examples():
    assert is_basis_extendable_abelian([(1, 0, 0), (0, 1, 0)])
    assert not is_basis_extendable_abelian([(1, 0, 0), (-1, 0, 0)])
    assert not is_basis_extendable_abelian([(2, 0)])


def test_extendable_rejects_empty():
    with pytest.raises(DegenerateInput):
        is_basis_extendable_abelian([])


def test_extendable_rejects_empty_rows_and_ragged_matrices():
    with pytest.raises(DegenerateInput):
        is_basis_extendable_abelian([[]])
    with pytest.raises(ValueError):
        is_basis_extendable_abelian([[1, 0], [0]])


def _unimodular_rows(rng, n):
    """Rows of a random unimodular matrix with entries of a few hundred
    bits: 4n row additions with multipliers up to 10^6, then a shuffle."""
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        j += j >= i
        m = rng.randint(1, 10**6) * rng.choice((1, -1))
        matrix[i] = [x + m * y for x, y in zip(matrix[i], matrix[j])]
    rng.shuffle(matrix)
    return matrix


def test_column_reduction_matches_maximal_minor_oracle():
    rng = random.Random(13)
    for q in range(5200):
        n = rng.randint(1, 6)
        if q % 4 == 3 and n > 1:
            rows = [list(r) for r in _unimodular_rows(rng, n)[: rng.randint(1, n)]]
            if q % 8 == 7:
                j, d = rng.randrange(len(rows)), rng.randint(2, 9)
                rows[j] = [d * x for x in rows[j]]
        else:
            k = rng.randint(1, n + 1)
            bound = rng.choice((1, 2, 5, 40))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            if q % 5 == 1:
                rows[rng.randrange(k)] = [0] * n
            elif q % 5 == 2 and k > 1:
                rows[rng.randrange(k)] = list(rows[rng.randrange(k)])
        assert is_basis_extendable_abelian(rows) == naive_is_basis_extendable_abelian(rows), rows
    # decided at the last row: the rows above it belong to a unimodular
    # matrix, so each passes its gcd test; the last row is kept (True) or
    # scaled by d >= 2 (False), with k = n and k < n
    for q in range(800):
        n = rng.randint(2, 6)
        k = n if q % 2 else rng.randint(1, n - 1)
        rows = [list(r) for r in _unimodular_rows(rng, n)[:k]]
        extendable = q % 4 < 2
        if not extendable:
            d = rng.randint(2, 9)
            rows[-1] = [d * x for x in rows[-1]]
        assert naive_is_basis_extendable_abelian(rows) == extendable, rows
        assert is_basis_extendable_abelian(rows) == extendable, rows


def test_unimodular_rows_extend_and_scaled_rows_do_not():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 6)
        rows = _unimodular_rows(rng, n)[: rng.randint(1, n)]
        assert is_basis_extendable_abelian(rows)
        j, d = rng.randrange(len(rows)), rng.randint(2, 9)
        rows[j] = [d * x for x in rows[j]]
        assert not is_basis_extendable_abelian(rows)


def test_whitehead_extension_implies_abelian_extension():
    rng = random.Random(11)
    autos = whitehead_generators(ABC)
    gens = ABC.generators()
    for _ in range(40):
        k = rng.randint(1, 3)
        tup = gens[:k]
        for _ in range(rng.randint(0, 3)):
            f = rng.choice(autos)
            tup = [f.apply(w) for w in tup]
        if extends_to_basis(tup):
            assert is_basis_extendable_abelian([exponent_vector(w) for w in tup])
