import random

import pytest

from freefold.abelian import (
    exponent_vector,
    is_basis_extendable_abelian,
    smith_normal_form,
)
from freefold.whitehead import extends_to_basis, whitehead_generators
from freefold.words import Alphabet, DegenerateInput, commutator, conjugate, multiply
from helpers import random_word

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


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 1]]) == [1, 2]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[1, 0, 0], [-1, 0, 0]]) == [1, 0]


def test_smith_normal_form_known_values():
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[6]]) == [6]


def test_smith_normal_form_rejects_bad_shapes():
    with pytest.raises(DegenerateInput):
        smith_normal_form([])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_non_integer_entries_are_rejected_not_truncated():
    for rows in ([[2.5, 0], [0, 1]], [[1.9, 0]], [[1, "2"]], [[1, 2], [3, None]]):
        with pytest.raises(ValueError):
            smith_normal_form(rows)
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


def test_smith_normal_form_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(120):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        expected = smith_normal_form(m)
        assert smith_normal_form(unimodular_scramble(rng, m)) == expected


def test_divisor_chain_and_sign():
    rng = random.Random(9)
    for _ in range(100):
        m = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]]
        m = [m[0][:] for _ in range(rng.randint(1, 4))]
        for row in m[1:]:
            for i in range(len(row)):
                row[i] = rng.randint(-9, 9)
        ds = smith_normal_form(m)
        assert all(d >= 0 for d in ds)
        nonzero = [d for d in ds if d]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert ds == nonzero + [0] * (len(ds) - len(nonzero))


def test_is_basis_extendable_abelian_examples():
    assert is_basis_extendable_abelian([(1, 0, 0), (0, 1, 0)])
    assert not is_basis_extendable_abelian([(1, 0, 0), (-1, 0, 0)])
    assert not is_basis_extendable_abelian([(2, 0)])


def test_extendable_rejects_empty():
    with pytest.raises(DegenerateInput):
        is_basis_extendable_abelian([])


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
