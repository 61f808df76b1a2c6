import random
from math import gcd

import pytest

from freefold.abelian import exponent_vector
from freefold.whitehead import (
    Automorphism,
    BudgetExhausted,
    extends_to_basis,
    is_primitive,
    minimize_tuple,
    whitehead_generators,
)
from freefold.words import (
    Alphabet,
    DegenerateInput,
    conjugate,
    invert,
    multiply,
)
from helpers import random_word

AB = Alphabet.parse("a0,b0")
ABC = Alphabet.parse("a0,b0,c0")


def split_by_type(autos):
    type_one = [f for f in autos if all(len(w) == 1 for w in f.images)]
    type_two = [f for f in autos if any(len(w) > 1 for w in f.images)]
    return type_one, type_two


def test_generator_counts_rank_two():
    ones, twos = split_by_type(whitehead_generators(AB))
    assert len(twos) == 12
    assert len(ones) == 8


def test_generator_counts_rank_one():
    ones, twos = split_by_type(whitehead_generators(Alphabet.parse("a0")))
    assert twos == []
    assert len(ones) == 2


def test_recorded_inverses_hold():
    for f in whitehead_generators(ABC):
        inv = f.inverse()
        for x in ABC.generators():
            assert inv.apply(f.apply(x)) == x
            assert f.apply(inv.apply(x)) == x


def test_apply_examples():
    f = Automorphism.from_images(
        AB,
        [AB.word("a0 b0"), AB.word("b0")],
        [AB.word("a0 b0^-1"), AB.word("b0")],
    )
    assert f.apply(AB.word("a0")) == AB.word("a0 b0")
    ident = Automorphism.identity(AB)
    rng = random.Random(3)
    for _ in range(50):
        w = random_word(rng, AB, 8)
        assert ident.apply(w) == w
        assert f.inverse().apply(f.apply(w)) == w


def test_apply_is_homomorphic():
    rng = random.Random(5)
    autos = whitehead_generators(AB)
    for _ in range(100):
        f = rng.choice(autos)
        u, v = random_word(rng, AB, 6), random_word(rng, AB, 6)
        assert f.apply(multiply(u, v)) == multiply(f.apply(u), f.apply(v))
        assert f.apply(invert(u)) == invert(f.apply(u))


def test_from_images_rejects_wrong_inverse():
    with pytest.raises(ValueError):
        Automorphism.from_images(
            AB,
            [AB.word("a0 b0"), AB.word("b0")],
            [AB.word("a0"), AB.word("b0")],
        )


# -- minimization ------------------------------------------------------------


def test_minimize_conjugate_of_generator():
    minimal, _ = minimize_tuple([AB.word("a0 b0 a0^-1")])
    assert [str(w) for w in minimal] == ["b0"]


def test_minimize_commutator_is_stuck():
    minimal, moves = minimize_tuple([AB.word("a0 b0 a0^-1 b0^-1")])
    assert sum(len(w) for w in minimal) == 4
    assert moves == []


def test_minimize_descends():
    minimal, moves = minimize_tuple([AB.word("a0 a0 b0")])
    assert sum(len(w) for w in minimal) == 1
    assert len(moves) == 2


def test_minimize_never_increases():
    rng = random.Random(7)
    for _ in range(50):
        t = [random_word(rng, AB, 5, nonempty=True) for _ in range(rng.randint(1, 2))]
        minimal, _ = minimize_tuple(t)
        assert sum(len(w) for w in minimal) <= sum(len(w) for w in t)


def test_minimize_empty_tuple_rejected():
    with pytest.raises(DegenerateInput):
        minimize_tuple([])


# -- primitivity -------------------------------------------------------------


def test_is_primitive_examples():
    assert is_primitive(AB.word("a0"))
    assert not is_primitive(AB.word("a0 b0 a0^-1 b0^-1"))
    assert is_primitive(AB.word("a0 a0 b0"))


def test_is_primitive_needs_nontrivial_word():
    with pytest.raises(DegenerateInput):
        is_primitive(AB.identity())


def test_primitive_implies_unit_content():
    rng = random.Random(11)
    for _ in range(150):
        w = random_word(rng, AB, 6, nonempty=True)
        if is_primitive(w):
            g = 0
            for x in exponent_vector(w):
                g = gcd(g, x)
            assert g == 1


def test_is_primitive_invariances():
    rng = random.Random(13)
    autos = whitehead_generators(AB)
    for _ in range(60):
        w = random_word(rng, AB, 5, nonempty=True)
        value = is_primitive(w)
        g = random_word(rng, AB, 4)
        assert is_primitive(conjugate(w, g)) == value
        assert is_primitive(invert(w)) == value
        assert is_primitive(rng.choice(autos).apply(w)) == value


# -- basis extension ---------------------------------------------------------


def test_extends_to_basis_examples():
    assert extends_to_basis([AB.word("a0"), AB.word("b0")])
    assert not extends_to_basis([AB.word("a0^2")])
    d0 = ABC.word("c0^-1 b0 a0 b0^-1 a0^-1")
    assert not extends_to_basis([ABC.word("c0"), d0])


def test_extends_to_basis_single_word_matches_primitivity():
    rng = random.Random(17)
    for _ in range(60):
        w = random_word(rng, AB, 5, nonempty=True)
        assert extends_to_basis([w]) == is_primitive(w)


def test_extends_to_basis_true_for_automorphic_images():
    rng = random.Random(19)
    autos = whitehead_generators(ABC)
    gens = ABC.generators()
    for _ in range(30):
        k = rng.randint(1, 3)
        tup = gens[:k]
        for _ in range(3):
            f = rng.choice(autos)
            tup = [f.apply(w) for w in tup]
        assert extends_to_basis(tup)


def test_extends_to_basis_rejects_degenerate_input():
    with pytest.raises(DegenerateInput):
        extends_to_basis([])
    with pytest.raises(DegenerateInput):
        extends_to_basis([AB.word("a0"), AB.identity()])


def test_budget_exhaustion_is_reported():
    with pytest.raises(BudgetExhausted):
        minimize_tuple([AB.word("a0 b0 a0 b0^-1")], budget=0)
    with pytest.raises(BudgetExhausted):
        extends_to_basis([AB.word("a0 b0 a0 b0^-1 a0^-1 b0")], budget=3)
