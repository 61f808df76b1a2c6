import random

import pytest
from hypothesis import given, strategies as st

from freefold.words import (
    Alphabet,
    AlphabetMismatch,
    DegenerateInput,
    Word,
    WordSyntaxError,
    _join_all,
    _least_rotation,
    centralizer_equal,
    commutator,
    conjugate,
    cyclic_canonical,
    cyclic_normal_form,
    format_word,
    invert,
    is_conjugate,
    multiply,
    parse_word,
    root,
)
from helpers import naive_least_rotation, naive_root, random_word, restrict_word

AB = Alphabet.parse("a0,b0")
BIG = Alphabet.parse("c0,a0,b0,t0")


def codes_words(alphabet, max_size=12):
    return st.lists(
        st.integers(0, 2 * alphabet.rank - 1), max_size=max_size
    ).map(lambda cs: Word(alphabet, cs))


# -- reduce -----------------------------------------------------------------


def test_reduce_nested_cancellation():
    assert BIG.word("t0 c0 c0^-1 t0^-1 a0") == BIG.word("a0")


def test_reduce_out_of_range_index():
    # a letter is an int code in [0, 2 * rank): Word refuses any other,
    # also one that a neighbouring code would cancel
    for codes in ([4], [-1], [7], [0, 4, 5], [-2, -1]):
        with pytest.raises(AlphabetMismatch):
            Word(AB, codes)
    assert Word(AB, [0, 3, 2]) == AB.word("a0")


@given(codes_words(Alphabet.parse("x,y,z")))
def test_reduce_idempotent(w):
    assert Word(w.alphabet, w.letters) == w
    assert all(w.letters[i + 1] != w.letters[i] ^ 1 for i in range(len(w) - 1))


# -- multiply / invert ------------------------------------------------------


def test_multiply_examples():
    assert multiply(AB.word("a0 b0"), AB.word("b0^-1")) == AB.word("a0")
    assert multiply(AB.word("a0"), AB.identity()) == AB.word("a0")
    assert multiply(AB.word("a0 b0"), AB.word("a0 b0")) == AB.word("a0 b0 a0 b0")


def test_multiply_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        multiply(AB.word("a0"), BIG.word("a0"))


def test_multiply_associative_with_identity():
    rng = random.Random(7)
    al = Alphabet.parse("x,y,z")
    e = al.identity()
    for _ in range(1000):
        u, v, w = (random_word(rng, al, 8) for _ in range(3))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        assert multiply(u, e) == u == multiply(e, u)


def test_invert_examples():
    assert invert(AB.word("a0 b0")) == AB.word("b0^-1 a0^-1")
    assert invert(AB.identity()) == AB.identity()
    assert invert(AB.word("a0^-1")) == AB.word("a0")


@given(codes_words(AB))
def test_invert_cancels(w):
    assert not multiply(w, invert(w))
    assert not multiply(invert(w), w)


def _inv(codes):
    return tuple(c ^ 1 for c in reversed(codes))


def _kernel_operands(rng, al):
    """Pairs with long junction cancellation, full cancellation and empty words."""
    e = al.identity()
    pairs = [(e, e)]
    for _ in range(800):
        u = random_word(rng, al, 10)
        # v starts by undoing a random suffix of u, so the product cancels
        # across the junction, possibly through all of u
        cut = rng.randint(0, len(u))
        v = Word(al, _inv(u.letters[cut:]) + random_word(rng, al, 6).letters)
        pairs += [(u, v), (v, u), (u, invert(u)), (u, e), (e, u), (u, u)]
    return pairs


def test_kernel_matches_reducing_constructor():
    # every operation that skips the reduction pass must give the letters
    # that the reducing constructor gives on the raw concatenation
    rng = random.Random(37)
    for al in (AB, Alphabet.parse("x,y,z")):
        for u, v in _kernel_operands(rng, al):
            x, y = u.letters, v.letters
            assert multiply(u, v).letters == Word(al, x + y).letters
            assert invert(u).letters == Word(al, _inv(x)).letters
            assert conjugate(u, v).letters == Word(al, _inv(y) + x + y).letters
            assert commutator(u, v).letters == Word(
                al, x + y + _inv(x) + _inv(y)).letters
            for k in range(-4, 5):
                raw = x * k if k >= 0 else _inv(x) * -k
                assert (u ** k).letters == Word(al, raw).letters
            pieces = (x, y, _inv(y), _inv(x), y, y, x, _inv(x), _inv(y))
            for k in range(len(pieces) + 1):
                raw = [c for p in pieces[:k] for c in p]
                assert _join_all(pieces[:k]) == Word(al, raw).letters
            cw = cyclic_normal_form(u)
            assert cw.canonical.letters == Word(al, cw.canonical.letters).letters
            assert cw.conjugator.letters == Word(al, cw.conjugator.letters).letters
            assert cyclic_canonical(u) == cw.canonical


def test_least_rotation_matches_naive_oracle():
    rng = random.Random(43)
    cases = [(), (5,), (0, 0), (1, 0)]
    for _ in range(1500):
        cases.append(tuple(rng.randrange(4) for _ in range(rng.randint(1, 30))))
        period = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
        cases.append(period * rng.randint(2, 8))
        cases.append((rng.randrange(6),) * rng.randint(1, 12))
    for _ in range(3):
        cases.append(tuple(rng.randrange(6) for _ in range(2000)))
        cases.append(tuple(rng.randrange(2) for _ in range(8)) * 250)
        cases.append((rng.randrange(6),) * 2000)
    for codes in cases:
        assert _least_rotation(codes) == naive_least_rotation(codes), codes


def test_equal_alphabets_need_not_be_the_same_object():
    other = Alphabet.parse("a0,b0")
    assert other is not AB and other == AB
    assert multiply(AB.word("a0"), other.word("a0^-1 b0")) == AB.word("b0")
    assert is_conjugate(AB.word("a0 b0"), other.word("b0 a0"))


# -- conjugate / commutator -------------------------------------------------


def test_conjugate_examples():
    assert conjugate(AB.word("b0"), AB.word("a0")) == AB.word("a0^-1 b0 a0")
    assert conjugate(AB.word("a0"), AB.word("a0^5")) == AB.word("a0")
    assert conjugate(AB.identity(), AB.word("a0 b0")) == AB.identity()


def test_conjugate_length_bound():
    rng = random.Random(11)
    for _ in range(300):
        x, g = random_word(rng, AB, 8), random_word(rng, AB, 8)
        assert len(conjugate(x, g)) <= len(x) + 2 * len(g)


def test_commutator_examples():
    assert commutator(AB.word("a0"), AB.word("b0")) == AB.word("a0 b0 a0^-1 b0^-1")
    assert not commutator(AB.word("a0"), AB.word("a0^3"))


def test_commutator_surface_relation():
    # c * (c^-1 [a,b]^-1) * [a,b] must vanish: the d-word kills the relator
    al = Alphabet.parse("a0,b0,c0")
    c = al.word("c0")
    d = multiply(invert(c), invert(commutator(al.word("a0"), al.word("b0"))))
    assert not multiply(multiply(c, d), commutator(al.word("a0"), al.word("b0")))


def test_commutator_inverse_swaps_arguments():
    rng = random.Random(13)
    for _ in range(200):
        x, y = random_word(rng, AB, 6), random_word(rng, AB, 6)
        assert invert(commutator(x, y)) == commutator(y, x)


# -- cyclic normal form / conjugacy ----------------------------------------


def test_cyclic_normal_form_examples():
    cw = cyclic_normal_form(AB.word("a0 b0 a0^-1"))
    assert cw.canonical == AB.word("b0")
    assert conjugate(AB.word("a0 b0 a0^-1"), cw.conjugator) == cw.canonical
    assert cyclic_normal_form(AB.word("b0 a0")).canonical == AB.word("a0 b0")
    assert cyclic_normal_form(AB.identity()).canonical == AB.identity()


def test_cyclic_normal_form_properties():
    rng = random.Random(17)
    for _ in range(400):
        w = random_word(rng, AB, 10)
        cw = cyclic_normal_form(w)
        assert cw.canonical.is_cyclically_reduced()
        assert conjugate(w, cw.conjugator) == cw.canonical
        ls = cw.canonical.letters
        for i in range(1, len(ls)):
            assert ls <= ls[i:] + ls[:i]


def test_is_conjugate_examples():
    assert is_conjugate(AB.word("a0 b0"), AB.word("b0 a0"))
    assert not is_conjugate(AB.word("a0"), AB.word("b0"))
    assert not is_conjugate(AB.word("a0"), AB.word("a0^-1"))


def test_is_conjugate_is_equivalence_and_stable():
    rng = random.Random(19)
    for _ in range(300):
        x = random_word(rng, AB, 7)
        y = random_word(rng, AB, 7)
        z = random_word(rng, AB, 7)
        g = random_word(rng, AB, 5)
        assert is_conjugate(x, x)
        assert is_conjugate(x, y) == is_conjugate(y, x)
        if is_conjugate(x, y) and is_conjugate(y, z):
            assert is_conjugate(x, z)
        assert is_conjugate(x, conjugate(x, g))


# -- root / centralizer -----------------------------------------------------


def test_root_examples():
    assert root(AB.word("a0 b0 a0 b0 a0 b0")) == (AB.word("a0 b0"), 3)
    assert root(AB.word("a0")) == (AB.word("a0"), 1)
    assert root(AB.word("a0 b0 b0 a0^-1")) == (AB.word("a0 b0 a0^-1"), 2)


def test_root_of_empty_word_rejected():
    with pytest.raises(DegenerateInput):
        root(AB.identity())


def test_root_properties():
    rng = random.Random(23)
    for _ in range(300):
        w = random_word(rng, AB, 6, nonempty=True)
        k = rng.randint(1, 4)
        g = random_word(rng, AB, 3)
        power = conjugate(w**k, g)
        r, m = root(power)
        assert r**m == power
        assert root(r) == (r, 1)
        assert m % k == 0


def test_root_matches_period_by_period_oracle():
    rng = random.Random(41)
    al = Alphabet.parse("a0,b0,c0")
    periodic = aperiodic = 0
    for _ in range(3000):
        u = random_word(rng, al, 6, nonempty=True)
        if rng.random() < 0.3:  # a proper power as the base
            u = u ** rng.randint(2, 3)
        w = conjugate(u ** rng.randint(1, 5), random_word(rng, al, 4))
        # the oracle reduces its root through Word, so equal letters also
        # show that root built a reduced word
        r, k = root(w)
        assert (r, k) == naive_root(w)
        if k > 1:
            periodic += 1
        else:
            aperiodic += 1
    assert periodic > 1000 and aperiodic > 300


def test_pow_matches_repeated_multiplication():
    rng = random.Random(31)
    for _ in range(300):
        w = random_word(rng, AB, 7)
        for k in range(-4, 5):
            expected = AB.identity()
            for _ in range(abs(k)):
                expected = multiply(expected, w if k > 0 else invert(w))
            assert w**k == expected
    assert str(AB.word("a0 b0 a0^-1") ** 3) == "a0 b0^3 a0^-1"
    assert len(AB.word("a0 b0") ** 5000) == 10000


def test_centralizer_equal_examples():
    assert centralizer_equal(AB.word("a0"), AB.word("a0^3"))
    assert centralizer_equal(AB.word("a0"), AB.word("a0^-2"))
    assert not centralizer_equal(AB.word("a0 b0"), AB.word("b0 a0"))


def test_centralizer_equal_equivalence():
    rng = random.Random(29)
    for _ in range(300):
        base = [random_word(rng, AB, 5, nonempty=True) for _ in range(3)]
        x, y, z = base
        if rng.random() < 0.5:
            y = x ** rng.choice([-2, -1, 1, 2, 3])
        if rng.random() < 0.5:
            z = y ** rng.choice([-2, -1, 1, 2])
        if not y or not z:
            continue
        assert centralizer_equal(x, x)
        assert centralizer_equal(x, y) == centralizer_equal(y, x)
        if centralizer_equal(x, y) and centralizer_equal(y, z):
            assert centralizer_equal(x, z)


def test_centralizer_equal_rejects_trivial():
    with pytest.raises(DegenerateInput):
        centralizer_equal(AB.identity(), AB.word("a0"))


# -- text grammar -----------------------------------------------------------


def test_parse_format_roundtrip():
    rng = random.Random(31)
    for _ in range(300):
        w = random_word(rng, BIG, 10)
        assert parse_word(format_word(w), BIG) == w


def test_parse_identity_literal():
    assert parse_word("1", AB) == AB.identity()


def test_parse_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a0 B0", AB)
    assert err.value.position == 2
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a0 b0^0", AB)
    assert err.value.position == 2
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a0 1", AB)
    assert err.value.position == 2
    with pytest.raises(WordSyntaxError):
        parse_word("zz", AB)


def test_parse_exponent_past_an_index_is_a_syntax_error():
    for text in ("a0^99999999999999999999", "b0 a0^-99999999999999999999"):
        with pytest.raises(WordSyntaxError, match="exponent too large"):
            parse_word(text, AB)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet(["A"])
    assert Alphabet.parse("a, b").names == ("a", "b")


def test_restrict_word():
    sub = Alphabet.parse("c0,a0,b0")
    w = BIG.word("c0 a0 b0^-1")
    assert restrict_word(w, sub) == sub.word("c0 a0 b0^-1")
    with pytest.raises(AlphabetMismatch):
        restrict_word(BIG.word("t0"), sub)
