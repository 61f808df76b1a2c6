import random
from itertools import product
from math import gcd

import pytest

from freefold.abelian import exponent_vector
from freefold.whitehead import (
    Automorphism,
    BudgetExhausted,
    _block,
    _descend,
    _move,
    _scan,
    extends_to_basis,
    is_primitive,
    minimize_tuple,
)
from freefold.words import (
    Alphabet,
    AlphabetMismatch,
    DegenerateInput,
    Word,
    commutator,
    conjugate,
    cyclic_canonical,
    invert,
    multiply,
)
from helpers import (
    naive_extends_to_basis,
    naive_minimize_tuple,
    naive_type_two,
    random_word,
    whitehead_generators,
)

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


def test_type_two_moves_match_oracle_enumeration():
    for rank in (1, 2, 3, 4):
        al = Alphabet([f"x{g}" for g in range(rank)])
        count = 2 * rank * (4 ** (rank - 1) - 1)
        autos = whitehead_generators(al)
        ones, twos = autos[: len(autos) - count], autos[len(autos) - count:]
        assert all(len(w) == 1 for f in ones for w in f.images)
        want = naive_type_two(al)
        assert len(want) == count
        for f, g in zip(twos, want, strict=True):
            assert f.images == g.images
            assert f.inverse_images == g.inverse_images


def test_type_two_tables_match_oracle_images():
    # a tuple that uses every generator and a total no image reaches: every move is
    # scored and yielded; the yielded table is mutated by the next step, so
    # each is copied as it comes
    for rank in (1, 2, 3, 4, 5):
        al = Alphabet([f"x{g}" for g in range(rank)])
        entries = [tuple(2 * g for g in range(rank))]
        hits = [(examined, tuple(subst))
                for examined, _, _, subst in _scan(al, entries, 10**9, 0, 10**9, "")]
        want = naive_type_two(al)
        assert len(hits) == len(want) == 2 * rank * (4 ** (rank - 1) - 1)
        assert [examined for examined, _ in hits] == list(range(1, len(want) + 1))
        for (_, subst), f in zip(hits, want):
            for g, img in enumerate(f.images):
                assert subst[2 * g] == img.letters
                assert subst[2 * g + 1] == invert(img).letters


def _choices(rank):
    """(m, choices) of each type-II move, in ``naive_type_two`` order."""
    return [(m, choice) for m in range(2 * rank)
            for choice in product(range(4), repeat=rank - 1) if any(choice)]


def test_plan_and_moves_match_oracle_images():
    for rank in (1, 2, 3, 4, 5):
        al = Alphabet([f"x{g}" for g in range(rank)])
        for m in range(2 * rank):
            others, codes, pairs = _block(rank, m)
            assert others == tuple(g for g in range(rank) if g != m >> 1)
            assert codes == tuple(2 * g for g in others)
            assert [p[0] for p in pairs] == [((x,), (x ^ 1,)) for x in codes]
        for (m, choice), f in zip(_choices(rank), naive_type_two(al), strict=True):
            others, _, pairs = _block(rank, m)
            for i, (g, ch) in enumerate(zip(others, choice)):
                assert pairs[i][ch] == (f.images[g].letters, invert(f.images[g]).letters)
            got = _move(al, m, choice)
            assert got.images == f.images
            assert got.inverse_images == f.inverse_images


def test_scan_skips_only_moves_that_repeat_the_images_before():
    # entries that leave out some generators, also in the interior: below a
    # total no image reaches, the moves yielded are exactly those whose first
    # rewritten slot i (the last nonzero choice) holds a generator some entry contains;
    # every other move maps the entries as the block's earlier move with
    # slots i onward at keep does, or as the identity, and is still counted
    for rank in (2, 3, 4, 5):
        al = Alphabet([f"x{g}" for g in range(rank)])
        moves = naive_type_two(al)
        choices = _choices(rank)
        index = {key: j for j, key in enumerate(choices)}
        subsets = [range(k) for k in range(1, rank)] + [range(1, rank)]
        subsets += [(0, 2), (1,)] * (rank > 2) + [(0, 2, 4), (1, 3), (0, 3)] * (rank > 4)
        for gens in subsets:
            t = [Word(al, [2 * g for g in gens]), Word(al, (2 * gens[-1] + 1,))]
            entries = [w.letters for w in t]
            hits = {examined: tuple(subst)
                    for examined, _, _, subst in _scan(al, entries, 10**9, 0, 10**9, "")}
            want = set()
            for j, ((m, choice), f) in enumerate(zip(choices, moves)):
                others = [g for g in range(rank) if g != m >> 1]
                i = max(k for k, ch in enumerate(choice) if ch)
                images = [f.apply(w).letters for w in t]
                if others[i] in gens:
                    want.add(j + 1)
                    table = hits[j + 1]
                    assert images == [Word(al, [d for c in w for d in table[c]]).letters
                                      for w in entries]
                    continue
                earlier = choice[:i] + (0,) * (len(choice) - i)
                before = [moves[index[m, earlier]].apply(w) for w in t] if any(earlier) else t
                assert images == [w.letters for w in before], (gens, j)
            assert set(hits) == want, gens
            with pytest.raises(BudgetExhausted, match="^spent$"):
                for _ in _scan(al, entries, 0, 0, len(moves) - 1, "spent"):
                    pass
            assert list(_scan(al, entries, 0, 0, len(moves), "spent")) == []


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
    f = Automorphism(
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


def test_constructor_rejects_wrong_inverse():
    with pytest.raises(ValueError):
        Automorphism(
            AB,
            [AB.word("a0 b0"), AB.word("b0")],
            [AB.word("a0"), AB.word("b0")],
        )


def test_constructor_rejects_images_over_another_alphabet():
    xyz = Alphabet.parse("x,y,z")
    gens = AB.generators()
    # a letter beyond the alphabet's rank, and a map that would print a0->x
    # but return words over AB
    for images, inverse in (
        ([xyz.word("z"), AB.word("b0")], gens),
        (xyz.generators()[:2], gens),
        (gens, [AB.word("a0"), xyz.word("y")]),
    ):
        for trusted in (False, True):
            with pytest.raises(AlphabetMismatch):
                Automorphism(AB, images, inverse, _trusted=trusted)


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


def test_more_entries_than_the_rank_never_extend():
    # without the rank check both run the search: the first runs out of a
    # 10^5 budget, the second takes about a second to answer False
    x4 = Alphabet([f"x{g}" for g in range(4)])
    x3 = Alphabet([f"x{g}" for g in range(3)])
    for al, words in (
        (x4, ("x3 x1^-1 x0 x2", "x2 x0 x3", "x3^-1", "x0", "x0^-3 x1^-1")),
        (x3, ("x1^-1 x2^-1 x1^-1 x0^-1 x2^-1", "x1", "x1 x0^-1 x1 x2 x0",
              "x0^-1 x2 x1^-1")),
    ):
        t = [al.word(w) for w in words]
        assert extends_to_basis(t, budget=0) is False
        assert extends_to_basis(t) is False
    with pytest.raises(AlphabetMismatch):
        extends_to_basis([AB.word("a0"), AB.word("b0"), ABC.word("c0")])
    with pytest.raises(DegenerateInput):
        extends_to_basis([AB.word("a0"), AB.word("b0"), AB.identity()])


def test_budget_exhaustion_is_reported():
    with pytest.raises(BudgetExhausted):
        minimize_tuple([AB.word("a0 b0 a0 b0^-1")], budget=0)
    with pytest.raises(BudgetExhausted):
        extends_to_basis([AB.word("a0 b0 a0 b0^-1 a0^-1 b0")], budget=3)


# -- the length floor -----------------------------------------------------------


def _floor_tuples(al, rng):
    """Tuples whose entries are single letters or trivial: every pair, and
    a sample of triples."""
    entries = [al.identity()] + [Word(al, (c,)) for c in range(2 * al.rank)]
    tuples = [[u] for u in entries] + [[u, v] for u in entries for v in entries]
    tuples += [rng.choices(entries, k=3) for _ in range(100)]
    return tuples


def test_no_move_shortens_a_tuple_at_the_floor():
    rng = random.Random(31)
    for rank in (1, 2, 3, 4):
        al = Alphabet([f"x{g}" for g in range(rank)])
        moves = naive_type_two(al)
        for t in _floor_tuples(al, rng):
            floor = sum(1 for w in t if w)
            for f in moves:
                images = [cyclic_canonical(f.apply(w)) for w in t]
                assert sum(len(w) for w in images) >= floor, (t, f)


def test_descent_at_the_floor_examines_nothing():
    rng = random.Random(37)
    for rank in (1, 2, 5):
        al = Alphabet([f"x{g}" for g in range(rank)])
        for t in _floor_tuples(al, rng):
            minimal, moves = minimize_tuple(t, budget=0)
            assert minimal == [cyclic_canonical(w) for w in t]
            assert moves == []
            assert _descent_key(naive_minimize_tuple(t, 0)) == _descent_key((minimal, moves))


def test_generators_are_primitive_at_budget_zero():
    for rank in (1, 3, 5):
        al = Alphabet([f"x{g}" for g in range(rank)])
        for x in al.generators():
            assert is_primitive(x, budget=0)
            assert is_primitive(invert(x), budget=0)


def test_basis_extension_at_the_floor_needs_no_budget():
    for rank in (2, 5):
        al = Alphabet([f"x{g}" for g in range(rank)])
        x0, x1 = al.generators()[:2]
        for t, want in (([x0, x0], False), ([x0, invert(x0)], False), ([x1, x0], True)):
            assert extends_to_basis(t, budget=0) is want
            assert naive_extends_to_basis(t, budget=0) is want


# -- scored descent against the apply-everything oracle -----------------------


def _nielsen_image(rng, rank, target, k=None):
    """Images of x0, x0^2 and [x0, x1] under random elementary Nielsen moves
    among the first k generators (all of them by default)."""
    al = Alphabet([f"x{g}" for g in range(rank)])
    images = al.generators()
    for _ in range(rng.randint(1, 8)):
        i, j = rng.sample(range(k or rank), 2)
        m = images[j] if rng.random() < 0.5 else invert(images[j])
        images[i] = multiply(images[i], m) if rng.random() < 0.5 else multiply(m, images[i])
    x0, x1 = images[0], images[1]
    return [[x0], [x0 ** 2], [commutator(x0, x1)]][target]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BudgetExhausted, DegenerateInput) as exc:
        return type(exc).__name__


def _message(fn, *args):
    """The answer of ``fn``, or the name and message of what it raised."""
    try:
        return fn(*args)
    except (BudgetExhausted, DegenerateInput) as exc:
        return type(exc).__name__, str(exc)


def _primitive(t, budget):
    return is_primitive(t[0], budget)


def _naive_primitive(t, budget):
    """Primitivity read off the apply-everything descent of the one entry."""
    minimal, _ = naive_minimize_tuple(t, budget)
    return len(minimal[0]) == 1


def _descent_key(result):
    if isinstance(result, str):
        return result
    minimal, moves = result
    return ([w.letters for w in minimal],
            [([w.letters for w in f.images], [w.letters for w in f.inverse_images])
             for f in moves])


def test_descent_matches_apply_everything_oracle():
    rng = random.Random(23)
    cases = []
    for _ in range(1100):
        # the oracle applies each of rank 5's 2,550 moves in full: keep it rare
        rank = rng.choice((1, 2, 3, 4) * 6 + (5,))
        al = Alphabet([f"x{g}" for g in range(rank)])
        cases.append([random_word(rng, al, 12) for _ in range(rng.randint(1, 3))])
    for trial in range(300):
        cases.append(_nielsen_image(rng, trial % 3 + 3, trial // 3 % 3))
    # tuples over x0..x(k-1) only and over k generators with gaps, whose
    # moves that first rewrite an absent generator the library counts
    # without scoring; the oracles score every move
    sparse = random.Random(41)
    for trial in range(160):
        rank = sparse.choice((3, 3, 4, 4, 5))
        al = Alphabet([f"x{g}" for g in range(rank)])
        k = sparse.randint(1, rank - 1)
        gens = range(k) if trial % 2 else sparse.sample(range(rank), k)
        codes = [2 * g + s for g in gens for s in (0, 1)]
        cases.append([Word(al, sparse.choices(codes, k=sparse.randint(0, 12)))
                      for _ in range(sparse.randint(1, 3))])
    for t in cases:
        budget = rng.choice((0, 1, 5, 50, 10**6))
        got = _outcome(minimize_tuple, t, budget)
        want = _outcome(naive_minimize_tuple, t, budget)
        assert _descent_key(got) == _descent_key(want), (t, budget)
        if len(t) == 1 and t[0]:
            # is_primitive runs its own descent, not minimize_tuple's
            assert _message(_primitive, t, budget) == _message(_naive_primitive, t, budget)
        # the oracle's sweep of a rank-5 level set can take more than 10^6
        # examined tuples
        budget = min(budget, 2_000)
        got = _outcome(extends_to_basis, t, budget)
        if len(t) > t[0].alphabet.rank and all(t):
            # more classes than generators: never a basis, answered unsearched
            assert got is False, (t, budget)
            continue
        want = _outcome(naive_extends_to_basis, t, budget)
        if want == "BudgetExhausted":
            descent = _outcome(naive_minimize_tuple, t, budget)
            if descent != "BudgetExhausted":
                # the oracle ran out sweeping a level above the floor, which
                # holds no tuple of distinct generators
                assert got is False, (t, budget)
                assert sum(len(w) for w in descent[0]) > len(t), (t, budget)
                continue
        assert got == want, (t, budget)


def test_basis_extension_ends_with_descent_above_the_floor():
    # descent ends above the floor of 2, so no tuple of distinct generators
    # lies in the orbit; a sweep of its level set runs past 10^6 examined tuples
    al = Alphabet([f"x{g}" for g in range(5)])
    t = [al.word("x1^-1 x3^-1 x2 x1^-1 x0^-2 x4^2"),
         al.word("x1 x4^2 x1^-1 x2 x0^-1 x3 x1 x0 x3^-1")]
    assert extends_to_basis(t) is False
    minimal, _ = naive_minimize_tuple(t)
    assert sum(len(w) for w in minimal) > len(t)


def _least_budget(fn, t):
    """The least budget at which ``fn(t, budget)`` does not run out."""
    hi = 1
    while _outcome(fn, t, hi) == "BudgetExhausted":
        hi *= 2
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(fn, t, mid) == "BudgetExhausted":
            lo = mid
        else:
            hi = mid
    return hi


def test_budgets_run_out_where_the_oracle_does():
    rng = random.Random(29)
    cases = [_nielsen_image(rng, trial % 2 + 2, trial % 3) for trial in range(60)]
    # images among x0..x(k-1), k < rank, at ranks 3 to 5
    cases += [_nielsen_image(rng, rank, trial % 3, k=rng.randint(2, rank - 1))
              for trial, rank in enumerate((3, 4) * 6 + (5,) * 3)]
    for t in cases:
        for fn, oracle in ((minimize_tuple, naive_minimize_tuple),
                           (extends_to_basis, naive_extends_to_basis),
                           (_primitive, _naive_primitive)):
            least = _least_budget(fn, t)
            assert _outcome(oracle, t, least) != "BudgetExhausted", (t, least)
            if least:
                assert _outcome(oracle, t, least - 1) == "BudgetExhausted", (t, least)
                # with the oracle's message
                assert _message(fn, t, least - 1) == _message(oracle, t, least - 1)


def _rotation_free(al, entries, budget):
    """``_descend``'s moves and its final entries as cyclic words, or the
    message it ran out with."""
    try:
        final, moves = _descend(al, entries, budget)
    except BudgetExhausted as exc:
        return str(exc)
    return [cyclic_canonical(Word(al, codes)) for codes in final], moves


def test_descent_does_not_depend_on_the_rotation_of_an_entry():
    # cyclically reduced tuples over generator subsets with gaps: rotating
    # any one entry changes neither the moves recorded nor the cyclic words
    # reached, nor where the budget runs out
    rng = random.Random(43)
    for trial in range(120):
        rank = trial % 4 + 2
        al = Alphabet([f"x{g}" for g in range(rank)])
        gens = rng.sample(range(rank), rng.randint(1, rank))
        codes = [2 * g + s for g in gens for s in (0, 1)]
        entries = [cyclic_canonical(Word(al, rng.choices(codes, k=rng.randint(1, 10)))).letters
                   for _ in range(rng.randint(1, 3))]
        budget = rng.choice((400, 10**5, 10**5))
        want = _rotation_free(al, entries, budget)
        for j, e in enumerate(entries):
            for k in range(1, len(e)):
                rotated = entries[:j] + [e[k:] + e[:k]] + entries[j + 1:]
                assert _rotation_free(al, rotated, budget) == want, (entries, j, k)
