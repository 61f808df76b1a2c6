import random

import pytest

from freefold.cosets import (
    CosetAutomaton,
    double_coset_member,
    double_coset_member_bounded,
    e0,
    e1,
    e2,
    e3,
)
from freefold.graphs import _canonical, _read, _stem_cycle, fold_subgroup
from freefold.words import (
    Alphabet,
    AlphabetMismatch,
    DegenerateInput,
    Word,
    _cyclic_strip,
    conjugate,
    invert,
    multiply,
    root,
)
from helpers import (
    all_reduced_words,
    naive_build_coset_automaton,
    naive_fold,
    naive_root,
    random_word,
)

AB = Alphabet.parse("a,b")
RS = Alphabet.parse("r,s")


# -- e0 ----------------------------------------------------------------------


def test_e0_examples():
    assert e0(AB.word("a b"), AB.word("b a"))
    assert not e0(AB.word("a"), AB.word("b"))
    # the commutator and its reverse are NOT conjugate: no rotation of
    # a b a^-1 b^-1 equals b a b^-1 a^-1  (automorphisms send [a,b] to a
    # conjugate of itself or of its inverse, and these are distinct classes)
    assert not e0(AB.word("a b a^-1 b^-1"), AB.word("b a b^-1 a^-1"))


def test_e0_brute_force_cross_check_on_commutators():
    w1 = AB.word("a b a^-1 b^-1")
    w2 = AB.word("b a b^-1 a^-1")
    for g in all_reduced_words(AB, 1) + all_reduced_words(AB, 2) + all_reduced_words(AB, 3):
        assert conjugate(w1, g) != w2


# -- e1 / e2 -----------------------------------------------------------------


def test_e1_examples():
    assert e1(2, AB.word("a"), AB.word("b"), AB.word("a"), AB.word("b a^4"))
    assert not e1(2, AB.word("a"), AB.word("b"), AB.word("a"), AB.word("b a^3"))
    x, y = AB.word("a b a"), AB.word("b^-1 a")
    for m in (1, 2, 5):
        assert e1(m, x, y, x, y)


def test_e2_examples():
    assert e2(2, AB.word("a"), AB.word("b"), AB.word("a"), AB.word("a^4 b"))
    assert not e2(2, AB.word("a"), AB.word("b"), AB.word("a"), AB.word("a^3 b"))
    assert e2(1, AB.word("a"), AB.word("b"), AB.word("a^2"), AB.word("a^5 b"))


def test_e1_e2_preconditions():
    with pytest.raises(ValueError):
        e1(0, AB.word("a"), AB.word("b"), AB.word("a"), AB.word("b"))
    with pytest.raises(DegenerateInput):
        e2(1, AB.identity(), AB.word("b"), AB.word("a"), AB.word("b"))


def test_relations_reject_words_over_another_alphabet():
    a, b, r = AB.word("a"), AB.word("b"), RS.word("r")
    # the second call of each pair has C(a) != C(b), which would answer
    # False without reading the foreign word
    for fn in (e1, e2):
        with pytest.raises(AlphabetMismatch):
            fn(1, a, r, a, r)
        with pytest.raises(AlphabetMismatch):
            fn(1, a, r, b, r)
    with pytest.raises(AlphabetMismatch):
        e3(1, 1, a, b, r, a, b, r)
    with pytest.raises(AlphabetMismatch):
        e3(1, 1, a, b, r, b, b, r)


def test_coset_recognizer_rejects_words_over_another_alphabet():
    # the foreign words spell the letter codes of a b a, a member
    auto = CosetAutomaton(AB.word("a"), AB.word("b"), AB.word("a"))
    assert auto.accepts(AB.word("a b a"))
    same_rank, larger_rank = Alphabet.parse("x,y"), Alphabet.parse("a,b,c")
    for alphabet in (same_rank, larger_rank):
        z = Word(alphabet, AB.word("a b a").letters)
        with pytest.raises(AlphabetMismatch):
            auto.accepts(z)
        with pytest.raises(AlphabetMismatch):
            double_coset_member(AB.word("a"), AB.word("b"), AB.word("a"), z)
    # an equal alphabet that is another object is the same alphabet
    assert auto.accepts(Alphabet.parse("a,b").word("a b a"))


def test_e1_negative_exponents_and_identity_witness():
    # t in C(x) may be trivial or a negative power
    assert e1(3, AB.word("a"), AB.word("b"), AB.word("a"), AB.word("b a^-6"))
    assert e1(7, AB.word("a b"), AB.word("b"), AB.word("a b"), AB.word("b"))


# -- double cosets ------------------------------------------------------------


def test_double_coset_examples():
    assert double_coset_member(AB.word("a"), AB.identity(), AB.word("b"),
                               AB.word("a^2 b^3"))
    assert not double_coset_member(AB.word("a"), AB.identity(), AB.word("b"),
                                   AB.word("a b a"))
    z_mid = RS.word("s")
    v = multiply(multiply(invert(z_mid), RS.word("r^-1")), z_mid)
    assert double_coset_member(RS.word("r"), z_mid, v, RS.word("r^5 s"))


def test_double_coset_collapsing_family_beyond_any_bound():
    z_mid = RS.word("s")
    v = RS.word("s^-1 r^-1 s")
    u = RS.word("r")
    z = RS.word("r^20 s")
    assert not double_coset_member_bounded(u, z_mid, v, z, 6)
    assert double_coset_member(u, z_mid, v, z)
    assert not double_coset_member(u, z_mid, v, RS.word("r^20 s^2"))


def test_double_coset_needs_saturation():
    al = Alphabet.parse("a,b,c")
    u = al.word("a b a^-1")
    assert double_coset_member(u, al.identity(), al.word("c"),
                               al.word("a b^4 a^-1 c^3"))
    assert not double_coset_member(u, al.identity(), al.word("c"),
                                   al.word("a b^4 c^3"))


def test_double_coset_degenerate_sides():
    with pytest.raises(DegenerateInput):
        double_coset_member(AB.identity(), AB.word("a"), AB.word("b"), AB.word("a"))


def test_automaton_language_against_enumeration():
    # on a small non-collapsing instance the recognized language must equal
    # the set of reduced forms of u^a z' v^b
    u, z_mid, v = AB.word("a b"), AB.word("b"), AB.word("b a")
    auto = CosetAutomaton(u, z_mid, v)
    members = set()
    for a_exp in range(-4, 5):
        for b_exp in range(-4, 5):
            members.add(multiply(multiply(u**a_exp, z_mid), v**b_exp))
    for length in range(0, 6):
        for w in all_reduced_words(AB, length):
            if auto.accepts(w):
                assert w in members or double_coset_member_bounded(
                    u, z_mid, v, w, 12
                )
            else:
                assert w not in members


def test_automaton_subset_run_is_functional():
    u, z_mid, v = AB.word("a"), AB.word("a"), AB.word("b")
    auto = CosetAutomaton(u, z_mid, v)
    # <a> a <b> is not <a, b>: a b a b is not in it
    assert auto.accepts(AB.word("a^7 b^2"))
    assert not auto.accepts(AB.word("a b a b"))
    assert not auto.accepts(AB.word("b a"))


def _oracle_triple(rng, al, shape):
    """A (u, z_mid, v) triple of the given shape, seeded."""
    u = random_word(rng, al, 4, nonempty=True)
    v = random_word(rng, al, 4, nonempty=True)
    z_mid = random_word(rng, al, 5)
    if shape == "empty":
        z_mid = al.identity()
    elif shape == "letters":
        u, v = (al.generators()[rng.randrange(al.rank)] ** rng.choice((1, -1))
                for _ in range(2))
    elif shape == "same":
        v = u
    elif shape == "inverse":
        v = invert(u)
    elif shape == "powers":
        u, v = u ** rng.randint(2, 3), v ** rng.randint(-3, -2)
    elif shape == "conjugates":
        g = random_word(rng, al, 2, nonempty=True)
        u = conjugate(random_word(rng, al, 2, nonempty=True), g)
        v = conjugate(random_word(rng, al, 2, nonempty=True), rng.choice((g, invert(g))))
    return u, z_mid, v


def test_folded_reading_matches_saturated_oracle():
    rng = random.Random(79)
    shapes = ("random", "empty", "letters", "same", "inverse", "powers", "conjugates")
    # a shortcut chain in the saturated oracle: some closure grows after a
    # state that reaches it took its closure
    triples = [(AB.word("b a^-2"), AB.identity(), AB.word("b a^-1 b^-1"))]
    abc = Alphabet.parse("a,b,c")
    for i in range(2450):
        al = AB if i % 2 else abc
        triples.append(_oracle_triple(rng, al, shapes[i % len(shapes)]))
    for u, z_mid, v in triples:
        al = u.alphabet
        fast = CosetAutomaton(u, z_mid, v)
        slow = naive_build_coset_automaton(u, z_mid, v)
        a_exp, b_exp = rng.randint(-4, 4), rng.randint(-4, 4)
        member = multiply(multiply(u ** a_exp, z_mid), v ** b_exp)
        letter = al.generators()[rng.randrange(al.rank)] ** rng.choice((1, -1))
        words = [member, multiply(member, letter)]
        words += [random_word(rng, al, 8) for _ in range(2)]
        for w in words:
            assert fast.accepts(w) == slow.accepts(w), (u, z_mid, v, w)
        assert fast.accepts(member)


def test_folded_reading_matches_saturated_oracle_on_all_short_words():
    triples = [
        ("a", "b", "b^-1 a^-1 b"),  # demo 05's collapsing family <r> s <s^-1 r^-1 s>
        ("a", "b^-1 a b", "b^-1 a^-1 b"),
        ("a b", "b", "b a"),
        ("a", "a", "b"),
        ("a", "1", "a b"),
        ("a^2", "a", "a^-3"),
        ("a b a^-1", "1", "a b^-1 a^-1"),
        ("b a^-2", "1", "b a^-1 b^-1"),
        ("a b", "1", "b^-1 a^-1"),
        ("a b^2 a^-1 b", "b^-1 a", "a b^2 a^-1 b"),
    ]
    short = [w for length in range(6) for w in all_reduced_words(AB, length)]
    for u, z_mid, v in triples:
        u, z_mid, v = AB.word(u), AB.word(z_mid), AB.word(v)
        fast = CosetAutomaton(u, z_mid, v)
        slow = naive_build_coset_automaton(u, z_mid, v)
        for w in short:
            assert fast.accepts(w) == slow.accepts(w), (u, z_mid, v, w)


def test_cyclic_graph_matches_fold_subgroup():
    rng = random.Random(83)
    sides = [AB.word(text) for text in ("a", "a^-3", "a b a^-1", "b^-2 a b^2",
                                        "a b a b", "b a^-1 b a^-1 b a^-1")]
    for _ in range(30):
        w = random_word(rng, AB, 5, nonempty=True)
        sides += [w, w ** rng.randint(2, 3), conjugate(w, random_word(rng, AB, 3))]
    short = [w for length in range(7) for w in all_reduced_words(AB, length)]
    for u in sides:
        graph, folded = _stem_cycle(*_cyclic_strip(u.letters)), fold_subgroup([u])
        assert len(graph) == folded.n_vertices
        assert _canonical(graph) == folded.steps, u
        # both are built by graphs._path, so also the pass-by-pass oracle
        assert _canonical(graph) == naive_fold([u]).steps, u
        for w in short:
            path = _read(graph, w.letters)
            read_home = len(path) == len(w) + 1 and path[-1] == 0
            assert read_home == folded.contains(w), (u, w)


def test_named_cases_reach_each_branch(monkeypatch):
    linked = []
    original = CosetAutomaton._linked

    def recorded(self, x, y):
        linked.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(CosetAutomaton, "_linked", recorded)
    # z3 non-empty: z = (ab)^3 . b . (ba)^2 and z' = b = p z3 q with p, q empty
    u, z_mid, v = AB.word("a b"), AB.word("b"), AB.word("b a")
    assert double_coset_member(u, z_mid, v, AB.word("a b a b a b b b a b a"))
    assert not double_coset_member(u, z_mid, v, AB.word("a b a b a b b^2 b a b a"))
    assert linked == []
    # z3 empty: r^20 reads round <r>, s backward into <s^-1 r^-1 s>
    u, z_mid, v = RS.word("r"), RS.word("s"), RS.word("s^-1 r^-1 s")
    assert double_coset_member(u, z_mid, v, RS.word("r^20 s"))
    assert len(linked) == 1
    assert not double_coset_member(u, z_mid, v, RS.word("r^5"))
    assert len(linked) == 2
    # r^20 s^2 leaves z3 = s, which z' = s cannot hold between its readings
    assert not double_coset_member(u, z_mid, v, RS.word("r^20 s^2"))
    assert len(linked) == 2
    # b = a^-1 (a b): (0, 1) is not a split pair of z' = 1, but the product
    # edge a^-1 links it to (0, 0), which is
    auto = CosetAutomaton(AB.word("a"), AB.identity(), AB.word("a b"))
    assert (0, 1) not in auto._splits
    assert auto.accepts(AB.word("b"))
    assert linked[-1] == (0, 1)


def test_double_coset_agrees_with_bounded_search():
    rng = random.Random(61)
    al = Alphabet.parse("x,y,z")
    for _ in range(120):
        u = random_word(rng, al, 3, nonempty=True)
        v = random_word(rng, al, 3, nonempty=True)
        z_mid = random_word(rng, al, 4)
        z = random_word(rng, al, 8)
        fast = double_coset_member(u, z_mid, v, z)
        if double_coset_member_bounded(u, z_mid, v, z, 6):
            assert fast
        if not fast:
            assert not double_coset_member_bounded(u, z_mid, v, z, 6)


def test_double_coset_accepts_constructed_members():
    rng = random.Random(67)
    al = Alphabet.parse("x,y")
    for _ in range(120):
        u = random_word(rng, al, 3, nonempty=True)
        v = random_word(rng, al, 3, nonempty=True)
        z_mid = random_word(rng, al, 4)
        a_exp, b_exp = rng.randint(-8, 8), rng.randint(-8, 8)
        z = multiply(multiply(u**a_exp, z_mid), v**b_exp)
        assert double_coset_member(u, z_mid, v, z)


# -- e3 ------------------------------------------------------------------------


def test_e3_examples():
    a, b = AB.word("a"), AB.word("b")
    assert e3(1, 1, a, b, AB.word("a^2 b^3"), a, b, AB.identity())
    assert not e3(1, 1, a, b, AB.word("a b a"), a, b, AB.identity())
    z = AB.word("b a b")
    assert e3(4, 7, a, b, z, a, b, z)


def test_e3_preconditions():
    a, b = AB.word("a"), AB.word("b")
    with pytest.raises(ValueError):
        e3(0, 1, a, b, a, a, b, a)
    with pytest.raises(DegenerateInput):
        e3(1, 1, AB.identity(), b, a, a, b, a)


def _e3_anchor(rng, al):
    """A seeded maximal root r, with a stem about half the time, and an
    anchor r^k, |k| <= 3, so about two thirds are proper powers."""
    w = random_word(rng, al, 4, nonempty=True)
    g = random_word(rng, al, 3) if rng.random() < 0.5 else al.identity()
    r = naive_root(conjugate(w, g))[0]
    return r, r ** rng.choice((1, 2, 3, -1, -2, -3))


def _e3_partner(rng, al, r):
    """x' for the anchor root r: r^{+-k}, or an unrelated word."""
    if rng.random() < 0.75:
        return r ** rng.choice((1, 2, 3, -1, -2, -3))
    return random_word(rng, al, 5, nonempty=True)


def test_e3_matches_root_and_saturated_oracle(monkeypatch):
    linked = []
    original = CosetAutomaton._linked

    def recorded(self, x, y):
        linked.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(CosetAutomaton, "_linked", recorded)
    rng = random.Random(89)
    seen = {"stem": 0, "power": 0, "inverse": 0, "product": 0, "reading": 0, "no": 0}
    for i in range(700):
        al = AB if i % 2 else Alphabet.parse("a,b,c")
        rx, x = _e3_anchor(rng, al)
        ry, y = _e3_anchor(rng, al)
        x2, y2 = _e3_partner(rng, al, rx), _e3_partner(rng, al, ry)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        shape = i % 4
        if shape == 0:
            z2 = al.identity()
        elif shape == 1:  # a piece of a root, so that z often reads through
            z2 = Word(al, rng.choice((rx, ry)).letters[: rng.randint(1, 4)])
        else:
            z2 = random_word(rng, al, 5)
        if rng.random() < 0.7:
            z = multiply(multiply(rx ** (p * rng.randint(-3, 3)), z2),
                         ry ** (q * rng.randint(-3, 3)))
        else:
            z = random_word(rng, al, 8)

        # the oracle: roots letter by letter, then the saturated automaton
        # on the powered roots, each power reduced through Word
        nx, nx2, ny, ny2 = (naive_root(w)[0] for w in (x, x2, y, y2))
        same_c = nx2 in (nx, invert(nx)) and ny2 in (ny, invert(ny))
        expected = same_c and naive_build_coset_automaton(
            Word(al, nx.letters * p), z2, Word(al, ny.letters * q)).accepts(z)
        before = len(linked)
        assert e3(p, q, x, y, z, x2, y2, z2) == expected, (p, q, x, y, z, x2, y2, z2)

        seen["stem"] += rx.letters[0] == rx.letters[-1] ^ 1
        seen["power"] += naive_root(x)[1] > 1
        seen["inverse"] += expected and nx2 != nx
        if expected:
            seen["product" if len(linked) > before else "reading"] += 1
        else:
            seen["no"] += 1
    assert min(seen.values()) >= 40, seen


def test_e1_consistent_with_double_coset_on_trivial_side():
    rng = random.Random(71)
    for _ in range(100):
        x = random_word(rng, AB, 4, nonempty=True)
        y = random_word(rng, AB, 5)
        r = root(x)[0]
        if rng.random() < 0.6:
            y2 = multiply(y, r ** rng.randint(-4, 4))
        else:
            y2 = random_word(rng, AB, 5)
        lhs = e1(1, x, y, x, y2)
        rhs = double_coset_member(r, AB.identity(), r, multiply(invert(y), y2))
        assert lhs == rhs


def _arranged_pair(rng, m):
    """A related E1-instance pair with the centralizer precondition arranged."""
    x = random_word(rng, AB, 4, nonempty=True)
    y = random_word(rng, AB, 5)
    r = root(x)[0]
    k = rng.choice([-2, -1, 1, 2, 3])
    x2 = x**k if rng.random() < 0.7 else conjugate_safe(rng, x)
    y2 = multiply(y, r ** (m * rng.randint(-3, 3)))
    return (x, y), (x2, y2)


def conjugate_safe(rng, x):
    return x ** rng.choice([1, 2, -1])


def test_e_relations_are_equivalences_sampled():
    rng = random.Random(73)
    for _ in range(150):
        m = rng.randint(1, 3)
        (x, y), (x2, y2) = _arranged_pair(rng, m)
        if not x2:
            continue
        assert e1(m, x, y, x, y)
        assert e1(m, x, y, x2, y2) == e1(m, x2, y2, x, y)
        (x3, y3) = (x2 ** rng.choice([1, 2]), multiply(y2, root(x2)[0] ** (m * rng.randint(-2, 2))))
        if x3 and e1(m, x, y, x2, y2) and e1(m, x2, y2, x3, y3):
            assert e1(m, x, y, x3, y3)
