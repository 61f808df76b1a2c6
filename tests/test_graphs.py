import random

import pytest

from freefold.graphs import (
    SubgroupGraph,
    fold_subgroup,
    is_basis_of_ambient,
    pullback,
    verify_expression,
)
from freefold.chain import (
    build_chain,
    flag_indices,
    flag_parts,
    surface_rewrite,
)
from freefold.words import Alphabet, AlphabetMismatch, Word, invert, multiply
from helpers import (
    all_reduced_words,
    complement_basis,
    naive_fold,
    naive_is_basis,
    random_word,
    restrict_word,
)

AB = Alphabet.parse("a0,b0")
ABC = Alphabet.parse("a0,b0,c0")


def words(alphabet, *texts):
    return [alphabet.word(t) for t in texts]


def brute_force_elements(gens, depth):
    """Every element expressible as a product of at most ``depth`` generator
    letters.  Independent of the graph machinery."""
    if not gens:
        return set()
    letters = []
    for g in gens:
        letters += [g, invert(g)]
    seen = {gens[0].alphabet.identity()}
    frontier = list(seen)
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for l in letters:
                p = multiply(w, l)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


# -- folding ----------------------------------------------------------------


def test_fold_two_loops():
    g = fold_subgroup(words(AB, "a0^2", "b0"))
    assert (g.n_vertices, g.n_edges) == (2, 3)


def test_fold_rose():
    g = fold_subgroup(words(AB, "a0", "b0"))
    assert (g.n_vertices, g.n_edges) == (1, 2)


def test_fold_trivial_subgroup():
    g = fold_subgroup([], AB)
    assert (g.n_vertices, g.n_edges) == (1, 0)
    assert g.rank() == 0
    assert g.contains(AB.identity())
    assert not g.contains(AB.word("a0"))


def test_fold_rejects_mixed_alphabets():
    with pytest.raises(AlphabetMismatch):
        fold_subgroup([AB.word("a0"), ABC.word("c0")])


def test_fold_deterministic_up_to_generator_presentation():
    g1 = fold_subgroup(words(AB, "a0^2", "b0"))
    g2 = fold_subgroup(words(AB, "b0", "a0^2"))
    g3 = fold_subgroup(words(AB, "a0^-2", "b0^-1"))
    assert g1.serialize() == g2.serialize() == g3.serialize()


def fold_matches_oracle(gens, alphabet):
    got = fold_subgroup(gens, alphabet)
    want = naive_fold(gens, alphabet)
    return (got.n_vertices, got.steps) == (want.n_vertices, want.steps)


def test_fold_matches_pass_by_pass_oracle():
    rng = random.Random(53)
    alphabets = [Alphabet([f"x{i}" for i in range(r)]) for r in range(1, 6)]
    for trial in range(3000):
        al = alphabets[trial % 5]
        gens = []
        for _ in range(rng.randint(0, 5)):
            # raw codes, often with cancelling pairs: the fold sees the reduced
            # word, which may be empty or not cyclically reduced
            n = rng.randint(0, 12)
            gens.append(Word(al, [rng.randrange(2 * al.rank) for _ in range(n)]))
        assert fold_matches_oracle(gens, al), gens
    assert fold_matches_oracle([], AB)
    assert fold_matches_oracle([AB.identity(), AB.word("a0 a0^-1")], AB)
    assert fold_matches_oracle(words(AB, "a0 b0 a0^-1"), AB)
    assert fold_subgroup(words(AB, "a0 b0 a0^-1")).n_vertices == 2
    # the second word reads in full and ends away from the base
    assert fold_matches_oracle(words(AB, "a0 b0", "a0"), AB)
    # the forward and the backward read meet
    assert fold_matches_oracle(words(AB, "a0 b0 a0^-1 b0^-1", "a0 b0"), AB)
    # the read wraps around a cycle
    assert fold_matches_oracle(words(AB, "a0^3", "a0^2"), AB)
    assert fold_subgroup(words(AB, "a0^3", "a0^2")).n_vertices == 1
    # a repeated generator, and a generator next to its inverse
    assert fold_matches_oracle(words(AB, "a0 b0^2", "a0 b0^2"), AB)
    assert fold_matches_oracle(words(AB, "a0 b0^2", "b0^-2 a0^-1", "b0"), AB)


def test_fold_matches_oracle_on_rewrite_bases():
    for n in (2, 4, 8):
        ch = build_chain(n)
        assert fold_matches_oracle(surface_rewrite(ch).new_basis, ch.alphabet)


# -- membership -------------------------------------------------------------


def test_contains_examples():
    g = fold_subgroup(words(AB, "a0^2", "b0"))
    assert g.contains(AB.word("a0^2"))
    assert not g.contains(AB.word("a0"))
    assert g.contains(AB.word("b0 a0^2 b0^-1"))


def test_contains_alphabet_mismatch():
    g = fold_subgroup(words(AB, "a0"))
    with pytest.raises(AlphabetMismatch):
        g.contains(ABC.word("a0"))


def test_membership_certificates():
    rng = random.Random(5)
    al = Alphabet.parse("x,y,z")
    for _ in range(30):
        gens = [random_word(rng, al, 4, nonempty=True) for _ in range(rng.randint(1, 3))]
        graph = fold_subgroup(gens, al)
        for w in list(brute_force_elements(gens, 3))[:40]:
            assert graph.contains(w)
            assert verify_expression(graph, w)


def test_basis_and_express_are_stable_across_calls():
    # the spanning tree is built once per graph; later calls must read the
    # same basis and certificates as the first, and as a fresh graph does
    rng = random.Random(47)
    al = Alphabet.parse("x,y,z")
    for _ in range(40):
        gens = [random_word(rng, al, 5, nonempty=True) for _ in range(rng.randint(1, 4))]
        graph = fold_subgroup(gens, al)
        members = list(brute_force_elements(gens, 2))[:20]
        basis = graph.basis()
        certificates = [graph.express(w) for w in members]
        for _ in range(3):
            assert graph.basis() == basis
            assert [graph.express(w) for w in members] == certificates
            assert all(verify_expression(graph, w) for w in members)
        fresh = fold_subgroup(gens, al)
        assert [fresh.express(w) for w in members] == certificates
        assert fresh.basis() == basis


# -- rank and bases ----------------------------------------------------------


def test_rank_examples():
    assert fold_subgroup(words(AB, "a0", "b0")).rank() == 2
    g = fold_subgroup(words(AB, "a0^2", "b0", "a0 b0 a0^-1"))
    assert (g.n_vertices, g.n_edges) == (2, 4)
    assert g.rank() == 3
    assert fold_subgroup([], AB).rank() == 0


def test_basis_of_examples():
    g = fold_subgroup(words(AB, "a0^2", "b0"))
    basis = g.basis()
    assert len(basis) == 2
    assert sorted(str(w) for w in basis) == ["a0^2", "b0"]
    assert [str(w) for w in fold_subgroup(words(AB, "a0", "b0")).basis()] == [
        "a0",
        "b0",
    ]
    spur = fold_subgroup(words(AB, "a0 b0 a0^-1"))
    assert [str(w) for w in spur.basis()] == ["a0 b0 a0^-1"]


def test_basis_refold_preserves_subgroup():
    rng = random.Random(41)
    al = Alphabet.parse("x,y,z")
    for _ in range(50):
        gens = [random_word(rng, al, 4, nonempty=True) for _ in range(rng.randint(1, 3))]
        g = fold_subgroup(gens, al)
        b = g.basis()
        h = fold_subgroup(b, al)
        assert h.rank() == g.rank() == len(b)
        for _ in range(10):
            probe = random_word(rng, al, 8)
            assert g.contains(probe) == h.contains(probe)


def test_is_basis_of_ambient_examples():
    assert is_basis_of_ambient(words(AB, "a0", "b0"))
    assert not is_basis_of_ambient(words(AB, "a0^2", "b0"))
    assert is_basis_of_ambient(words(AB, "a0 b0", "b0"))
    with pytest.raises(AlphabetMismatch):
        is_basis_of_ambient([AB.word("a0"), ABC.word("b0")], AB)
    # a mixed alphabet is an error even when the count is wrong
    with pytest.raises(AlphabetMismatch):
        is_basis_of_ambient([AB.word("a0"), ABC.word("b0"), ABC.word("c0")], AB)
    with pytest.raises(AlphabetMismatch):
        is_basis_of_ambient([ABC.word("a0")], AB)


def _shaped(rng, al, extra):
    """rank - 1 single letters of either sign on distinct generators, and
    one word with ``extra`` letters of the generator they leave out."""
    gens = list(range(al.rank))
    rng.shuffle(gens)
    x = gens.pop()
    singles = [Word(al, (2 * g + rng.randrange(2),)) for g in gens]
    while True:
        length = rng.randint(0, 6) if gens else 0
        codes = [2 * rng.choice(gens) + rng.randrange(2) for _ in range(length)]
        for _ in range(extra):
            codes.insert(rng.randint(0, len(codes)), 2 * x + rng.randrange(2))
        w = Word(al, codes)
        if sum(c >> 1 == x for c in w.letters) == extra:
            return singles + [w]


def test_is_basis_of_ambient_matches_fold_oracle():
    rng = random.Random(59)
    alphabets = [Alphabet([f"x{i}" for i in range(r)]) for r in range(1, 6)]
    cases = []
    for trial in range(2000):
        al = alphabets[trial % 5]
        kind = trial // 5 % 5
        gens = _shaped(rng, al, [0, 1, rng.randint(2, 4), 1, 1][kind])
        if kind == 3 and al.rank > 1:
            # near miss: a repeated single letter
            gens[0] = Word(al, (gens[1].letters[0] ^ rng.randrange(2),))
        elif kind == 4:
            # near miss: rank - 2 singles plus two words
            gens[0] = random_word(rng, al, 6)
        rng.shuffle(gens)
        cases.append((gens, al))
    for n in range(2, 9):
        for inverted in (False, True):
            ch = build_chain(n, inverted_stable_letters=inverted)
            for k in range(n):
                sub = Alphabet(ch.alphabet.names[: 3 * (k + 2)])
                gens = complement_basis(ch, k) + [ch.t(k), ch.a(k + 1), ch.b(k + 1), ch.c[k + 1]]
                cases.append(([restrict_word(w, sub) for w in gens], sub))
            for i in flag_indices(n):
                cases.append((sum(flag_parts(ch, i), []), ch.alphabet))
    bases = 0
    for gens, al in cases:
        want = naive_is_basis(gens, al)
        assert is_basis_of_ambient(gens, al) == want, gens
        bases += want
    assert 0.2 < bases / len(cases) < 0.8


def test_is_basis_of_ambient_invariance():
    rng = random.Random(43)
    gens = words(AB, "a0 b0", "b0")
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        flipped = [invert(w) if rng.random() < 0.5 else w for w in shuffled]
        assert is_basis_of_ambient(flipped)


def test_membership_in_free_product_part_examples():
    # a free product of parts is the subgroup their joined bases generate
    assert fold_subgroup(words(AB, "a0", "b0")).contains(AB.word("a0 b0^-1"))
    assert fold_subgroup(words(AB, "a0") + words(AB, "b0")).contains(AB.word("a0 b0 a0"))
    assert not fold_subgroup(words(AB, "a0^2") + words(AB, "b0")).contains(AB.word("a0"))


def test_contains_matches_brute_force_sample():
    rng = random.Random(47)
    al = Alphabet.parse("x,y,z")
    for _ in range(15):
        gens = [random_word(rng, al, 4, nonempty=True) for _ in range(rng.randint(1, 3))]
        graph = fold_subgroup(gens, al)
        members = brute_force_elements(gens, 4)
        for w in members:
            assert graph.contains(w)
        for _ in range(20):
            probe = random_word(rng, al, 8)
            if not graph.contains(probe):
                assert probe not in members
            else:
                assert verify_expression(graph, probe)


# -- product graphs -----------------------------------------------------------


def _product_components(g1, g2):
    """Every component of g1 x g2 as {pair: {code: pair}}, found by closing
    each pair's edge set over the whole product.  Independent of ``pullback``."""
    edges = {(a, b): {c: (a2, g2.steps[b][c]) for c, a2 in g1.steps[a].items()
                      if c in g2.steps[b]}
             for a in range(g1.n_vertices) for b in range(g2.n_vertices)}
    components, placed = [], set()
    for pair in edges:
        if pair in placed:
            continue
        component = {pair}
        frontier = [pair]
        while frontier:
            frontier = [q for p in frontier for q in edges[p].values() if q not in component]
            component.update(frontier)
        placed |= component
        components.append({p: edges[p] for p in component})
    return components


def _random_subgroup_pair(rng):
    """Two folded graphs over a rank-2 or rank-3 alphabet, each of 1-3
    generators of 1-7 letters; K shares a product of H's generators with H
    every third time, so that the intersection is often nontrivial."""
    al = AB if rng.random() < 0.5 else ABC
    h = [random_word(rng, al, 7, nonempty=True) for _ in range(rng.randint(1, 3))]
    k = [random_word(rng, al, 7, nonempty=True) for _ in range(rng.randint(1, 3))]
    if rng.random() < 1 / 3:
        shared = multiply(rng.choice(h), rng.choice(h) ** rng.choice((-1, 1)))
        k[rng.randrange(len(k))] = shared or h[0]
    return al, fold_subgroup(h, al), fold_subgroup(k, al)


def test_pullback_matches_the_full_product():
    rng = random.Random(211)
    for _ in range(300):
        _, g1, g2 = _random_subgroup_pair(rng)
        for component in _product_components(g1, g2):
            for start in component:
                pairs, steps = pullback(g1.steps, g2.steps, start)
                assert pairs[0] == start and len(set(pairs)) == len(pairs)
                assert set(pairs) == set(component)
                # the same edges, read through the numbering
                assert all({c: pairs[j] for c, j in step.items()} == component[pair]
                           for pair, step in zip(pairs, steps))


def test_base_component_is_the_intersection():
    rng = random.Random(223)
    balls = {al: [w for n in range(6) for w in all_reduced_words(al, n)] for al in (AB, ABC)}
    nontrivial = 0
    for _ in range(300):
        al, g1, g2 = _random_subgroup_pair(rng)
        meet = SubgroupGraph(al, pullback(g1.steps, g2.steps, (0, 0))[1], ())
        for w in balls[al]:
            assert meet.contains(w) == (g1.contains(w) and g2.contains(w)), w
        nontrivial += meet.rank() > 0
        # strengthened Hanna Neumann bound (Friedman; Mineyev), here summed
        # over every component: each holds the core of a distinct one
        bound = max(g1.rank() - 1, 0) * max(g2.rank() - 1, 0)
        assert max(meet.rank() - 1, 0) <= bound
        ranks = [sum(map(len, c.values())) // 2 - len(c) + 1
                 for c in _product_components(g1, g2)]
        assert sum(max(r - 1, 0) for r in ranks) <= bound
    assert nontrivial >= 60
