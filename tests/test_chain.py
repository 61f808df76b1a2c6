import dataclasses
import json
import random

import pytest

import freefold.chain as chain_mod
from freefold.abelian import exponent_vector, is_basis_extendable_abelian
from freefold.chain import (
    CHECKS,
    VerificationReport,
    build_chain,
    complement_basis,
    cross_conjugacy_scan,
    dehn_twist_family,
    documented_orbit_instances,
    explicit_flag_decomposition,
    flag_indices,
    flag_parts,
    orbit_distinct_check,
    run_checks,
    separation_parts,
    surface_rewrite,
    verify_free_factor_chain,
    verify_not_decomposable,
    verify_relation_chain,
    verify_surface_rewrite,
)
from freefold.graphs import fold_subgroup, is_basis_of_ambient
from freefold.whitehead import Automorphism
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
from helpers import naive_cross_conjugacy_scan


def test_build_examples():
    ch = build_chain(1)
    assert str(ch.d[0]) == "c0^-1 b0 a0 b0^-1 a0^-1"
    assert str(ch.c[1]) == "t0^-1 c0^-1 b0 a0 b0^-1 a0^-1 t0"


def test_build_invariants():
    for n in range(7):
        ch = build_chain(n)
        assert ch.alphabet.rank == 3 * (n + 1)
        for i in range(n + 1):
            assert not multiply(
                multiply(ch.c[i], ch.d[i]), commutator(ch.a(i), ch.b(i))
            )
        for i in range(n):
            assert ch.c[i + 1] == conjugate(ch.d[i], ch.t(i))
        prod = ch.alphabet.identity()
        for i in range(n):
            prod = multiply(prod, ch.t(i))
            assert invert(ch.s[i]) == prod
        assert len(ch.h_tuples) == n + 1
        assert ch.h_tuples[n] == (ch.a(n), ch.b(n), ch.c[n])


def test_letters_sit_where_chain_alphabet_names_them():
    for n in range(9):
        ch = build_chain(n)
        gen = ch.alphabet.gen
        for i in range(n + 1):
            assert (str(ch.a(i)), str(ch.b(i))) == (f"a{i}", f"b{i}")
        for i in range(n):
            assert str(ch.t(i)) == f"t{i}"
        for bad in (lambda: ch.a(n + 1), lambda: ch.b(-1), lambda: ch.t(n), lambda: ch.t(-1)):
            with pytest.raises(AlphabetMismatch):
                bad()
        # the complements and flag parts as they were built by name
        named = [[gen("a0"), gen("b0")]]
        for j in range(1, n + 1):
            named.append(named[-1] + [gen(f"t{j - 1}"), gen(f"a{j}"), gen(f"b{j}")])
        for j in range(n + 1):
            assert complement_basis(ch, j) == named[j]
        for i in flag_indices(n):
            k_named = named[2 * i - 1] + [gen(f"t{2 * i - 1}")]
            h_named = [gen(f"a{2 * i}"), gen(f"b{2 * i}"), ch.c[2 * i]]
            l_named = [gen(f"t{2 * i}")]
            for j in range(2 * i + 1, n + 1):
                l_named += [gen(f"a{j}"), gen(f"b{j}")]
            l_named += [gen(f"t{j}") for j in range(2 * i + 1, n)]
            for part, want in zip(flag_parts(ch, i), (k_named, h_named, l_named)):
                assert len(part) == len(want) and set(part) == set(want)


def test_pieces_are_read_off_c_not_a_stale_copy():
    ch = build_chain(6)
    c = list(ch.c)
    # t5 lies in L, so c2 t5 escapes K u H at i = 2
    c[2] = multiply(c[2], ch.t(5))
    mutated = dataclasses.replace(ch, c=tuple(c))
    k_part, h_part, _ = flag_parts(mutated, 2)
    assert not fold_subgroup(k_part + h_part).contains(mutated.c[2])
    report = explicit_flag_decomposition(mutated, 2)
    assert report.status == "fail"
    assert any("stage-2 entry" in w for w in report.witnesses)
    assert separation_parts(mutated)[1][2] == mutated.c[2]
    assert mutated.h_tuples[2] == (ch.a(2), ch.b(2), mutated.c[2])


def test_relation_chain_passes_through_n6():
    for n in range(7):
        assert verify_relation_chain(build_chain(n)).passed


def test_relation_chain_detects_mutation():
    ch = build_chain(2)
    mutated = dataclasses.replace(
        ch, c=(ch.c[0], multiply(ch.c[1], ch.a(0)), ch.c[2])
    )
    report = verify_relation_chain(mutated)
    assert report.status == "fail"
    assert any("i=1" in w for w in report.witnesses)


def test_relation_chain_n0_vacuous_gluing():
    assert verify_relation_chain(build_chain(0)).passed


def test_free_factor_chain_passes():
    for n in (1, 2, 3, 4):
        assert verify_free_factor_chain(build_chain(n)).passed


def test_free_factor_chain_rank_at_n2():
    ch = build_chain(2)
    assert fold_subgroup(ch.alphabet.generators(), ch.alphabet).rank() == 9


def test_free_factor_chain_rejects_n0():
    with pytest.raises(ValueError):
        verify_free_factor_chain(build_chain(0))


def test_free_factor_chain_corrupt_complement(monkeypatch):
    ch = build_chain(2)
    real = complement_basis

    def corrupt(chain, j):
        words = real(chain, j)
        return [w for w in words if str(w) != "t0"]

    monkeypatch.setattr(chain_mod, "complement_basis", corrupt)
    report = verify_free_factor_chain(ch)
    assert report.status == "fail"
    assert any("complement" in w for w in report.witnesses)


def test_free_factor_chain_checks_alphabet_order():
    ch = build_chain(1)

    def swapped(i, j):
        names = list(ch.alphabet.names)
        names[i], names[j] = names[j], names[i]
        return verify_free_factor_chain(dataclasses.replace(ch, alphabet=Alphabet(names)))

    # t0 and a1 swapped: each stage is still a prefix
    assert swapped(3, 4).status == "pass"
    # c0 and t0 swapped: stage 0 is no longer a prefix
    assert swapped(2, 3).witnesses == ["k=0: stage-k letters are not followed by (t, a, b)"]


def test_free_factor_chain_rejects_a_word_outside_its_stage():
    ch = build_chain(3)
    c = list(ch.c)
    # t2 is a stage-3 letter, and c1 t2 still has one c0 letter
    c[1] = multiply(c[1], ch.t(2))
    with pytest.raises(AlphabetMismatch):
        verify_free_factor_chain(dataclasses.replace(ch, c=tuple(c)))


def test_corrupt_complement_is_not_a_basis():
    ch = build_chain(2)
    comp = complement_basis(ch, 1)
    comp = [w for w in comp if str(w) != "t0"]
    gens = comp + [ch.t(1), ch.a(2), ch.b(2), ch.c[2]]
    assert not is_basis_of_ambient(gens, ch.alphabet)


# -- surface rewrite ---------------------------------------------------------


def test_surface_rewrite_stable_letter_products():
    ch = build_chain(2)
    assert str(ch.s[0]) == "t0^-1"
    assert str(ch.s[1]) == "t1^-1 t0^-1"


def test_surface_rewrite_residues_empty():
    for n in (2, 4):
        ch = build_chain(n)
        rw = surface_rewrite(ch)
        assert not rw.identity_residue
        assert not rw.dblprime_residue
        assert len(rw.new_basis) == 3 * (n + 1)
        assert is_basis_of_ambient(rw.new_basis, ch.alphabet)


def test_surface_rewrite_report_passes():
    for n in (2, 4):
        report = verify_surface_rewrite(build_chain(n))
        assert report.passed
        assert report.params["basis_size"] == 3 * (n + 1)


def test_exactly_one_convention_closes():
    for n in (2, 4):
        good = surface_rewrite(build_chain(n))
        bad = surface_rewrite(build_chain(n, inverted_stable_letters=True))
        assert not good.identity_residue
        assert bad.identity_residue


def test_flipped_chain_fails_surface_check():
    report = verify_surface_rewrite(build_chain(2, inverted_stable_letters=True))
    assert report.status == "fail"
    assert any("residue" in w for w in report.witnesses)


def test_surface_rewrite_at_depth_48():
    ch = build_chain(48)
    assert verify_surface_rewrite(ch).passed
    rw = surface_rewrite(ch)
    assert fold_subgroup(rw.new_basis, ch.alphabet).rank() == 3 * 48 + 3
    flipped = verify_surface_rewrite(build_chain(48, inverted_stable_letters=True))
    assert flipped.status == "fail"
    assert any("residue" in w for w in flipped.witnesses)


def test_all_checks_at_depth_64():
    reports, _ = run_checks(build_chain(64), "all")
    assert all(r.status == "pass" for r in reports)
    flipped, _ = run_checks(build_chain(64, inverted_stable_letters=True), "all")
    failed = {r.check for r in flipped if r.status != "pass"}
    assert failed == {"relation_chain", "surface_rewrite"}
    assert all(r.status in ("pass", "fail") for r in flipped)


def test_surface_rewrite_preconditions():
    with pytest.raises(ValueError):
        surface_rewrite(build_chain(3))
    with pytest.raises(ValueError):
        surface_rewrite(build_chain(0))


# -- flag decomposition -------------------------------------------------------


def test_flag_decomposition_passes():
    for n, i in ((4, 1), (6, 1), (6, 2)):
        assert explicit_flag_decomposition(build_chain(n), i).passed


def test_flag_decomposition_all_small_cases():
    for n in range(4, 7):
        ch = build_chain(n)
        for i in range(1, n):
            if 2 * i + 2 <= n:
                assert explicit_flag_decomposition(ch, i).passed


def test_flag_negative_control():
    # the stage-4 tuple must escape K u H at (n, i) = (4, 1): c4 is no member
    ch = build_chain(4)
    k_part, h_part, _ = flag_parts(ch, 1)
    c4 = ch.h_tuples[4][2]
    assert not fold_subgroup(k_part + h_part).contains(c4)


def test_flag_out_of_range():
    with pytest.raises(ValueError):
        explicit_flag_decomposition(build_chain(4), 9)
    with pytest.raises(ValueError):
        explicit_flag_decomposition(build_chain(4), 2)


# -- abelian obstruction -------------------------------------------------------


def test_not_decomposable_passes_with_sign_rule():
    for n in range(1, 9):
        ch = build_chain(n)
        report = verify_not_decomposable(ch)
        assert report.passed
        sign = (-1) ** (n + 1)
        vec_c0 = exponent_vector(ch.c[0])
        assert exponent_vector(ch.d[n]) == tuple(sign * x for x in vec_c0)


def test_independent_pair_is_extendable_control():
    ch = build_chain(2)
    assert is_basis_extendable_abelian(
        [exponent_vector(ch.c[0]), exponent_vector(ch.a(0))]
    )


# -- twist families and orbits --------------------------------------------------


def test_dehn_twist_examples():
    xyz = Alphabet.parse("x,y,z")
    f = dehn_twist_family(xyz, ["x", "y"], ["z"], [], xyz.gen("x"), 2)
    assert str(f.apply(xyz.word("z"))) == "x^2 z x^-2"
    xyt = Alphabet.parse("x,y,t")
    g = dehn_twist_family(xyt, ["x", "y"], [], ["t"], xyt.gen("x"), 1)
    assert str(g.apply(xyt.word("t"))) == "x t"
    h = dehn_twist_family(xyz, ["x", "y"], ["z"], [], xyz.gen("x"), 0)
    for w in xyz.generators():
        assert h.apply(w) == w


def test_dehn_twist_preconditions():
    xyz = Alphabet.parse("x,y,z")
    with pytest.raises(ValueError):
        dehn_twist_family(xyz, ["x"], ["z"], [], xyz.gen("x"), 1)
    with pytest.raises(ValueError):
        dehn_twist_family(xyz, ["x", "y"], ["z"], [], xyz.gen("z"), 1)
    with pytest.raises(AlphabetMismatch):
        dehn_twist_family(xyz, ["x", "y"], ["z"], [], Alphabet.parse("x,y,t").gen("x"), 1)


def test_orbit_distinct_documented_instances():
    for tag, family, g, N in documented_orbit_instances():
        assert orbit_distinct_check(family, g, N, check_suffix=tag).passed


def test_orbit_distinct_failures():
    xyz = Alphabet.parse("x,y,z")
    family = lambda k: dehn_twist_family(xyz, ["x", "y"], ["z"], [], xyz.gen("x"), k)
    fixed = orbit_distinct_check(family, xyz.word("x"), 10)
    assert fixed.status == "fail"
    assert (fixed.params["p"], fixed.params["q"]) == (0, 1)
    inner = orbit_distinct_check(family, xyz.word("z"), 10)
    assert inner.status == "fail"
    # x and x^-1 are not conjugate, but their roots agree up to inversion
    x, y, z = xyz.generators()
    flip = Automorphism(xyz, [invert(x), y, z], [invert(x), y, z])
    same = Automorphism.identity(xyz)
    inverting = orbit_distinct_check(lambda k: flip if k % 2 else same, x, 4)
    assert inverting.status == "fail"
    assert (inverting.params["p"], inverting.params["q"]) == (0, 1)
    assert inverting.witnesses == ["x", "x^-1"]
    with pytest.raises(DegenerateInput):
        orbit_distinct_check(family, xyz.identity(), 3)


# -- conjugacy separation ---------------------------------------------------------


def test_scan_identical_subgroups_fail():
    al = Alphabet.parse("a0,b0")
    report = cross_conjugacy_scan([al.word("a0")], [al.word("a0")], 3)
    assert report.status == "fail"
    assert report.witnesses == ["a0", "a0"]


def test_scan_disjoint_generators_pass():
    al = Alphabet.parse("a0,b0")
    assert cross_conjugacy_scan([al.word("a0")], [al.word("b0")], 4).passed


def test_scan_budget_exhaustion():
    al = Alphabet.parse("a0,b0")
    report = cross_conjugacy_scan([al.word("a0"), al.word("b0")],
                                  [al.word("a0")], 6, element_cap=10)
    assert report.status == "budget-exhausted"
    assert report.witnesses == []


def test_scan_rejects_empty_bounds():
    al = Alphabet.parse("a0,b0")
    for max_len, cap in ((0, 10), (-3, 10), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            cross_conjugacy_scan([al.word("a0")], [al.word("b0")], max_len, cap)


def test_scan_rejects_mixed_alphabets():
    ab, xy = Alphabet.parse("a,b"), Alphabet.parse("x,y")
    for part1, part2 in (([ab.word("a")], [xy.word("x")]),
                         ([ab.word("a"), xy.word("x")], []),
                         ([], [ab.word("b"), xy.word("y")])):
        with pytest.raises(AlphabetMismatch):
            cross_conjugacy_scan(part1, part2, 2)
    # equal alphabets need not be the same object
    report = cross_conjugacy_scan([ab.word("a")], [Alphabet.parse("a,b").word("b a b^-1")], 2)
    assert (report.status, report.witnesses) == ("fail", ["a", "b a b^-1"])


def _scan_key(report):
    return report.status, report.params, report.witnesses


def _random_part(rng, al):
    """0-3 words from raw code lists with cancelling pairs, so a word may be
    trivial and a part may repeat a word or hold its power."""
    part = []
    for _ in range(rng.randint(0, 3)):
        if part and rng.random() < 0.25:
            part.append(rng.choice(part) ** rng.choice((1, -1, 2, 3)))
        else:
            part.append(Word(al, [rng.randrange(2 * al.rank)
                                  for _ in range(rng.randint(0, 4))]))
    return part


def test_scan_matches_ball_oracle(monkeypatch):
    keyed = []

    def counted(w):
        keyed.append(w)
        return cyclic_canonical(w)

    monkeypatch.setattr(chain_mod, "cyclic_canonical", counted)
    rng = random.Random(71)
    for trial in range(3000):
        names = [f"x{g}" for g in range(trial % 3 + 1)]
        # the second part is over an equal but distinct alphabet object
        part1 = _random_part(rng, Alphabet(names))
        part2 = _random_part(rng, Alphabet(names))
        max_len, cap = rng.randint(1, 4), rng.choice((1, 10, 50, 10**5))
        got = cross_conjugacy_scan(part1, part2, max_len, cap)
        want = naive_cross_conjugacy_scan(part1, part2, max_len, cap)
        assert _scan_key(got) == _scan_key(want), (part1, part2, max_len, cap)
    for n in (2, 4, 8):
        for flip in (False, True):
            parts = separation_parts(build_chain(n, inverted_stable_letters=flip))
            keyed.clear()
            got = cross_conjugacy_scan(*parts, 6)
            assert _scan_key(got) == _scan_key(naive_cross_conjugacy_scan(*parts, 6))
            assert got.params["classes_1"] == got.params["classes_2"] == 3506
            # the parts are free bases: one key per class, none for the rest
            # of the 2 x 23,436 elements
            assert len(keyed) == 2 * 3506


def test_scan_counts_classes_not_keyed_elements(monkeypatch):
    keyed = []

    def counted(w):
        keyed.append(w)
        return cyclic_canonical(w)

    monkeypatch.setattr(chain_mod, "cyclic_canonical", counted)
    al = Alphabet.parse("x0,x1")
    # a free basis whose generators are conjugate in F(x0, x1), and so are
    # their inverses: four keyed elements of length 1, two classes
    part = [al.word("x1 x0 x1^-1 x0"), al.word("x1^-1 x0 x1 x0")]
    assert fold_subgroup(part).rank() == 2
    for max_len, classes in ((1, 2), (2, 8)):
        keyed.clear()
        got = cross_conjugacy_scan(part, [al.word("x1")], max_len)
        assert _scan_key(got) == _scan_key(
            naive_cross_conjugacy_scan(part, [al.word("x1")], max_len))
        assert got.params["classes_1"] == classes
        if max_len == 1:
            # and the second part keys x1 and x1^-1
            assert len(keyed) == 4 + 2


def test_scan_matches_ball_oracle_at_the_budget_boundary():
    al = Alphabet.parse("a,b,c")
    w = al.word
    # (part1, part2, whether a cap below the closed-form ball exhausts)
    cases = [
        # a free basis whose generators are conjugate in F(a,b,c): two classes
        # of the subgroup share the key of a, and the first in BFS order wins
        ([w("a"), w("b a b^-1")], [w("c a c^-1"), w("b")], True),
        # a free basis whose generators cancel against each other
        ([w("a b"), w("b^-1 c")], [w("b^2"), w("c^2")], True),
        # not free: its ball is far below the closed form
        ([w("a"), w("a^2")], [w("c a^2 c^-1")], False),
    ]
    for part1, part2, exhausts in cases:
        for max_len in (3, 5):
            # nontrivial elements in a ball of radius max_len of a rank-2 basis
            ball = sum(4 * 3**m for m in range(max_len))
            for cap in (ball - 1, ball, 10**5):
                got = cross_conjugacy_scan(part1, part2, max_len, cap)
                want = naive_cross_conjugacy_scan(part1, part2, max_len, cap)
                assert _scan_key(got) == _scan_key(want), (part1, part2, max_len, cap)
                assert (got.status == "budget-exhausted") == (exhausts and cap < ball)


def test_separation_parts_shape():
    ch = build_chain(2)
    p1, p2 = separation_parts(ch)
    assert [str(w) for w in p1] == ["a0", "b0", "c0"]
    assert p2[0] == ch.a(2) and p2[1] == ch.b(2) and p2[2] == ch.c[2]


# -- check registry ---------------------------------------------------------------


def test_registry_runners_call_through_module_globals(monkeypatch):
    calls = []
    original = chain_mod.verify_relation_chain

    def counted(ch):
        calls.append(ch.n)
        return original(ch)

    monkeypatch.setattr(chain_mod, "verify_relation_chain", counted)
    reports, notes = run_checks(build_chain(1), "all", max_len=2)
    assert calls == [1]
    assert {r.check for r in reports} >= {"relation_chain", "free_factor_chain"}
    assert notes == ["surface skipped: n odd or below 2",
                     "flag skipped: no valid index for this n",
                     "separation skipped: needs n >= 2"]


def test_single_inapplicable_lemma_raises_its_reason():
    ch = build_chain(3)
    for lemma in CHECKS:
        reason = CHECKS[lemma].skip(ch.n)
        if reason is not None:
            with pytest.raises(ValueError, match=reason):
                run_checks(ch, lemma, i=1)
    with pytest.raises(ValueError, match="index"):
        run_checks(build_chain(4), "flag")
    assert len(run_checks(build_chain(6), "flag", i=2)[0]) == 1


# -- reports ----------------------------------------------------------------------


def test_report_round_trips_through_json():
    report = verify_relation_chain(build_chain(2))
    loaded = VerificationReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert loaded == report


def test_failing_report_requires_witness():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, "fail", [], 0)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, "nonsense", [], 0)
