import dataclasses
import hashlib
import json
import random

import pytest

import freefold.chain as chain_mod
from freefold.abelian import exponent_vector, is_basis_extendable_abelian
from freefold.chain import (
    CHECKS,
    VerificationReport,
    _c0_once,
    build_chain,
    chain_alphabet,
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
    invert,
    multiply,
)
from helpers import (
    complement_basis,
    naive_build_chain,
    naive_cross_conjugacy_scan,
    naive_flag_decomposition,
    naive_is_basis,
    naive_primed_residue,
    naive_relation_chain,
    naive_rewrite_basis,
    restrict_word,
)


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


def test_build_matches_the_multiply_oracle():
    for n in range(41):
        for flip in (False, True):
            ch = build_chain(n, flip)
            c, d = naive_build_chain(n, flip)
            assert (ch.c, ch.d_n, ch.d) == (c, d[-1], d)
            # nothing cancels in the gluing, so d_i is c_{i+1} without its end letters
            assert all(d_i.letters == c_next.letters[1:-1] for d_i, c_next in zip(d, c[1:]))


def _perturbed_relation_chains(rng, count):
    """Chains at n = 0 ... 12, in either convention, with one c_i or d_n
    multiplied on either side by 1-3 random letters or their inverses."""
    for _ in range(count):
        n = rng.randint(0, 12)
        ch = build_chain(n, inverted_stable_letters=rng.random() < 0.5)
        k = rng.randint(0, n + 1)  # n + 1 stands for d_n
        w = ch.d_n if k == n + 1 else ch.c[k]
        for _ in range(rng.randint(1, 3)):
            x = rng.choice(ch.generators)
            if rng.random() < 0.5:
                x = invert(x)
            w = multiply(x, w) if rng.random() < 0.5 else multiply(w, x)
        if k == n + 1:
            yield dataclasses.replace(ch, d_n=w)
        else:
            yield dataclasses.replace(ch, c=ch.c[:k] + (w,) + ch.c[k + 1:])


def test_relation_check_matches_the_two_loop_oracle():
    # built chains give the oracle's report, witnesses included
    for n in range(25):
        for flip in (False, True):
            ch = build_chain(n, flip)
            report, oracle = verify_relation_chain(ch), naive_relation_chain(ch, ch.d)
            assert (report.status, report.witnesses) == (oracle.status, oracle.witnesses)
            assert report.passed != flip or n == 0
    seen = set()
    for ch in _perturbed_relation_chains(random.Random(173), 600):
        status = verify_relation_chain(ch).status
        assert status == naive_relation_chain(ch, ch.d).status
        seen.add((ch.inverted_stable_letters, status))
    assert {(False, "fail"), (True, "fail")} <= seen


def test_free_factor_chain_passes():
    for n in (1, 2, 3, 4):
        assert verify_free_factor_chain(build_chain(n)).passed


def test_free_factor_chain_rank_at_n2():
    ch = build_chain(2)
    assert fold_subgroup(ch.alphabet.generators(), ch.alphabet).rank() == 9


def test_chain_rejects_a_word_over_another_alphabet():
    # so no check meets one: the flag check's position rule always has every
    # piece's largest position, and no check re-expresses a word by name
    ch = build_chain(6)
    renamed = Alphabet([name + "x" for name in ch.alphabet.names])
    for foreign in (renamed, chain_alphabet(5)):
        for k in (0, 6, "d_n"):
            word = ch.d_n if k == "d_n" else ch.c[k]
            if max(word.letters) >= 2 * foreign.rank:
                # the depth-6 word has letters past the depth-5 alphabet
                with pytest.raises(AlphabetMismatch):
                    Word(foreign, word.letters)
                continue
            fields = {"c": ch.c, "d_n": ch.d_n}
            if k == "d_n":
                fields["d_n"] = Word(foreign, word.letters)
            else:
                fields["c"] = ch.c[:k] + (Word(foreign, word.letters),) + ch.c[k + 1:]
            with pytest.raises(AlphabetMismatch):
                dataclasses.replace(ch, **fields)
            with pytest.raises(AlphabetMismatch):
                chain_mod.SurfaceChain(ch.n, fields["c"], fields["d_n"])
    assert ch.h_reach == tuple(max(max(w.letters, default=0) >> 1 for w in t)
                               for t in ch.h_tuples)
    # an equal alphabet is the chain's alphabet, whatever the object
    al = chain_alphabet(6)
    same = dataclasses.replace(ch, c=tuple(Word(al, w.letters) for w in ch.c))
    assert same.alphabet is al and same.d_n.alphabet is not al
    for check in (verify_free_factor_chain, verify_surface_rewrite):
        assert check(same).passed
    assert explicit_flag_decomposition(same, 2).passed


def test_chain_refuses_any_other_shape_or_layout():
    ch = build_chain(4)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        build_chain(-1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        chain_mod.SurfaceChain(-1, ch.c[:0], ch.d_n)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        dataclasses.replace(ch, n=-1)
    # one c-word fewer or more; a chain stores one d-word, d_n
    for words in (ch.c[:-1], ch.c + (ch.c[-1],)):
        with pytest.raises(ValueError, match="depth-4 chain has 5 c-words"):
            dataclasses.replace(ch, c=words)
        with pytest.raises(ValueError, match="depth-4 chain has 5 c-words"):
            chain_mod.SurfaceChain(4, words, ch.d_n)
    # the words of a depth-3 chain, or the first four of a depth-4 chain,
    # are the right number for the other depth but lie over its alphabet
    shallow = build_chain(3)
    with pytest.raises(AlphabetMismatch):
        dataclasses.replace(shallow, c=ch.c[:4], d_n=ch.d_n)
    with pytest.raises(AlphabetMismatch):
        chain_mod.SurfaceChain(4, shallow.c + (shallow.c[0],), shallow.d_n)
    # an extra letter after the layout's
    wide = Alphabet(list(ch.alphabet.names) + ["zz"])
    c, d_n = tuple(restrict_word(w, wide) for w in ch.c), restrict_word(ch.d_n, wide)
    with pytest.raises(AlphabetMismatch):
        dataclasses.replace(ch, c=c, d_n=d_n)
    with pytest.raises(AlphabetMismatch):
        chain_mod.SurfaceChain(4, c, d_n)


def test_chain_stores_its_c_words_and_d_n_only():
    fields = [f.name for f in dataclasses.fields(chain_mod.SurfaceChain)]
    assert fields == ["n", "c", "d_n", "inverted_stable_letters"]
    ch = build_chain(3)
    d = ch.d
    assert d[-1] is ch.d_n and ch.d is not d and "d" not in vars(ch)


def test_free_factor_chain_rejects_n0():
    with pytest.raises(ValueError):
        verify_free_factor_chain(build_chain(0))


def test_free_factor_chain_checks_alphabet_order():
    # the layout is the chain's alphabet, so a permuted alphabet is refused
    # when the chain is built, before any check reads it
    ch = build_chain(1)
    # t0 and a1 swapped, each stage still a prefix; b0 and t0 swapped
    for i, j in ((3, 4), (2, 3)):
        names = list(ch.alphabet.names)
        names[i], names[j] = names[j], names[i]
        al = Alphabet(names)
        c, d_n = tuple(restrict_word(w, al) for w in ch.c), restrict_word(ch.d_n, al)
        with pytest.raises(AlphabetMismatch):
            dataclasses.replace(ch, c=c, d_n=d_n)
        with pytest.raises(AlphabetMismatch):
            chain_mod.SurfaceChain(ch.n, c, d_n)


def test_free_factor_chain_rejects_a_word_outside_its_stage():
    ch = build_chain(3)
    c = list(ch.c)
    # t2 is a stage-3 letter, and c1 t2 still has one c0 letter
    c[1] = multiply(c[1], ch.t(2))
    report = verify_free_factor_chain(dataclasses.replace(ch, c=tuple(c)))
    assert report.status == "fail"
    assert report.witnesses == ["k=0: c_1 has a letter outside stage 1"]


def test_free_factor_chain_fails_on_a_second_c0_letter():
    ch = build_chain(2)
    c = list(ch.c)
    c[1] = multiply(c[1], ch.c[0])
    report = verify_free_factor_chain(dataclasses.replace(ch, c=tuple(c)))
    assert report.witnesses == ["k=0: complement basis with (a, b, c) fails"]


def test_c0_once_matches_fold_oracle():
    rng = random.Random(67)
    al = chain_alphabet(2)
    others = al.generators()[1:]
    verdicts = set()
    for _ in range(300):
        codes = [rng.randrange(2, 2 * al.rank) for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 3)):
            codes.insert(rng.randint(0, len(codes)), rng.randrange(2))
        w = Word(al, codes)
        want = naive_is_basis(others + [w], al)
        assert _c0_once(w) == want, w
        verdicts.add(want)
    assert verdicts == {True, False}


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
        assert len(rw.new_basis) == 3 * (n + 1)
        assert is_basis_of_ambient(rw.new_basis, ch.alphabet)


def _perturbed_surface_chains(rng, count):
    """Chains at n = 2, 4, 6, in either convention, whose d_n and c_0 are
    multiplied on either side by 0-3 random letters, c0 a third of them.
    Depths 4 and 6 are drawn 6 and 1 times in 37: ``naive_is_basis`` folds
    their rewrite bases, about 350 and 700 letters, in 0.04 and 0.15 s."""
    for _ in range(count):
        n = rng.choices((2, 4, 6), weights=(30, 6, 1))[0]
        ch = build_chain(n, inverted_stable_letters=rng.random() < 0.5)

        def perturb(w):
            for _ in range(rng.randint(0, 3)):
                x = ch.generators[0] if rng.random() < 1 / 3 else rng.choice(ch.generators)
                if rng.random() < 0.5:
                    x = invert(x)
                w = multiply(x, w) if rng.random() < 0.5 else multiply(w, x)
            return w

        yield dataclasses.replace(ch, c=(perturb(ch.c[0]), *ch.c[1:]), d_n=perturb(ch.d_n))


def test_surface_basis_witness_matches_fold_oracle():
    verdicts = set()
    for ch in _perturbed_surface_chains(random.Random(131), 500):
        is_basis = naive_is_basis(surface_rewrite(ch).new_basis, ch.alphabet)
        report = verify_surface_rewrite(ch)
        assert ("rewritten generating set is not a basis" in report.witnesses) == (not is_basis)
        verdicts.add(is_basis)
    assert verdicts == {True, False}


def test_relator_reads_off_the_new_basis():
    chains = [build_chain(n, flip) for n in (2, 4, 6) for flip in (False, True)]
    chains += _perturbed_surface_chains(random.Random(137), 100)
    for ch in chains:
        rw = surface_rewrite(ch)
        basis, n = rw.new_basis, ch.n
        # a_j and b_j sit at 3j and 3j + 1, d'_n last
        relator = multiply(invert(ch.c[0]), commutator(basis[1], basis[0]))
        for j in range(2, n + 1, 2):
            relator = multiply(relator, commutator(basis[3 * j + 1], basis[3 * j]))
        for j in range(n - 1, 0, -2):
            relator = multiply(relator, commutator(basis[3 * j], basis[3 * j + 1]))
        assert multiply(relator, invert(basis[-1])) == rw.identity_residue


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


def test_primed_residue_matches_step_by_step_oracle():
    chains = [build_chain(n, flip) for n in range(2, 65, 2) for flip in (False, True)]
    chains += _perturbed_surface_chains(random.Random(139), 40)
    for ch in chains:
        rw = surface_rewrite(ch)
        assert rw.identity_residue == naive_primed_residue(ch)
        assert rw.new_basis == naive_rewrite_basis(ch)


def _telescoped(ch):
    return chain_mod._relator_residue(ch.n, ch.c[0].letters, ch.d_n.letters)


def test_telescoped_residues_match_primed_and_step_by_step():
    # the surface check's two residues: the chain's own from its c_0 and d_n,
    # and a convention's from c0 and that convention's unrolled d_n
    for n in [*range(2, 41, 2), 256]:
        for flip in (False, True):
            ch = build_chain(n, flip)
            want = naive_primed_residue(ch).letters
            assert surface_rewrite(ch).identity_residue.letters == want
            assert _telescoped(ch) == want
            d_n = chain_mod._last_boundary(n, flip)
            assert chain_mod._relator_residue(n, (0,), d_n) == want
    for seed, count in ((131, 500), (137, 100), (139, 40), (149, 40), (151, 40)):
        for ch in _perturbed_surface_chains(random.Random(seed), count):
            want = naive_primed_residue(ch).letters
            assert surface_rewrite(ch).identity_residue.letters == want
            assert _telescoped(ch) == want


def test_last_boundary_unrolls_d_n():
    for n in range(65):
        for flip in (False, True):
            assert chain_mod._last_boundary(n, flip) == build_chain(n, flip).d_n.letters


class _NoDerivedWords(chain_mod.SurfaceChain):
    @property
    def s(self):
        raise AssertionError("a check read s")

    @property
    def d(self):
        raise AssertionError("a check read d, not d_n")


def test_surface_check_reads_neither_s_nor_another_chain(monkeypatch):
    def no_build(*_):
        raise AssertionError("the surface check built a chain")

    chains = [build_chain(n, flip) for n in (2, 8, 64) for flip in (False, True)]
    want = [verify_surface_rewrite(ch) for ch in chains]
    monkeypatch.setattr(chain_mod, "build_chain", no_build)
    for ch, report in zip(chains, want):
        bare = _NoDerivedWords(ch.n, ch.c, ch.d_n, ch.inverted_stable_letters)
        got = verify_surface_rewrite(bare)
        assert (got.status, got.witnesses, got.params) == (
            report.status, report.witnesses, report.params)


def test_no_check_reads_the_derived_words():
    # every check reads the stored c-words and d_n, never d or s
    def rows(chain):
        return [(r.check, r.params, r.status, r.witnesses) for r in run_checks(chain, "all")[0]]

    for n in (0, 1, 2, 8, 9):
        for flip in (False, True):
            ch = build_chain(n, flip)
            bare = _NoDerivedWords(ch.n, ch.c, ch.d_n, ch.inverted_stable_letters)
            assert rows(bare) == rows(ch)


def _check_report_reads_both_rewrites(chains, is_basis):
    """The surface report equals one recomputed from both conventions' full
    rewrites, with ``is_basis`` folding the built basis."""
    for ch in chains:
        rw = surface_rewrite(ch)
        flipped = build_chain(ch.n, inverted_stable_letters=not ch.inverted_stable_letters)
        other = surface_rewrite(flipped).identity_residue
        witnesses = [f"primed residue: {rw.identity_residue}"] if rw.identity_residue else []
        if not is_basis(rw.new_basis, ch.alphabet):
            witnesses.append("rewritten generating set is not a basis")
        if bool(rw.identity_residue) == bool(other):
            witnesses.append("conventions are not separated: flipped-residue "
                             f"{other if other else 'empty'}")
        report = verify_surface_rewrite(ch)
        assert report.witnesses == witnesses
        assert report.status == ("fail" if witnesses else "pass")
        assert report.params == {"n": ch.n, "basis_size": len(rw.new_basis),
                                 "inverted_stable_letters": int(ch.inverted_stable_letters)}


def test_surface_report_reads_both_rewrites():
    chains = [build_chain(n, flip) for n in (2, 4, 6) for flip in (False, True)]
    chains += _perturbed_surface_chains(random.Random(149), 40)
    _check_report_reads_both_rewrites(chains, naive_is_basis)


def test_surface_report_reads_both_rewrites_to_depth_64():
    # the reference fold is too slow for these bases: fold them with the library's
    chains = [build_chain(n, flip) for n in range(8, 65, 2) for flip in (False, True)]
    chains += _perturbed_surface_chains(random.Random(151), 40)
    _check_report_reads_both_rewrites(chains, is_basis_of_ambient)


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
    for n in (64, 128):
        reports, _ = run_checks(build_chain(n), "all")
        assert all(r.status == "pass" for r in reports)
        flipped, _ = run_checks(build_chain(n, inverted_stable_letters=True), "all")
        failed = {r.check for r in flipped if r.status != "pass"}
        assert failed == {"relation_chain", "surface_rewrite"}
        assert all(r.status in ("pass", "fail") for r in flipped)


# The SHA-256 of every report (elapsed_ms dropped) and note that
# run_checks(build_chain(n, flip), "all") gives for n = 0 ... 24 in both
# conventions, re-recorded when a failing relation_chain report came to write
# out only its first mismatching gluing and name the others by index (the only
# reports that changed were the flipped chains' relation_chain at n = 2 ... 24):
# a refactor of the chain or its checks that changes no report keeps it.
ALL_REPORTS_DIGEST = "e0574a7f3e17e8c0843f0fd8a2c06a4cb00b1901efe474a5e3704d8bb55005f5"


def test_all_reports_keep_their_digest():
    h = hashlib.sha256()
    for n in range(25):
        for flip in (False, True):
            reports, notes = run_checks(build_chain(n, flip), "all")
            rows = [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"}
                    for r in reports]
            h.update(json.dumps([n, flip, rows, notes], sort_keys=True).encode())
    assert h.hexdigest() == ALL_REPORTS_DIGEST


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


def test_flag_decomposition_fails_on_a_second_c0_letter():
    ch = build_chain(4)
    c = list(ch.c)
    c[2] = multiply(c[2], ch.c[0])
    report = explicit_flag_decomposition(dataclasses.replace(ch, c=tuple(c)), 1)
    assert report.witnesses[0] == "K u H u L is not a basis of the ambient group"


def _perturbed_flag_chains(rng, count):
    """Chains at n = 4 ... 16, in either convention, with one c-word changed
    in one of four ways, a quarter each: multiplied at either end by a
    random letter or its inverse; c_2i (for a flag index i) given a c0
    letter at a random place, mostly a second one; multiplied at either end
    by a letter past its stage; or c_2i inverted, so that its c0 letter has
    exponent -1, and then multiplied as in the first."""
    for _ in range(count):
        n = rng.randint(4, 16)
        ch = build_chain(n, inverted_stable_letters=rng.random() < 0.5)
        c = list(ch.c)
        kind = rng.randrange(4)
        if kind in (1, 3):
            j = 2 * rng.choice(flag_indices(n))
        else:
            j = rng.randrange(n + 1) if kind == 0 else rng.randrange(n)
        if kind == 1:
            k = rng.randint(0, len(c[j]))
            letters = c[j].letters
            c[j] = Word(ch.alphabet, letters[:k] + (rng.randrange(2),) + letters[k:])
        else:
            if kind == 3:
                c[j] = invert(c[j])
            lowest = 3 * j + 3 if kind == 2 else 0
            x = ch.generators[rng.randrange(lowest, ch.alphabet.rank)]
            if rng.random() < 0.5:
                x = invert(x)
            c[j] = multiply(x, c[j]) if rng.random() < 0.5 else multiply(c[j], x)
        yield dataclasses.replace(ch, c=tuple(c))


def _rule_sign(ch, i):
    """The exponent of c_2i's c0 letter where the position rule decides the
    flag check at i, else None."""
    c_2i = ch.c[2 * i]
    if _c0_once(c_2i) and max(c_2i.letters) >> 1 <= 6 * i + 2:
        return -1 if 1 in c_2i.letters else 1
    return None


def test_flag_check_matches_fold_oracle():
    chains = [build_chain(n, flip) for n in range(4, 25) for flip in (False, True)]
    chains += _perturbed_flag_chains(random.Random(163), 500)
    seen = set()
    for ch in chains:
        for i in flag_indices(ch.n):
            report = explicit_flag_decomposition(ch, i)
            oracle = naive_flag_decomposition(ch, i)
            assert (report.status, report.params, report.witnesses) == (
                oracle.status, oracle.params, oracle.witnesses)
            seen.add((_rule_sign(ch, i), report.status))
    # failures on the position rule, with either exponent of c0, as well as
    # off it; off it, c_0 = c0 itself escapes K u H, as phi^-1(c0) carries
    # c_2i's letters past position 6i + 2
    assert seen == {(1, "pass"), (1, "fail"), (-1, "pass"), (-1, "fail"), (None, "fail")}


def test_flag_check_folds_nothing_on_honest_chains(monkeypatch):
    def no_fold(*_):
        raise AssertionError("the flag check folded")

    monkeypatch.setattr(chain_mod, "fold_subgroup", no_fold)
    for n in range(4, 33):
        for flip in (False, True):
            ch = build_chain(n, flip)
            for i in flag_indices(n):
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


def test_not_decomposable_fails_with_each_witness():
    # d_n = a0 breaks the sign rule and joins c0 in a basis; at odd n,
    # d_n = c0^-1 breaks only the sign rule, as the pair stays dependent
    for n in (1, 2, 3):
        ch, sign = build_chain(n), (-1) ** (n + 1)
        a0 = ch.alphabet.word("a0")
        report = verify_not_decomposable(chain_mod.SurfaceChain(n, ch.c, a0, False))
        assert report.status == "fail"
        assert report.witnesses == [
            f"exponent vector of d_n is {exponent_vector(a0)}, not {sign} * vec(c0)",
            "the pair (c0, d_n) is abelian basis-extendable",
        ]
        dn = invert(ch.c[0])
        report = verify_not_decomposable(chain_mod.SurfaceChain(n, ch.c, dn, False))
        if n % 2:
            assert report.status == "fail"
            assert report.witnesses == [
                f"exponent vector of d_n is {exponent_vector(dn)}, not 1 * vec(c0)"]
        else:
            assert report.passed


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
    # the three parts must partition the names: none missing, shared or foreign
    for parts in ((["x"], ["z"], []), (["x", "y"], ["y", "z"], []),
                  (["x", "y"], ["z"], ["z"]), (["x", "y", "w"], ["z"], [])):
        with pytest.raises(ValueError, match="partition"):
            dehn_twist_family(xyz, *parts, xyz.gen("x"), 1)
    # a name repeated within one part is still a partition
    twist = dehn_twist_family(xyz, ["x", "x", "y"], ["z"], [], xyz.gen("x"), 1)
    assert str(twist.apply(xyz.word("z"))) == "x z x^-1"
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
    # N = 0 compares no pair, and an empty comparison is no evidence
    for N in (0, -1):
        with pytest.raises(ValueError, match="N >= 1"):
            orbit_distinct_check(lambda k: same, x, N)


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


def test_scan_stops_at_an_empty_level():
    # a part of trivial words has no element past level 0, so the scan ends
    # there instead of stepping through max_len empty levels
    e = Alphabet.parse("a0,b0").identity()
    report = cross_conjugacy_scan([e], [e], 10**12)
    assert report.status == "pass"
    assert report.params["classes_1"] == report.params["classes_2"] == 0
    b = Alphabet.parse("a0,b0").word("b0")
    assert cross_conjugacy_scan([e], [b], 10**12).status == "budget-exhausted"


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
    original = chain_mod._cyclic_key

    def counted(codes):
        keyed.append(codes)
        return original(codes)

    monkeypatch.setattr(chain_mod, "_cyclic_key", counted)
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
            # every depth at n = 2 and 4, since the random trials above stop at
            # max_len 4 on words of at most 4 letters: the last-level skip then
            # runs on the 13-letter c_2 at each depth
            for max_len in range(1 if n < 8 else 6, 7):
                keyed.clear()
                got = cross_conjugacy_scan(*parts, max_len)
                want = naive_cross_conjugacy_scan(*parts, max_len)
                assert _scan_key(got) == _scan_key(want), (n, flip, max_len)
            assert got.params["classes_1"] == got.params["classes_2"] == 3506
            # the parts are free bases: one key per class, none for the rest
            # of the 2 x 23,436 elements
            assert len(keyed) == 2 * 3506


def test_scan_counts_classes_not_keyed_elements(monkeypatch):
    keyed = []
    original = chain_mod._cyclic_key

    def counted(codes):
        keyed.append(codes)
        return original(codes)

    monkeypatch.setattr(chain_mod, "_cyclic_key", counted)
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


def test_unknown_lemma_raises_value_error_naming_the_lemmas():
    with pytest.raises(ValueError, match="unknown lemma 'bogus'") as info:
        run_checks(build_chain(2), "bogus")
    for name in ("all", *CHECKS):
        assert name in str(info.value)


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
