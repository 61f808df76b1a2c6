"""The chained-surface witness construction and its certificate checks.

``build_chain(n)`` realizes, inside the free group on
``c0, a0, b0, t0, a1, b1, ..., t(n-1), an, bn``, the family of genus-one
two-boundary surface pieces H_i = <a_i, b_i, c_i, d_i | c_i d_i [a_i,b_i]>
glued along boundaries by stable letters:

    d_i = c_i^-1 [a_i, b_i]^-1          (the surface relation, solved for d_i)
    c_{i+1} = d_i ** t_i = t_i^-1 d_i t_i

The recursion direction is a real choice: conjugating by t_i^-1 instead
produces an isomorphic group (swap each t_i for its inverse), but only one
of the two closes the glued-surface relator that ``surface_rewrite``
computes.  ``build_chain`` defaults to the closing one and
``verify_surface_rewrite`` checks that exactly one of the two does close.

Every verifier returns a structured VerificationReport so callers can emit
witnesses on failure instead of a bare boolean.  ``CHECKS`` is the registry
of those checks by lemma name, each with the depths n it applies to and its
runner; ``run_checks`` runs one or all of them for ``freefold verify``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .abelian import exponent_vector, is_basis_extendable_abelian
from .graphs import fold_subgroup, is_basis_of_ambient
from .whitehead import Automorphism
from .words import (
    Alphabet,
    AlphabetMismatch,
    DegenerateInput,
    Word,
    commutator,
    conjugate,
    cyclic_canonical,
    invert,
    multiply,
    restrict_word,
    root,
)

PASS = "pass"
FAIL = "fail"
BUDGET = "budget-exhausted"

DEFAULT_SCAN_CAP = 10**5


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one certificate check."""

    check: str
    params: dict
    status: str
    witnesses: list[str]
    elapsed_ms: int

    def __post_init__(self):
        if self.status not in (PASS, FAIL, BUDGET):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and not self.witnesses:
            raise ValueError("a failing report must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "status": self.status,
            "witnesses": list(self.witnesses),
            "elapsed_ms": self.elapsed_ms,
        }

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        return VerificationReport(
            d["check"], d["params"], d["status"], d["witnesses"], d["elapsed_ms"]
        )


def _finish(check: str, params: dict, witnesses: list[str], started: float,
            status: str | None = None) -> VerificationReport:
    elapsed = int((time.perf_counter() - started) * 1000)
    if status is None:
        status = FAIL if witnesses else PASS
    return VerificationReport(check, params, status, witnesses, elapsed)


@dataclass(frozen=True)
class SurfaceChain:
    """Derived-element table of the glued-surface group of depth n."""

    n: int
    alphabet: Alphabet
    c: tuple[Word, ...]
    d: tuple[Word, ...]
    s: tuple[Word, ...]
    inverted_stable_letters: bool = False

    @cached_property
    def generators(self) -> list[Word]:
        return self.alphabet.generators()

    @cached_property
    def h_tuples(self) -> tuple[tuple[Word, Word, Word], ...]:
        """The basis (a_i, b_i, c_i) of each surface piece H_i."""
        return tuple((self.a(i), self.b(i), c_i) for i, c_i in enumerate(self.c))

    def _letter(self, i: int, position: int) -> Word:
        if i < 0 or position >= len(self.generators):
            raise AlphabetMismatch(f"index {i} is outside the depth-{self.n} chain")
        return self.generators[position]

    def a(self, i: int) -> Word:
        return self._letter(i, 3 * i + 1)

    def b(self, i: int) -> Word:
        return self._letter(i, 3 * i + 2)

    def t(self, i: int) -> Word:
        return self._letter(i, 3 * i + 3)


def chain_alphabet(n: int) -> Alphabet:
    """The letter layout: c0 at 0, then t_{i-1}, a_i, b_i at 3i, 3i + 1, 3i + 2."""
    names = ["c0", "a0", "b0"]
    for i in range(1, n + 1):
        names += [f"t{i - 1}", f"a{i}", f"b{i}"]
    return Alphabet(names)


def build_chain(n: int, inverted_stable_letters: bool = False) -> SurfaceChain:
    if n < 0:
        raise ValueError("n must be nonnegative")
    alphabet = chain_alphabet(n)
    letters = alphabet.generators()
    c = [letters[0]]
    d: list[Word] = []
    s: list[Word] = []
    acc = alphabet.identity()
    for i in range(n + 1):
        a_i, b_i = letters[3 * i + 1], letters[3 * i + 2]
        d.append(multiply(invert(c[i]), invert(commutator(a_i, b_i))))
        if i < n:
            t_i = letters[3 * i + 3]
            twist = invert(t_i) if inverted_stable_letters else t_i
            c.append(conjugate(d[i], twist))
            acc = multiply(acc, t_i)
            s.append(invert(acc))
    return SurfaceChain(n, alphabet, tuple(c), tuple(d), tuple(s), inverted_stable_letters)


def _require(lemma: str, n: int) -> None:
    reason = CHECKS[lemma].skip(n)
    if reason is not None:
        raise ValueError(reason)


def verify_relation_chain(chain: SurfaceChain) -> VerificationReport:
    """Executable form of the surface relations and the gluing recursion."""
    started = time.perf_counter()
    witnesses = []
    for i in range(chain.n + 1):
        residue = multiply(
            multiply(chain.c[i], chain.d[i]), commutator(chain.a(i), chain.b(i))
        )
        if residue:
            witnesses.append(f"i={i}: c d [a,b] = {residue}")
    for i in range(chain.n):
        expected = conjugate(chain.d[i], chain.t(i))
        if chain.c[i + 1] != expected:
            witnesses.append(f"i={i + 1}: c differs from d^t = {expected}")
    return _finish("relation_chain", {"n": chain.n}, witnesses, started)


def complement_basis(chain: SurfaceChain, j: int) -> list[Word]:
    """Basis of the explicit complement N_j of <d_j>:
    N_0 = <a0, b0>, N_j = N_{j-1} * <t_{j-1}> * <a_j, b_j>: positions 1 ... 3j + 2."""
    return chain.generators[1: 3 * j + 3]


def verify_free_factor_chain(chain: SurfaceChain) -> VerificationReport:
    """Each stage is a free factor of the next, with an explicit complement.

    The stage-k letters extended by {t_k, a_{k+1}, b_{k+1}} are the stage-(k+1)
    letters, a basis by construction, so the check only asks that the
    alphabet list those three letters, in any order, right after the
    stage-k letters: each stage is then a prefix of the alphabet.  For
    0 <= k < n the complement N_k * <t_k> extended by {a_{k+1}, b_{k+1},
    c_{k+1}} is certified a basis of the stage-(k+1) group: its words must
    lie in that prefix, and with the letters after the prefix appended they
    must be a basis of the whole group (``is_basis_of_ambient``).  The two
    are equivalent.  The whole group is the free product of the stage group
    and the free group on the later letters.  A basis of each factor is a
    basis of the product.  Conversely, the retraction onto the stage group
    that kills the later letters maps the extended set onto the candidate
    and 1s, so the candidate generates the stage group; it has the stage's
    rank, so it is a basis (free groups are Hopfian).  Only a c-word over
    another alphabet object than the chain's is re-expressed, by name.
    """
    _require("freefactor", chain.n)
    started = time.perf_counter()
    witnesses = []
    alphabet = chain.alphabet
    layout = chain_alphabet(chain.n).names
    # N_k is the first 3k + 2 words of N_{n-1}, so it is built once
    complements = complement_basis(chain, chain.n - 1)
    for k in range(chain.n):
        stage = 3 * (k + 2)
        if set(alphabet.names[stage - 3: stage]) != set(layout[stage - 3: stage]):
            witnesses.append(f"k={k}: stage-k letters are not followed by (t, a, b)")
        c_next = chain.c[k + 1]
        if c_next.alphabet is not alphabet:
            c_next = restrict_word(c_next, alphabet)
        gens = complements[: 3 * k + 2] + chain.generators[stage - 3: stage] + [c_next]
        if max(max(w.letters, default=0) for w in gens) >= 2 * stage:
            raise AlphabetMismatch(f"k={k}: a complement word lies outside stage {k + 1}")
        if not is_basis_of_ambient(gens + chain.generators[stage:], alphabet):
            witnesses.append(f"k={k}: complement basis with (a, b, c) fails")
    if alphabet.rank != len(layout):
        witnesses.append(f"alphabet has rank {alphabet.rank}, expected {len(layout)}")
    return _finish("free_factor_chain", {"n": chain.n}, witnesses, started)


@dataclass(frozen=True)
class SurfaceRewrite:
    """Change of basis exhibiting one glued surface plus free stable letters."""

    new_basis: list[Word]
    identity_residue: Word
    dblprime_residue: Word


def surface_rewrite(chain: SurfaceChain) -> SurfaceRewrite:
    """Rewrite the depth-n chain (n even) as one surface relator.

    Conjugating the stage-i handles by s_{i-1}, with s_i the inverse of
    t_0 ... t_i, turns the nested gluing into the single relator

        c0 = [b0,a0] [b'_2,a'_2] ... [b'_n,a'_n] (d'_n)^-1
             [a'_{n-1},b'_{n-1}] ... [a'_1,b'_1]

    and conjugating the odd-index handles once more by d'_n pushes the
    boundary word to the far end.  identity_residue and dblprime_residue are
    the free reductions of c0^-1 times each right-hand side; both must come
    out empty.  They are the same reduced word, as
    [a''_j,b''_j] = d'^-1 [a'_j,b'_j] d', so the second recomputes the first
    through the double-primed handles of the new basis.
    """
    n = chain.n
    _require("surface", n)
    a_p: dict[int, Word] = {}
    b_p: dict[int, Word] = {}
    for i in range(1, n + 1):
        a_p[i] = conjugate(chain.a(i), chain.s[i - 1])
        b_p[i] = conjugate(chain.b(i), chain.s[i - 1])
    d_np = conjugate(chain.d[n], chain.s[n - 1])
    a_pp: dict[int, Word] = {}
    b_pp: dict[int, Word] = {}
    for j in range(1, n, 2):
        a_pp[j] = conjugate(a_p[j], d_np)
        b_pp[j] = conjugate(b_p[j], d_np)

    prefix = commutator(chain.b(0), chain.a(0))
    for j in range(2, n + 1, 2):
        prefix = multiply(prefix, commutator(b_p[j], a_p[j]))
    rhs, rhs_pp = multiply(prefix, invert(d_np)), prefix
    for j in range(n - 1, 0, -2):
        rhs = multiply(rhs, commutator(a_p[j], b_p[j]))
        rhs_pp = multiply(rhs_pp, commutator(a_pp[j], b_pp[j]))
    rhs_pp = multiply(rhs_pp, invert(d_np))
    c0_inv = invert(chain.c[0])

    new_basis = [chain.a(0), chain.b(0)]
    for j in range(1, n + 1):
        new_basis.append(chain.t(j - 1))
        if j % 2:
            new_basis += [a_pp[j], b_pp[j]]
        else:
            new_basis += [a_p[j], b_p[j]]
    new_basis.append(d_np)
    return SurfaceRewrite(new_basis, multiply(c0_inv, rhs), multiply(c0_inv, rhs_pp))


def verify_surface_rewrite(chain: SurfaceChain) -> VerificationReport:
    """Certify the rewrite: empty residues, a genuine new basis, and that
    exactly one of the two gluing conventions closes the relator."""
    started = time.perf_counter()
    n = chain.n
    witnesses = []
    rw = surface_rewrite(chain)
    if rw.identity_residue:
        witnesses.append(f"primed residue: {rw.identity_residue}")
    if rw.dblprime_residue:
        witnesses.append(f"double-primed residue: {rw.dblprime_residue}")
    if not is_basis_of_ambient(rw.new_basis, chain.alphabet):
        witnesses.append("rewritten generating set is not a basis")
    flipped = build_chain(n, inverted_stable_letters=not chain.inverted_stable_letters)
    other = surface_rewrite(flipped)
    if bool(rw.identity_residue) == bool(other.identity_residue):
        witnesses.append(
            "conventions are not separated: flipped-residue "
            f"{'empty' if not other.identity_residue else str(other.identity_residue)}"
        )
    params = {
        "n": n,
        "basis_size": len(rw.new_basis),
        "inverted_stable_letters": int(chain.inverted_stable_letters),
    }
    return _finish("surface_rewrite", params, witnesses, started)


def flag_indices(n: int) -> range:
    """The flag indices i valid at depth n: 1 <= i and 2i + 2 <= n."""
    return range(1, n // 2)


def flag_parts(chain: SurfaceChain, i: int) -> tuple[list[Word], list[Word], list[Word]]:
    """The free factors K, H, L at stage 2i: letters 1..6i; 6i+1, 6i+2, c_2i; 6i+3 on."""
    if i not in flag_indices(chain.n):
        raise ValueError(f"flag index i={i} out of range for n={chain.n}")
    g = chain.generators
    return g[1: 6 * i + 1], g[6 * i + 1: 6 * i + 3] + [chain.c[2 * i]], g[6 * i + 3:]


def explicit_flag_decomposition(chain: SurfaceChain, i: int) -> VerificationReport:
    """Certify the decomposition into K * H * L separating the witness tuples.

    (a) the concatenated part bases form a basis of the whole group,
    (b) the tuples below stage 2i lie in <K u H>,
    (c) the tuple at stage 2(i+1) lies in <H u L>.
    """
    started = time.perf_counter()
    k_part, h_part, l_part = flag_parts(chain, i)
    witnesses = []
    if not is_basis_of_ambient(k_part + h_part + l_part, chain.alphabet):
        witnesses.append("K u H u L is not a basis of the ambient group")
    kh = fold_subgroup(k_part + h_part, chain.alphabet)
    for j in range(0, 2 * (i - 1) + 1, 2):
        for w in chain.h_tuples[j]:
            if not kh.contains(w):
                witnesses.append(f"stage-{j} entry {w} escapes K u H")
    hl = fold_subgroup(h_part + l_part, chain.alphabet)
    for w in chain.h_tuples[2 * (i + 1)]:
        if not hl.contains(w):
            witnesses.append(f"stage-{2 * (i + 1)} entry {w} escapes H u L")
    return _finish(
        "flag_decomposition", {"n": chain.n, "i": i}, witnesses, started
    )


def verify_not_decomposable(chain: SurfaceChain) -> VerificationReport:
    """Abelian obstruction: the two boundary words cannot join a basis.

    In the abelianization c_i + d_i = 0 and d_i = c_{i+1}, so the exponent
    vector of d_n is (-1)^(n+1) times that of c_0 and the pair is never
    lattice-basis extendable.
    """
    _require("abelian", chain.n)
    started = time.perf_counter()
    witnesses = []
    vec_c0 = exponent_vector(chain.c[0])
    vec_dn = exponent_vector(chain.d[chain.n])
    sign = (-1) ** (chain.n + 1)
    if vec_dn != tuple(sign * x for x in vec_c0):
        witnesses.append(f"exponent vector of d_n is {vec_dn}, not {sign} * vec(c0)")
    if is_basis_extendable_abelian([vec_c0, vec_dn]):
        witnesses.append("the pair (c0, d_n) is abelian basis-extendable")
    return _finish("abelian_obstruction", {"n": chain.n}, witnesses, started)


def dehn_twist_family(
    alphabet: Alphabet,
    h_part: Iterable[str],
    k_part: Iterable[str],
    hnn_letters: Iterable[str],
    c: Word,
    n: int,
) -> Automorphism:
    """Identity on one side, conjugation by c^n on the other, t -> c^n t on
    stable letters.  c must be a word in the fixed side."""
    h_set, k_set, t_set = set(h_part), set(k_part), set(hnn_letters)
    names = set(alphabet.names)
    if (
        h_set | k_set | t_set != names
        or h_set & k_set
        or h_set & t_set
        or k_set & t_set
    ):
        raise ValueError("h_part, k_part and hnn_letters must partition the alphabet")
    if c.alphabet != alphabet:
        raise AlphabetMismatch("twisting word over the wrong alphabet")
    h_indices = {alphabet.index(x) for x in h_set}
    if any((code >> 1) not in h_indices for code in c.letters):
        raise ValueError("the twisting word must lie in the fixed part")
    cn = c ** n
    cn_inv = invert(cn)
    images, inverse = [], []
    for name, x in zip(alphabet.names, alphabet.generators()):
        if name in h_set:
            images.append(x)
            inverse.append(x)
        elif name in k_set:
            images.append(multiply(multiply(cn, x), cn_inv))
            inverse.append(multiply(multiply(cn_inv, x), cn))
        else:
            images.append(multiply(cn, x))
            inverse.append(multiply(cn_inv, x))
    return Automorphism(alphabet, images, inverse)


def orbit_distinct_check(
    family: Callable[[int], Automorphism],
    g: Word,
    N: int,
    check_suffix: str = "",
) -> VerificationReport:
    """Images of g under family(0..N) must be pairwise non-conjugate with
    pairwise distinct centralizers."""
    if not g:
        raise DegenerateInput("orbit check needs a nontrivial element")
    started = time.perf_counter()
    images = [family(k).apply(g) for k in range(N + 1)]
    keys = [cyclic_canonical(w).letters for w in images]
    roots = [root(w)[0] for w in images]
    inverse_roots = [invert(r) for r in roots]
    params = {"N": N}
    check = "orbit_distinct" + (f"[{check_suffix}]" if check_suffix else "")
    for p in range(N + 1):
        for q in range(p + 1, N + 1):
            # conjugate, or <root> equal: the tests of words.is_conjugate
            # and words.centralizer_equal, on forms computed once per image
            if keys[p] == keys[q] or roots[p] in (roots[q], inverse_roots[q]):
                params = {**params, "p": p, "q": q}
                return _finish(
                    check, params, [str(images[p]), str(images[q])], started
                )
    return _finish(check, params, [], started)


def _side_classes(part: Sequence[Word], max_len: int, cap: int):
    """The conjugacy classes met in one side's ball, each with its first
    element in breadth-first order, or None once more than cap distinct
    nontrivial elements appear.  See ``cross_conjugacy_scan``."""
    if not part:
        return {}
    identity = part[0].alphabet.identity()
    letters = []
    for w in part:
        letters += [w, invert(w)]
    # On a free basis the ball's size is known and every element is its own
    # first discovery: no seen set, and no branch that cannot reach a key.
    free = all(part) and fold_subgroup(part).rank() == len(part)
    if free:
        size, level = 0, len(letters)
        for _ in range(max_len):
            size += level
            if size > cap:
                return None
            level *= len(letters) - 1
    else:
        seen = {identity.letters}
    classes: dict[tuple, Word] = {}
    # entries (element, discovering sequence seq, p): p is the length of the
    # longest Lyndon prefix of seq, or 0 if seq is no prefix of a necklace
    frontier = [(identity, (), 1)]
    for m in range(max_len):
        last = m + 1 == max_len
        nxt = []
        for w, seq, p in frontier:
            # w times letters[back] is the element w was discovered from
            back = seq[-1] ^ 1 if seq else -1
            for i, l in enumerate(letters):
                if i == back:
                    continue
                s = seq + (i,)
                # s is a prefix of a necklace iff i >= s[m - p]; its longest
                # Lyndon prefix is then p long (i equal) or all of s (greater)
                q = p and (0 if i < s[m - p] else p if i == s[m - p] else m + 1)
                keyed = q and (m + 1) % q == 0 and s[0] != i ^ 1
                if free and not keyed and (last or not q):
                    continue
                prod = multiply(w, l)
                if not free:
                    if prod.letters in seen:
                        continue
                    seen.add(prod.letters)
                    if len(seen) - 1 > cap:
                        return None
                if keyed:
                    classes.setdefault(cyclic_canonical(prod).letters, prod)
                if not last:
                    nxt.append((prod, s, q))
        frontier = nxt
    return classes


def cross_conjugacy_scan(
    part1: Sequence[Word],
    part2: Sequence[Word],
    max_len: int,
    element_cap: int = DEFAULT_SCAN_CAP,
) -> VerificationReport:
    """Desk-scale conjugacy separation of two subgroups.

    Enumerates every nontrivial element of each subgroup that is a product
    of at most max_len subgroup-basis letters, dedupes each side by
    canonical cyclic form, and passes iff no class appears on both sides.
    max_len and element_cap must be at least 1: an empty scan is no evidence.
    Every word of both parts must lie over one alphabet (AlphabetMismatch).

    Each side is one breadth-first scan over the letters
    ``[w0, w0^-1, w1, w1^-1, ...]``, counting distinct elements by their
    letters, and the report is budget-exhausted as soon as more than
    element_cap of them are nontrivial.  Each element carries the index
    sequence that first produced it, its discovering sequence, and the scan
    keys only elements whose discovering sequence is cyclically reduced
    (its first index is not the inverse of its last) and the least of its
    own rotations, a necklace.  The necklace test is O(1) per element: a
    prefix of a necklace is one exactly when the length of its longest
    Lyndon prefix divides its length, and that length follows from the
    parent's (the fundamental theorem of necklaces of Cattell, Ruskey,
    Sawada, Serra and Miers, J. Algorithms 2000, which rests on Duval's
    Lyndon factorization like ``words._least_rotation``).  The last level
    is counted and keyed but not kept as a frontier.  That keys each class
    of the ball at its first element:

    1. A discovering sequence is the (length, lex)-least index sequence
       whose product is its element, and elements are met in that order:
       the scan expands the previous level in that order, each by the
       letters in index order, and a product that comes back to an element
       already seen is never its first discovery.  (So skipping the index
       that undoes the last one, which gives the parent, changes nothing.)
    2. Let g be the first element of the ball in a class, with discovering
       sequence s.  If s = i t i^-1, the product of t is conjugate to g,
       so nontrivial, and has a sequence two letters shorter, so it is met
       before g.  If a
       rotation r of s is lex-smaller, the product of r is conjugate to g
       and its own discovering sequence is at most r < s, so it is met
       before g.  Both contradict the choice of g, so g is keyed.

    Keys go in with ``setdefault`` in breadth-first order, so each class
    keeps its first element, as when every element of the ball was keyed:
    the class counts, the status and the witnesses are unchanged.  On a
    free basis the keyed elements are one per conjugacy class of the
    subgroup, and classes of the subgroup can merge in the ambient group:
    the basis x1 x0 x1^-1 x0, x1^-1 x0 x1 x0 keys all four of its length-1
    elements, which fall into 2 classes (8 at max_len 2).  So classes are
    counted by their keys, never by keyed elements.

    A part of k nontrivial words whose subgroup has rank k (its folded
    graph, Kapovich and Myasnikov, J. Algebra 2002) is a free basis of it:
    the subgroup is free of rank k and generated by k elements, and free
    groups are Hopfian.  Then distinct reduced index sequences are distinct
    nontrivial elements, every sequence is its element's discovering one,
    and the ball holds exactly sum_{m=1}^{max_len} 2k (2k-1)^(m-1) of them.
    The scan of such a part decides the budget from that sum, added length
    by length until it passes element_cap (so a huge max_len costs a few
    steps), and keeps no set of seen elements.  It builds only the products
    it keys or expands: a sequence that is no prefix of a necklace has no
    extension that is one, so it and its whole subtree are never keyed and
    are skipped, and at the last level only keyed sequences are multiplied.
    The keyed elements, their order and their ``setdefault`` are those of
    the full scan, so the report is unchanged.  At max_len 6 on a rank-3
    basis that is 3,909 products of the ball's 23,436.  Other parts (a
    trivial word, a repeat, a power) take the full scan above.
    """
    if min(max_len, element_cap) < 1:
        raise ValueError(f"scan needs max_len, element_cap >= 1, got {max_len}, {element_cap}")
    if len({w.alphabet for w in (*part1, *part2)}) > 1:
        raise AlphabetMismatch("scan parts over mixed alphabets")
    started = time.perf_counter()
    params = {"max_len": max_len, "element_cap": element_cap}
    sides = []
    for part in (part1, part2):
        classes = _side_classes(part, max_len, element_cap)
        if classes is None:
            return _finish(
                "conjugacy_separation", params, [], started, status=BUDGET
            )
        sides.append(classes)
    common = sorted(set(sides[0]) & set(sides[1]))
    witnesses = []
    if common:
        key = common[0]
        witnesses = [str(sides[0][key]), str(sides[1][key])]
    params = {**params, "classes_1": len(sides[0]), "classes_2": len(sides[1])}
    return _finish("conjugacy_separation", params, witnesses, started)


def documented_orbit_instances() -> list[tuple[str, Callable[[int], Automorphism], Word, int]]:
    """The two fixed twist-orbit instances exercised by the test harness:
    an edge-group twist on an amalgam-shaped splitting and a stable-letter
    twist on an HNN-shaped one."""
    amalgam = Alphabet(["x", "y", "z"])
    c1 = amalgam.gen("x")
    fam1 = lambda k: dehn_twist_family(amalgam, ["x", "y"], ["z"], [], c1, k)
    hnn = Alphabet(["x", "y", "t"])
    c2 = hnn.gen("x")
    fam2 = lambda k: dehn_twist_family(hnn, ["x", "y"], [], ["t"], c2, k)
    return [
        ("amalgam", fam1, amalgam.word("y z"), 10),
        ("hnn", fam2, hnn.word("y t"), 10),
    ]


def separation_parts(chain: SurfaceChain) -> tuple[list[Word], list[Word]]:
    """The stage-0 and stage-2 surface-piece bases inside a chain with n >= 2."""
    _require("separation", chain.n)
    return list(chain.h_tuples[0]), list(chain.h_tuples[2])


class Check(NamedTuple):
    """A registry entry: ``skip(n)`` is None if the check applies at depth n,
    else the reason it does not; ``run(chain, i, max_len, element_cap)``."""

    skip: Callable[[int], str | None]
    run: Callable[[SurfaceChain, int | None, int, int], list[VerificationReport]]


def _needs_n1(n: int) -> str | None:
    return None if n >= 1 else "needs n >= 1"


# Runners look checks up in this module's globals at call time, so a check
# rebound here (by a tracer or a test) sees every call.
CHECKS: dict[str, Check] = {
    "relation": Check(lambda n: None, lambda ch, *_: [verify_relation_chain(ch)]),
    "freefactor": Check(_needs_n1, lambda ch, *_: [verify_free_factor_chain(ch)]),
    "surface": Check(
        lambda n: None if n >= 2 and n % 2 == 0 else "n odd or below 2",
        lambda ch, *_: [verify_surface_rewrite(ch)],
    ),
    "flag": Check(
        lambda n: None if flag_indices(n) else "no valid index for this n",
        lambda ch, i, *_: [explicit_flag_decomposition(ch, j)
                           for j in (flag_indices(ch.n) if i is None else [i])],
    ),
    "abelian": Check(_needs_n1, lambda ch, *_: [verify_not_decomposable(ch)]),
    "orbit": Check(lambda n: None, lambda ch, *_: [
        orbit_distinct_check(family, g, N, check_suffix=tag)
        for tag, family, g, N in documented_orbit_instances()
    ]),
    "separation": Check(
        lambda n: None if n >= 2 else "needs n >= 2",
        lambda ch, i, max_len, cap: [cross_conjugacy_scan(*separation_parts(ch), max_len, cap)],
    ),
}


def run_checks(
    chain: SurfaceChain,
    lemma: str,
    i: int | None = None,
    max_len: int = 6,
    element_cap: int = DEFAULT_SCAN_CAP,
) -> tuple[list[VerificationReport], list[str]]:
    """Run one registered check, or all of them for ``lemma == "all"``, and
    return ``(reports, notes)``.

    Under ``all`` a check that does not apply at this depth becomes the note
    ``"<lemma> skipped: <reason>"``, and flag runs at every valid index.  A
    single lemma that does not apply raises ValueError(reason); flag alone
    needs its index i.  max_len and element_cap bound the separation scan.
    """
    if lemma != "all":
        _require(lemma, chain.n)
        if lemma == "flag" and i is None:
            raise ValueError("the flag check needs an index --i")
        return CHECKS[lemma].run(chain, i, max_len, element_cap), []
    reports: list[VerificationReport] = []
    notes: list[str] = []
    for name, check in CHECKS.items():
        reason = check.skip(chain.n)
        if reason is None:
            reports += check.run(chain, None, max_len, element_cap)
        else:
            notes.append(f"{name} skipped: {reason}")
    return reports, notes
