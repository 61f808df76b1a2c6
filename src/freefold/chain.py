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
A chain stores its c-words and d_n only: for i < n, d_i has no t_i letter,
so d_i is c_{i+1} without its end letters, read back off it when asked.

Every verifier returns a structured VerificationReport so callers can emit
witnesses on failure instead of a bare boolean.  ``CHECKS`` is the registry
of those checks by lemma name, each with the depths n it applies to and its
runner; ``run_checks`` runs one or all of them for ``freefold verify``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .abelian import exponent_vector, is_basis_extendable_abelian
from .graphs import fold_subgroup
from .whitehead import Automorphism
from .words import (
    Alphabet,
    AlphabetMismatch,
    DegenerateInput,
    Word,
    _check_alphabet,
    _cyclic_key,
    _cyclic_root,
    _inverse,
    _join_all,
    _reduced,
    _same_root,
    conjugate,
    invert,
    multiply,
)

PASS = "pass"
FAIL = "fail"
BUDGET = "budget-exhausted"

DEFAULT_SCAN_LEN = 6
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
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        return VerificationReport(**d)


def _finish(check: str, params: dict, witnesses: list[str], started: float,
            status: str | None = None) -> VerificationReport:
    elapsed = int((time.perf_counter() - started) * 1000)
    if status is None:
        status = FAIL if witnesses else PASS
    return VerificationReport(check, params, status, witnesses, elapsed)


@dataclass(frozen=True)
class SurfaceChain:
    """Derived-element table of the glued-surface group of depth n.

    A chain holds n + 1 c-words (ValueError otherwise) and d_n, all over
    ``chain_alphabet(n)`` (AlphabetMismatch otherwise), so the checks find
    each letter at its position and read letter codes directly; ``d`` reads
    the other d_i off c_{i+1}, so none can disagree with it.
    """

    n: int
    c: tuple[Word, ...]
    d_n: Word
    inverted_stable_letters: bool = False

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.c) != n + 1:
            raise ValueError(f"a depth-{n} chain has {n + 1} c-words, not {len(self.c)}")
        if self.alphabet != chain_alphabet(n):
            raise AlphabetMismatch(f"{self.alphabet!r} is not the depth-{n} chain alphabet")
        _check_alphabet(self.alphabet, *self.c, self.d_n)

    @property
    def alphabet(self) -> Alphabet:
        return self.c[0].alphabet

    @property
    def d(self) -> tuple[Word, ...]:
        """d_0 ... d_n, built on every read: each d_i with i < n is c_{i+1}
        conjugated back by its gluing letter (``verify_relation_chain``)."""
        t = self.generators[3::3]  # t_0 ... t_{n-1}
        back = t if self.inverted_stable_letters else map(invert, t)
        return (*map(conjugate, self.c[1:], back), self.d_n)

    @cached_property
    def generators(self) -> list[Word]:
        return self.alphabet.generators()

    @cached_property
    def h_tuples(self) -> tuple[tuple[Word, Word, Word], ...]:
        """The basis (a_i, b_i, c_i) of each surface piece H_i."""
        return tuple((self.a(i), self.b(i), c_i) for i, c_i in enumerate(self.c))

    @cached_property
    def h_reach(self) -> tuple[int, ...]:
        """The largest letter position in each of ``h_tuples``."""
        return tuple(max(map(_largest_position, t)) for t in self.h_tuples)

    @cached_property
    def s(self) -> tuple[Word, ...]:
        """The stable-letter products s_i = (t_0 ... t_i)^-1, for 0 <= i < n."""
        return tuple(_reduced(self.alphabet, _inverse(_stable_prefix(j)))
                     for j in range(1, self.n + 1))

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


def _glued(i: int, c_i: tuple[int, ...], t: tuple[int, ...] = ()) -> tuple[int, ...]:
    """The letters of t^-1 c_i^-1 [a_i, b_i]^-1 t, for ``t`` a gluing letter's code or ()."""
    a, b = 6 * i + 2, 6 * i + 4
    return _join_all((_inverse(t), _inverse(c_i), (b, a, b ^ 1, a ^ 1), t))


def build_chain(n: int, inverted_stable_letters: bool = False) -> SurfaceChain:
    """c_0 = c0, c_{i+1} = t_i^-e d_i t_i^e (e = -1 for inverted stable letters), and d_n."""
    c = [(0,)]
    for i in range(n):
        c.append(_glued(i, c[i], (6 * i + 6 + inverted_stable_letters,)))  # t_i^e
    alphabet = chain_alphabet(n)
    return SurfaceChain(n, tuple(_reduced(alphabet, w) for w in c),
                        _reduced(alphabet, _glued(n, c[n])), inverted_stable_letters)


def _require(lemma: str, n: int) -> None:
    reason = CHECKS[lemma].skip(n)
    if reason is not None:
        raise ValueError(reason)


def verify_relation_chain(chain: SurfaceChain) -> VerificationReport:
    """The surface relations c_i d_i [a_i, b_i] = 1 and the gluing
    c_{i+1} = d_i^(t_i), on the stored words.  The relation fixes
    d_i = c_i^-1 [a_i, b_i]^-1, so each c_{i+1} is compared letter for letter
    with t_i^-1 c_i^-1 [a_i, b_i]^-1 t_i, and c_n d_n [a_n, b_n] is reduced.
    Only the first mismatching gluing is written out as a witness, and one
    more names the other mismatching indices, so a failing report holds one
    c-word, not n of them.  The check glues by t_i in either convention, so an inverted
    chain fails at every i < n.

    On a built chain nothing cancels, in either convention, and
    d_i = c_{i+1}[1:-1] (``d``): by induction c_i has letters at positions up
    to 3i only and begins and ends with c0^(+-1) or t_{i-1}^(+-1), so
    d_i = c_i^-1 [b_i, a_i] is reduced as written, with no t_i letter (3i + 3).
    """
    started = time.perf_counter()
    n, c, alphabet = chain.n, [w.letters for w in chain.c], chain.alphabet
    a, b = 6 * n + 2, 6 * n + 4
    residue = _join_all((c[n], chain.d_n.letters, (a, b, a ^ 1, b ^ 1)))
    witnesses = [f"i={n}: c d [a,b] = {_reduced(alphabet, residue)}"] if residue else []
    bad = [i for i in range(n) if c[i + 1] != _glued(i, c[i], (6 * i + 6,))]  # t_i
    if bad:
        expected = _glued(bad[0], c[bad[0]], (6 * bad[0] + 6,))
        witnesses.append(f"i={bad[0] + 1}: c differs from d^t = {_reduced(alphabet, expected)}")
    if len(bad) > 1:
        others = ",".join(str(i + 1) for i in bad[1:])
        witnesses.append(f"i={others}: c differs from d^t as well")
    return _finish("relation_chain", {"n": n}, witnesses, started)


def _c0_once(w: Word) -> bool:
    """Whether the reduced w has one c0 letter: by the lemma below, whether
    the letters of a chain stage other than c0, with w over that stage, are
    a basis of the stage group.

    Lemma.  Let X be a free basis, x a letter of X and Y the other letters.
    Then Y u {w} is a basis of F(X) exactly when the reduced w has exactly
    one letter x^1 or x^-1, that is, when w lies in <Y> x^(+-1) <Y>.

    Proof.  If w = u x^e v with u, v words in Y, then x^e = u^-1 w v^-1 lies
    in <Y, w>, so the rank-many words generate, and they are a basis (free
    groups are Hopfian).  Let w have k != 1 letters x^(+-1).  If k = 0,
    <Y, w> = <Y> misses x.  If k >= 2, drop w's longest prefix and suffix in
    Y, which lie in <Y>: <Y, w> = <Y, x^e m x^f> with x^e m x^f reduced.
    Fold the rose on Y at the base with a path spelling x^e m x^f from the
    base to the base.  The rose takes every Y-slot of the base, and the
    path's inner vertices are new, where a reduced path folds nothing.  If
    f = e, the path's two x-edges take two different slots of the base, and
    the graph is already folded.  If f = -e, the path is an edge x^e from the
    base to a vertex p and a loop at p spelling m.  The loop folds to the
    graph of <m> based at p, whose edges at p are the first letters of
    reduced powers of m (see ``graphs.fold_subgroup``; the powers are closed
    under inversion).  Those are m's first letter and the inverse of its
    last, and neither is x^-e (x^e m x^-e is reduced), so the loop takes no
    slot of the edge x^e at p.  In both cases the graph is folded, and x^e
    leads from the base to another vertex: x does not lie in <Y, w>.

    In the chain x is c0, the letter at position 0, with codes 0 and 1.
    """
    return w.letters.count(0) + w.letters.count(1) == 1


def verify_free_factor_chain(chain: SurfaceChain) -> VerificationReport:
    """Each stage is a free factor of the next, with an explicit complement.

    The stage-k letters extended by {t_k, a_{k+1}, b_{k+1}} are the stage-(k+1)
    letters, a basis by construction: the chain's alphabet is
    ``chain_alphabet(n)``, so each stage is a prefix of it.  For
    0 <= k < n the complement N_k * <t_k> extended by {a_{k+1}, b_{k+1},
    c_{k+1}} is certified a basis of the stage-(k+1) group.  N_k, the
    explicit complement of <d_k>, is N_0 = <a0, b0> and N_k = N_{k-1} *
    <t_{k-1}> * <a_k, b_k>, the letters 1 ... 3k + 2, so the candidate is
    every stage-(k+1) letter but c0, plus c_{k+1}.  A c_{k+1} with a letter
    outside the stage, past position 3k + 5 (``h_reach``, as a_{k+1} and
    b_{k+1} sit at 3k + 4 and 3k + 5), does not lie in the stage group, so
    the candidate is no basis of it, a false claim reported as a witness;
    inside the stage, it is one exactly when c_{k+1} has one c0 letter
    (``_c0_once``).
    """
    _require("freefactor", chain.n)
    started = time.perf_counter()
    witnesses = []
    for k in range(chain.n):
        if chain.h_reach[k + 1] > 3 * k + 5:
            witnesses.append(f"k={k}: c_{k + 1} has a letter outside stage {k + 1}")
        elif not _c0_once(chain.c[k + 1]):
            witnesses.append(f"k={k}: complement basis with (a, b, c) fails")
    return _finish("free_factor_chain", {"n": chain.n}, witnesses, started)


@dataclass(frozen=True)
class SurfaceRewrite:
    """Change of basis exhibiting one glued surface plus free stable letters."""

    new_basis: list[Word]
    identity_residue: Word


def _stable_prefix(j: int) -> tuple[int, ...]:
    """The letters of t_0 ... t_{j-1}, that is s_{j-1}^-1 (by
    ``chain_alphabet``, t_i has the code 6i + 6)."""
    return tuple(range(6, 6 * j + 1, 6))


def _d_prime(n: int, d_n: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of d'_n = s_{n-1}^-1 d_n s_{n-1}, with ``d_n`` for the
    chain's d_n, reduced from three pieces."""
    p = _stable_prefix(n)
    return _join_all((p, d_n, _inverse(p)))


def _relator_residue(n: int, c0: tuple[int, ...], d_n: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of the identity residue of ``surface_rewrite``'s relator
    at depth n, with ``c0`` and ``d_n`` for the chain's c_0 and d_n, from
    O(n) pieces of O(1) letters (``verify_surface_rewrite``).

    By ``chain_alphabet``, a_j, b_j and t_j have the codes 6j + 2, 6j + 4
    and 6j + 6, and their inverses one more.
    """
    pieces = [_inverse(c0), (4, 2, 5, 3)]
    for j in range(2, n + 1, 2):  # t_{j-2} t_{j-1} [b_j, a_j]
        a, b = 6 * j + 2, 6 * j + 4
        pieces.append((6 * j - 6, 6 * j, b, a, b ^ 1, a ^ 1))
    pieces.append(_inverse(d_n))
    for j in range(n - 1, 0, -2):  # t_j^-1 [a_j, b_j] t_{j-1}^-1
        a, b = 6 * j + 2, 6 * j + 4
        pieces.append((6 * j + 7, a, b, a ^ 1, b ^ 1, 6 * j + 1))
    return _join_all(pieces)


def surface_rewrite(chain: SurfaceChain) -> SurfaceRewrite:
    """Rewrite the depth-n chain (n even) as one surface relator.

    Conjugating the stage-i handles by s_{i-1}, with s_i the inverse of
    t_0 ... t_i, turns the nested gluing into the single relator

        c0 = [b0,a0] [b'_2,a'_2] ... [b'_n,a'_n] (d'_n)^-1
             [a'_{n-1},b'_{n-1}] ... [a'_1,b'_1]

    and identity_residue is the free reduction of c0^-1 times the right-hand
    side, empty when the relator closes (``_relator_residue``).  The handle
    a'_j = p a_j p^-1, with p = t_0 ... t_{j-1} (``_stable_prefix``), is
    reduced as it stands, and so is b'_j.  The new basis conjugates the
    odd-index handles once more by d'_n, a''_j = d'^-1 a'_j d', which
    pushes the boundary word to the far end: as
    [a''_j,b''_j] = d'^-1 [a'_j,b'_j] d', the same residue reads
    c0^-1 [b0,a0] ... [b'_n,a'_n] [a''_{n-1},b''_{n-1}] ... [a''_1,b''_1] d'^-1
    off the new basis.
    """
    _require("surface", chain.n)
    n, alphabet = chain.n, chain.alphabet
    d_n = chain.d_n.letters
    d_np = _reduced(alphabet, _d_prime(n, d_n))
    new_basis = [chain.a(0), chain.b(0)]
    for j in range(1, n + 1):
        p = _stable_prefix(j)
        handle = [_reduced(alphabet, p + x.letters + _inverse(p)) for x in (chain.a(j), chain.b(j))]
        new_basis.append(chain.t(j - 1))
        new_basis += [conjugate(w, d_np) for w in handle] if j % 2 else handle
    new_basis.append(d_np)
    residue = _relator_residue(n, chain.c[0].letters, d_n)
    return SurfaceRewrite(new_basis, _reduced(alphabet, residue))


def _last_boundary(n: int, inverted_stable_letters: bool) -> tuple[int, ...]:
    """The letters of ``build_chain(n, inverted_stable_letters).d_n``, in O(n),
    without the c-words.

    With t_i^e the gluing letter (the code 6i + 6, or 6i + 7 when the stable
    letters are inverted), c_0 = c0, c_{i+1} = t_i^-e c_i^-1 [b_i, a_i] t_i^e
    and d_n = c_n^-1 [b_n, a_n]: n + 1 steps, each of which inverts the word
    so far and puts O(1) letters at its ends, where nothing cancels
    (``verify_relation_chain``).  The word is kept in a deque with a flag for
    whether the deque holds it or its inverse, so no step copies it.
    """
    word, backwards = deque([0]), False
    for i in range(n + 1):
        a, b, t = 6 * i + 2, 6 * i + 4, 6 * i + 6 + inverted_stable_letters  # a_i, b_i, t_i^e
        backwards = not backwards
        head, tail = ((t ^ 1,), (b, a, b ^ 1, a ^ 1, t)) if i < n else ((), (b, a, b ^ 1, a ^ 1))
        if backwards:  # put head before and tail after the inverse of the deque
            head, tail = _inverse(tail), _inverse(head)
        word.extendleft(reversed(head))
        word.extend(tail)
    letters = tuple(word)
    return _inverse(letters) if backwards else letters


def verify_surface_rewrite(chain: SurfaceChain) -> VerificationReport:
    """Certify the rewrite: an empty residue, a genuine new basis, and that
    exactly one of the two gluing conventions closes the relator.

    The check costs O(n) letters: it reads c_0 and d_n of the chain and
    builds the other convention's d_n, and it neither reads ``chain.s``
    (O(n^2) letters) nor builds another chain.

    Own residue.  The relator's pieces are c0^-1, [b0,a0], the ascending
    even handles [b'_j,a'_j] = s_{j-1}^-1 [b_j,a_j] s_{j-1}, then
    d'_n^-1 = s_{n-1}^-1 d_n^-1 s_{n-1}, then the descending odd handles
    [a'_j,b'_j] = s_{j-1}^-1 [a_j,b_j] s_{j-1}.  The conjugators of
    neighbouring pieces meet and cancel to a few t letters (s_{j-1}^-1 =
    t_0 ... t_{j-1}): s_{j-1} s_{j+1}^-1 = t_j t_{j+1} between ascending
    stages, s_{j-1} s_{j-3}^-1 = t_{j-1}^-1 t_{j-2}^-1 between descending
    ones, nothing before d'_n^-1 (the conjugator of stage n is s_{n-1}), and
    s_{n-1} s_{n-2}^-1 = t_{n-1}^-1 after it.  The outer ends leave
    s_1^-1 = t_0 t_1 before stage 2 and s_0 = t_0^-1 at the end.  So the
    relator equals, in the free group, the product of c0^-1, [b0,a0],
    t_{j-2} t_{j-1} [b_j,a_j] for even j, d_n^-1 and
    t_j^-1 [a_j,b_j] t_{j-1}^-1 for odd j descending
    (``_relator_residue``), and a free reduction of either product gives
    the same reduced word.  d'_n is reduced from three pieces in the same
    way (``_d_prime``).

    The other convention's residue.  The residue reads s from t letters
    alone, so the same t pieces serve both conventions, and the other one's
    residue is ``_relator_residue`` with c0 and that convention's d_n,
    which ``_last_boundary`` unrolls.  It is built from scratch, never from
    the chain handed in.

    Neither convention's new basis is built: the basis of
    ``surface_rewrite`` has 3n + 3 words (a0, b0, then t_{j-1} and a handle
    for each j, then d'_n).
    The new basis is a basis exactly when d'_n, its last word, has one c0
    letter (``_c0_once``).  Each s_{j-1} is a word in t letters, which
    psi: a_j -> a'_j, b_j -> b'_j (j >= 1) fixes with every other letter,
    so psi is an automorphism, with inverse a_j -> s_{j-1} a_j s_{j-1}^-1.
    Both map the subgroup on the letters other than c0 onto itself, so
    psi^-1 keeps each stretch between two c0 letters of a reduced word
    nontrivial, and keeps the count of c0 letters.  The primed set (a0, b0,
    the t letters, every a'_j, b'_j, and d'_n) is psi of the letters other
    than c0 with psi^-1(d'_n), so by the lemma of ``_c0_once`` it is a
    basis exactly when psi^-1(d'_n), that is d'_n, has one c0 letter.
    Conjugating the odd handles by d'_n, itself in the set, leaves the
    generated subgroup and the number of words unchanged, and rank-many
    generators of a free group are a basis (free groups are Hopfian).
    """
    started = time.perf_counter()
    n = chain.n
    _require("surface", n)
    witnesses = []
    d_n = chain.d_n.letters
    residue = _relator_residue(n, chain.c[0].letters, d_n)
    if residue:
        witnesses.append(f"primed residue: {_reduced(chain.alphabet, residue)}")
    if not _c0_once(_reduced(chain.alphabet, _d_prime(n, d_n))):
        witnesses.append("rewritten generating set is not a basis")
    other = _relator_residue(n, (0,), _last_boundary(n, not chain.inverted_stable_letters))
    if bool(residue) == bool(other):
        flipped = _reduced(chain.alphabet, other) if other else "empty"
        witnesses.append(f"conventions are not separated: flipped-residue {flipped}")
    params = {"n": n, "basis_size": 3 * n + 3,
              "inverted_stable_letters": int(chain.inverted_stable_letters)}
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


def _largest_position(w: Word) -> int:
    """The largest letter position of w, 0 for the empty word."""
    return max(w.letters, default=0) >> 1


def _c0_image_inverse(c_2i: Word) -> tuple[int, ...]:
    """The letters of phi^-1(c0) = (u^-1 c0 v^-1)^e, for phi: c0 -> c_2i and
    c_2i = u c0^e v with one c0 letter (``explicit_flag_decomposition``).

    They are reduced: u and v have no c0 letter, so nothing cancels at c0."""
    letters = c_2i.letters
    k = letters.index(0) if 0 in letters else letters.index(1)
    u, v = letters[:k], letters[k + 1:]
    return v + (1,) + u if letters[k] else _inverse(u) + (0,) + _inverse(v)


def _substitute_c0(letters: tuple[int, ...], image: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced word with each c0^(+-1) of the reduced ``letters`` replaced
    by the reduced ``image`` or its inverse."""
    pieces, start = [], 0
    for k, code in enumerate(letters):
        if code < 2:
            pieces += [letters[start:k], _inverse(image) if code else image]
            start = k + 1
    pieces.append(letters[start:])
    return _join_all(pieces)


def explicit_flag_decomposition(chain: SurfaceChain, i: int) -> VerificationReport:
    """Certify the decomposition into K * H * L separating the witness tuples.

    (a) the concatenated part bases form a basis of the whole group: K,
        a_2i, b_2i and L are the letters other than c0, so they do exactly
        when c_2i has one c0 letter (``_c0_once``),
    (b) the tuples below stage 2i lie in <K u H>,
    (c) the tuple at stage 2(i+1) lies in <H u L>.

    When (a) holds and c_2i has no letter past position 6i + 2, (b) and (c)
    are read off letter positions, with no fold:

    (b) Let Y be the positions 0 ... 6i + 2.  Then <K u H> = F(Y), so a word
        lies in it exactly when its largest letter position (``h_reach``) is
        at most 6i + 2.  K u H lies in F(Y), as c_2i does.  Conversely
        c_2i = u c0^e v with u, v words in K u {a_2i, b_2i}, so
        c0^e = u^-1 c_2i v^-1 lies in <K u H>, and so does all of Y.
    (c) phi: c0 -> c_2i, fixing every other letter, maps the basis onto
        K u H u L, a basis by (a), so phi is an automorphism, and
        H u L = phi(Z) for Z = {c0} u the positions from 6i + 1 on.  So w
        lies in <H u L> exactly when phi^-1(w) lies in F(Z), that is, when
        the reduced phi^-1(w) has no letter at positions 1 ... 6i.  As phi
        fixes u and v, phi^-1(c0) = (u^-1 c0 v^-1)^e: for e = 1,
        phi(u^-1 c0 v^-1) = u^-1 u c0 v v^-1 = c0, and for e = -1 its
        inverse v c0^-1 u goes to v v^-1 c0 u^-1 u = c0.  phi^-1(w) is w
        with that word put in for each c0 letter, reduced (``words._join_all``).

    Elsewhere both parts fold K u H and H u L and read the words through
    the graphs.  The witnesses are the same either way: the
    entries that are not members, in the same order.  Over all i the
    position rule costs O(n^2) letters, where the folds read O(n^3).
    """
    started = time.perf_counter()
    k_part, h_part, l_part = flag_parts(chain, i)
    witnesses = []
    a_holds = _c0_once(chain.c[2 * i])
    if not a_holds:
        witnesses.append("K u H u L is not a basis of the ambient group")
    below = range(0, 2 * (i - 1) + 1, 2)
    reach, top = chain.h_reach, 6 * i + 2
    if a_holds and reach[2 * i] <= top:
        image = _c0_image_inverse(chain.c[2 * i])
        in_kh = lambda w: _largest_position(w) <= top
        in_hl = lambda w: all(code < 2 or code >> 1 > 6 * i
                              for code in _substitute_c0(w.letters, image))
        below = [j for j in below if reach[j] > top]
    else:
        in_kh = fold_subgroup(k_part + h_part, chain.alphabet).contains
        in_hl = fold_subgroup(h_part + l_part, chain.alphabet).contains
    for j in below:
        for w in chain.h_tuples[j]:
            if not in_kh(w):
                witnesses.append(f"stage-{j} entry {w} escapes K u H")
    for w in chain.h_tuples[2 * (i + 1)]:
        if not in_hl(w):
            witnesses.append(f"stage-{2 * (i + 1)} entry {w} escapes H u L")
    return _finish("flag_decomposition", {"n": chain.n, "i": i}, witnesses, started)


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
    vec_dn = exponent_vector(chain.d_n)
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
    # sets that cover the names and whose sizes add up to the rank are disjoint
    if (h_set | k_set | t_set != set(alphabet.names)
            or len(h_set) + len(k_set) + len(t_set) != alphabet.rank):
        raise ValueError("h_part, k_part and hnn_letters must partition the alphabet")
    _check_alphabet(alphabet, c)
    h_indices = {alphabet.index(x) for x in h_set}
    if any((code >> 1) not in h_indices for code in c.letters):
        raise ValueError("the twisting word must lie in the fixed part")
    cn = c ** n
    cn_inv = invert(cn)
    named = list(zip(alphabet.names, alphabet.generators()))

    def twist(ck: Word, ck_inv: Word) -> list[Word]:
        return [x if name in h_set
                else multiply(multiply(ck, x), ck_inv) if name in k_set
                else multiply(ck, x)
                for name, x in named]

    # c lies in the fixed side, so the inverse is the twist by c^-n
    return Automorphism(alphabet, twist(cn, cn_inv), twist(cn_inv, cn))


def orbit_distinct_check(
    family: Callable[[int], Automorphism],
    g: Word,
    N: int,
    check_suffix: str = "",
) -> VerificationReport:
    """Images of g under family(0..N) must be pairwise non-conjugate with
    pairwise distinct centralizers.  N must be at least 1: with one image
    no pair is compared, and an empty comparison is no evidence."""
    if N < 1:
        raise ValueError(f"orbit check needs N >= 1, got {N}")
    if not g:
        raise DegenerateInput("orbit check needs a nontrivial element")
    started = time.perf_counter()
    images = [family(k).apply(g) for k in range(N + 1)]
    keys = [_cyclic_key(w.letters) for w in images]
    roots = [_cyclic_root(w.letters) for w in images]
    params = {"N": N}
    check = "orbit_distinct" + (f"[{check_suffix}]" if check_suffix else "")
    for p in range(N + 1):
        for q in range(p + 1, N + 1):
            # conjugate, or <root> equal: the tests of words.is_conjugate
            # and words.centralizer_equal, on forms computed once per image
            if keys[p] == keys[q] or _same_root(roots[p], roots[q]):
                params = {**params, "p": p, "q": q}
                return _finish(check, params, [str(images[p]), str(images[q])], started)
    return _finish(check, params, [], started)


def _side_classes(part: Sequence[Word], max_len: int, cap: int):
    """The conjugacy classes met in one side's ball, each with the codes of
    its first element in breadth-first order, or None once more than cap
    distinct nontrivial elements appear.  See ``cross_conjugacy_scan``."""
    if not part:
        return {}
    letters = []
    for w in part:
        letters += [w.letters, _inverse(w.letters)]
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
        seen = {()}
    classes: dict[tuple, tuple] = {}
    # entries (element, discovering sequence seq, p): p is the length of the
    # longest Lyndon prefix of seq, or 0 if seq is no prefix of a necklace
    frontier = [((), (), 1)]
    for m in range(max_len):
        if not frontier:
            break  # no element is new at level m, so none lies past it
        last = m + 1 == max_len
        nxt = []
        for w, seq, p in frontier:
            # w times letters[back] gave w; a child s = seq + (i,) is tested on
            # s[m - p] (ref) and s[0] (first) alone; at the root s is Lyndon
            back = first = ref = -1
            if seq:
                back, first = seq[-1] ^ 1, seq[0]
                if p:
                    ref = seq[m - p]
            for i, l in enumerate(letters):
                if i == back:
                    continue
                # s is a prefix of a necklace iff i >= ref; its longest Lyndon
                # prefix is then p long (i equal) or all of s (greater)
                q = p and (0 if i < ref else p if i == ref else m + 1)
                keyed = q and (m + 1) % q == 0 and first != i ^ 1
                if free and not keyed and (last or not q):
                    continue
                # words.multiply on codes: only the junction can cancel
                prod = _join_all((w, l)) if w and l and w[-1] == l[0] ^ 1 else w + l
                if not free:
                    if prod in seen:
                        continue
                    seen.add(prod)
                    if len(seen) - 1 > cap:
                        return None
                if keyed:
                    classes.setdefault(_cyclic_key(prod), prod)
                if not last:
                    nxt.append((prod, seq + (i,), q))
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

    The scan runs on letter codes: an element is a code tuple, a product
    is the junction join of ``words.multiply``, a key is
    ``words._cyclic_key`` of the codes, and a Word is built only for the two
    witnesses of a shared class.
    """
    if min(max_len, element_cap) < 1:
        raise ValueError(f"scan needs max_len, element_cap >= 1, got {max_len}, {element_cap}")
    words = (*part1, *part2)
    if words:
        _check_alphabet(words[0].alphabet, *words)
    started = time.perf_counter()
    params = {"max_len": max_len, "element_cap": element_cap}
    sides = []
    for part in (part1, part2):
        classes = _side_classes(part, max_len, element_cap)
        if classes is None:
            return _finish("conjugacy_separation", params, [], started, status=BUDGET)
        sides.append(classes)
    common = sorted(set(sides[0]) & set(sides[1]))
    witnesses = []
    if common:
        witnesses = [str(_reduced(words[0].alphabet, side[common[0]])) for side in sides]
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
    return [("amalgam", fam1, amalgam.word("y z"), 10), ("hnn", fam2, hnn.word("y t"), 10)]


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
    max_len: int = DEFAULT_SCAN_LEN,
    element_cap: int = DEFAULT_SCAN_CAP,
) -> tuple[list[VerificationReport], list[str]]:
    """Run one registered check, or all of them for ``lemma == "all"``, and
    return ``(reports, notes)``.

    Under ``all`` a check that does not apply at this depth becomes the note
    ``"<lemma> skipped: <reason>"``, and flag runs at every valid index.  A
    single lemma that does not apply raises ValueError(reason), and so does
    a name that is neither a registered lemma nor ``all``; flag alone needs
    its index i, and no other lemma takes one.  max_len and element_cap
    bound the separation scan.
    """
    if lemma != "all":
        if lemma not in CHECKS:
            raise ValueError(f"unknown lemma {lemma!r}: expected all or one of {', '.join(CHECKS)}")
        _require(lemma, chain.n)
    if lemma == "flag" and i is None:
        raise ValueError("the flag check needs an index --i")
    if lemma != "flag" and i is not None:
        raise ValueError(f"--i applies only to --lemma flag, not {lemma}")
    if lemma != "all":
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
