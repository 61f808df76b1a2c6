"""Decision procedures for conjugacy and cyclic-coset equivalence relations.

The double-coset test is the interesting one: membership of z in
H z' K, with H = <u> and K = <v>, for unbounded exponents.  Bounded
exponent search is unsound (conjugation can collapse u^a z' v^b to a short
word for arbitrarily large exponents), so we decide it exactly by reading
words into the Stallings folded graphs of H and K.

Write u = alpha U alpha^-1 with U cyclically reduced.  The graph G_u of H is
a stem spelling alpha from the base, then a cycle spelling U, folded as
built; ``graphs._stem_cycle`` builds it in the step-dict format of
``graphs``.  In a folded graph a reduced word has at most one path from a
vertex, and the reduced words that read from the base to a vertex x are the
coset H p for any one such word p; call that set P(x).  G_v is built the
same way, and Q(y) is the set of reduced words that read backward from its
base to y (they label paths y -> base): the coset q K for any one of them.

Since z is in H z' K exactly when z' is in H z K, we read z and test z'.
Read the longest prefix z1 of z forward from the base of G_u, ending at x,
then the longest suffix z4 of the rest backward from the base of G_v,
ending at y, so that z = z1 z3 z4.  Then H z1 = P(x) and z4 K = Q(y), so
H z K is the set of products p z3 q with p in P(x) and q in Q(y).

If z3 is non-empty, each p z3 q is already reduced.  No letter cancels at
p z3: the last letter of p, walked back, is an edge out of x, so if it
cancelled the first letter of z3, that letter would read from x and z1
would not be longest.  No letter cancels at z3 q, by the same argument for
z4 at y.  So z' is a member exactly when z' = p z3 q letter for letter: z3
sits in z' at some offset k, the k letters before it read from the base of
G_u to x, and the letters after it read backward from the base of G_v to y.

If z3 is empty, p q may cancel: p = p' w and q = w^-1 q' with p' q'
reduced.  Then p' is in P(x'), q' in Q(y'), and w reads from x' to x in
G_u and from y' to y in G_v, that is, from (x', y') to (x, y) in the product
graph G_u x G_v, whose edges pair equally labeled edges of G_u and G_v.
Conversely, a path w from (x', y') to (x, y) there puts the reduced forms
of p' w in P(x) and of w^-1 q' in Q(y), and their product is p' q'.  So z'
is a member exactly when some split z' = p' q' has p' in P(x') and q' in
Q(y') with (x', y') in the component of (x, y) in the product graph, which
``graphs.pullback`` walks; ``_linked`` tests its pairs against the splits.

How far the prefixes of z' read forward into G_u and how far its suffixes
read backward into G_v depend only on (u, z', v): the recognizer computes
them once and then answers any z.  The split pairs (x', y') follow from
them, and only the product branch (z3 empty) reads them, so they are built
on the first query that reaches it.

E3 takes the maximal roots of its anchors once each, as (stem, period)
letter codes (``words._cyclic_root``), compares them on the codes, and
builds the graph of <r^p>, r = alpha R alpha^-1, straight from the stem
alpha and the core R^p, with no power formed and no second strip.
"""

from __future__ import annotations

from .graphs import _read, _stem_cycle, pullback
from .words import (
    Alphabet,
    DegenerateInput,
    Word,
    _check_alphabet,
    _cyclic_root,
    _cyclic_strip,
    _inverse,
    _same_root,
    invert,
    is_conjugate,
    multiply,
)

Codes = tuple[int, ...]


class CosetAutomaton:
    """Recognizer for the reduced words of <u> z_mid <v>, over the folded
    graphs of <u> and <v> and the two readings of z_mid."""

    __slots__ = ("_alphabet", "_u", "_v", "_mid", "_pre", "_suf", "_split_pairs")

    def __init__(self, u: Word, z_mid: Word, v: Word):
        if not u or not v:
            raise DegenerateInput("double cosets need nontrivial cyclic sides")
        _check_alphabet(u.alphabet, z_mid, v)
        self._wire(u.alphabet, _stem_cycle(*_cyclic_strip(u.letters)), z_mid.letters,
                   _stem_cycle(*_cyclic_strip(v.letters)))

    @classmethod
    def _of_splits(cls, alphabet: Alphabet, u_split: tuple[Codes, Codes], mid: Codes,
                   v_split: tuple[Codes, Codes]) -> "CosetAutomaton":
        """The recognizer for <u> mid <v> over ``alphabet``, each side given
        as its (stem, core) split, unchecked; see ``graphs._stem_cycle``."""
        auto = object.__new__(cls)
        auto._wire(alphabet, _stem_cycle(*u_split), mid, _stem_cycle(*v_split))
        return auto

    def _wire(self, alphabet: Alphabet, gu: list[dict[int, int]], mid: Codes,
              gv: list[dict[int, int]]) -> None:
        self._alphabet, self._u, self._v, self._mid = alphabet, gu, gv, mid
        # pre[k]: where mid[:k] reads to from the base of G_u; suf[j]: where
        # the last j letters of mid read to backward from the base of G_v
        self._pre = _read(gu, mid)
        self._suf = _read(gv, _inverse(mid))
        self._split_pairs = None

    @property
    def _splits(self) -> set[tuple[int, int]]:
        """The split pairs (pre[k], suf[n - k]) of z_mid, built on first use:
        only the product branch of ``accepts`` reads them."""
        splits = self._split_pairs
        if splits is None:
            pre, suf, n = self._pre, self._suf, len(self._mid)
            splits = self._split_pairs = {
                (pre[k], suf[n - k]) for k in range(max(0, n + 1 - len(suf)), len(pre))}
        return splits

    def accepts(self, w: Word) -> bool:
        _check_alphabet(self._alphabet, w)
        letters = w.letters
        # z1 = letters[:i] reads from the base of G_u to x, then
        # z4 = letters[j:] reads backward from the base of G_v to y
        fwd = _read(self._u, letters)
        i, x = len(fwd) - 1, fwd[-1]
        back = _read(self._v, _inverse(letters[i:]))
        j, y = len(letters) + 1 - len(back), back[-1]
        if i == j:
            return self._linked(x, y)
        z3 = letters[i:j]
        m = j - i
        mid, pre, suf = self._mid, self._pre, self._suf
        rest = len(mid) - m  # letters of z_mid around z3
        for k in range(max(0, rest + 1 - len(suf)), min(len(pre), rest + 1)):
            if pre[k] == x and suf[rest - k] == y and mid[k:k + m] == z3:
                return True
        return False

    def _linked(self, x: int, y: int) -> bool:
        """Whether the component of (x, y) in G_u x G_v holds a split pair."""
        return not self._splits.isdisjoint(pullback(self._u, self._v, (x, y))[0])


def double_coset_member(u: Word, z_mid: Word, v: Word, z: Word) -> bool:
    """Whether z lies in {u^a z_mid v^b : a, b in Z}."""
    return CosetAutomaton(u, z_mid, v).accepts(z)


def double_coset_member_bounded(u: Word, z_mid: Word, v: Word, z: Word,
                                bound: int) -> bool:
    """Brute-force oracle: search exponents |a|, |b| <= bound only."""
    for a in range(-bound, bound + 1):
        left = multiply(u ** a, z_mid)
        for b in range(-bound, bound + 1):
            if multiply(left, v ** b) == z:
                return True
    return False


# -- the basic equivalence relations ---------------------------------------


def _cyclic_coset(relation: str, m: int, x: Word, x2: Word, t: Word) -> bool:
    """Whether C(x) = C(x2) and t is a power of root(x) with exponent in mZ."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not x or not x2:
        raise DegenerateInput(f"{relation} requires nontrivial centralizer anchors")
    _check_alphabet(x.alphabet, t, x2)
    rx = _cyclic_root(x.letters)
    if not _same_root(rx, _cyclic_root(x2.letters)):
        return False
    if not t:
        return True
    rt = _cyclic_root(t.letters)
    return _same_root(rx, rt) and rt[2] % m == 0


def e0(x: Word, y: Word) -> bool:
    """Conjugacy: some z with x ** z == y."""
    return is_conjugate(x, y)


def e1(m: int, x: Word, y: Word, x2: Word, y2: Word) -> bool:
    """Same centralizer for x, x2 and y2 = y * t^m for some t in C(x).

    t may be trivial or a negative power, so the witness exponent ranges
    over all multiples of m including 0.
    """
    return _cyclic_coset("E1", m, x, x2, multiply(invert(y), y2))


def e2(m: int, x: Word, y: Word, x2: Word, y2: Word) -> bool:
    """Same centralizer for x, x2 and y2 = t^m * y for some t in C(x)."""
    return _cyclic_coset("E2", m, x, x2, multiply(y2, invert(y)))


def e3(p: int, q: int, x: Word, y: Word, z: Word,
       x2: Word, y2: Word, z2: Word) -> bool:
    """Double-coset relation: z = s^p z2 t^q with s in C(x), t in C(y),
    after checking C(x) = C(x2) and C(y) = C(y2)."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive integers")
    if not x or not x2 or not y or not y2:
        raise DegenerateInput("E3 requires nontrivial centralizer anchors")
    _check_alphabet(x.alphabet, y, z, x2, y2, z2)
    sx, px, _ = rx = _cyclic_root(x.letters)
    if not _same_root(rx, _cyclic_root(x2.letters)):
        return False
    sy, py, _ = ry = _cyclic_root(y.letters)
    if not _same_root(ry, _cyclic_root(y2.letters)):
        return False
    # r^p = stem period^p stem^-1, already split
    return CosetAutomaton._of_splits(
        x.alphabet, (sx, px * p), z2.letters, (sy, py * q)).accepts(z)
