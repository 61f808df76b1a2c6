"""Exact arithmetic in finite-rank free groups.

Words are freely reduced sequences of signed generators.  A letter is one
int code: ``2*g`` for the generator with index ``g``, ``2*g + 1`` for its
inverse.  That encoding makes inversion a bit flip and gives the canonical
letter order used everywhere (generator index first, positive sign before
negative).

Conventions, fixed once for the whole package:

* exponent notation means ``x ** g == g^-1 * x * g``,
* commutator means ``[x, y] == x * y * x^-1 * y^-1``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence


class AlphabetMismatch(ValueError):
    """Operands live over different alphabets, or a letter code lies outside one."""


class DegenerateInput(ValueError):
    """The operation is undefined on this input (usually the empty word)."""


class WordSyntaxError(ValueError):
    """Malformed word text; carries the offending token position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"([a-z][a-z0-9_]*)(?:\^(-?[0-9]+))?\Z")


class Alphabet:
    """An ordered list of distinct generator names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlphabetMismatch(f"unknown generator {name!r}") from None

    def gen(self, name: str) -> "Word":
        """The length-one word for a generator name."""
        return Word(self, (2 * self.index(name),))

    def generators(self) -> list["Word"]:
        return [Word(self, (2 * g,)) for g in range(self.rank)]

    def identity(self) -> "Word":
        return Word(self, ())

    def word(self, text: str) -> "Word":
        return parse_word(text, self)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Alphabet) and self.names == other.names
        )

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({','.join(self.names)})"

    @staticmethod
    def parse(text: str) -> "Alphabet":
        """Parse an ordered comma-separated generator list, e.g. ``"a,b"``."""
        return Alphabet([part.strip() for part in text.split(",")])


def _reduce_codes(codes: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


class Word:
    """A freely reduced word.  Construction checks that every letter code
    lies in ``[0, 2 * alphabet.rank)`` (AlphabetMismatch otherwise) and
    reduces the codes.

    The operations below build their results without those passes (through
    ``_reduced``, or inline in ``multiply``): their operands' codes are
    checked already, and on reduced operands cancellation can only happen
    where two operands meet.
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, codes: Iterable[int] = ()):
        codes = tuple(codes)
        if codes and not 0 <= min(codes) <= max(codes) < 2 * alphabet.rank:
            bad = next(c for c in codes if not 0 <= c < 2 * alphabet.rank)
            raise AlphabetMismatch(f"letter code {bad} is outside {alphabet!r}")
        self.alphabet = alphabet
        self.letters = _reduce_codes(codes)

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.names, self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return invert(self) ** (-k)
        if k == 0:
            return _reduced(self.alphabet, ())
        # w = p c p^-1 with c nonempty and cyclically reduced (or w empty),
        # so p c^k p^-1 is reduced for k >= 1; for k = 0 it would be p p^-1.
        prefix, core = _cyclic_strip(self.letters)
        return _reduced(self.alphabet, prefix + core * k + _inverse(prefix))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)})"

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        return len(ls) < 2 or ls[0] != ls[-1] ^ 1


def _reduced(alphabet: Alphabet, letters: tuple[int, ...]) -> Word:
    """A Word over ``letters`` without the reduction pass.

    Only for codes the caller has shown to lie over ``alphabet`` and to be
    freely reduced; public construction goes through ``Word``, which checks
    and reduces.
    """
    w = object.__new__(Word)
    w.alphabet = alphabet
    w.letters = letters
    return w


def _inverse(codes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([c ^ 1 for c in codes[::-1]])


def _join_all(pieces: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """The free reduction of the reduced ``pieces`` laid end to end.

    Only letters at a junction cancel: once the first letter of what is
    left of a piece no longer cancels the last letter before it, the rest is
    reduced.  Each letter is appended once and removed at most once, so this
    is linear in the letters of the pieces.  A junction that does not cancel
    appends the piece whole, without the scan or a slice.
    """
    acc: list[int] = []
    for b in pieces:
        if acc and b and acc[-1] == b[0] ^ 1:
            n, m = len(acc), min(len(acc), len(b))
            k = 1
            while k < m and acc[n - 1 - k] == b[k] ^ 1:
                k += 1
            acc[n - k:] = b[k:]
        else:
            acc += b
    return tuple(acc)


def _check_alphabet(alphabet: Alphabet, *words: Word) -> None:
    """The one operand check: every word lies over ``alphabet``.

    Identity is compared first, so the common case of one shared alphabet
    object costs no tuple comparison.
    """
    for w in words:
        if w.alphabet is not alphabet and w.alphabet != alphabet:
            raise AlphabetMismatch(f"mixed alphabets {alphabet!r} and {w.alphabet!r}")


# -- group operations -------------------------------------------------------


def multiply(u: Word, v: Word) -> Word:
    alphabet = u.alphabet
    if v.alphabet is not alphabet:
        _check_alphabet(alphabet, v)
    a, b = u.letters, v.letters
    w = object.__new__(Word)
    w.alphabet = alphabet
    # reduced operands can cancel only at the junction, so join only there
    w.letters = _join_all((a, b)) if a and b and a[-1] == b[0] ^ 1 else a + b
    return w


def invert(w: Word) -> Word:
    return _reduced(w.alphabet, _inverse(w.letters))


def conjugate(x: Word, g: Word) -> Word:
    """x ** g, i.e. g^-1 * x * g."""
    _check_alphabet(x.alphabet, g)
    return _reduced(x.alphabet, _join_all((_inverse(g.letters), x.letters, g.letters)))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    _check_alphabet(x.alphabet, y)
    xs, ys = x.letters, y.letters
    return _reduced(x.alphabet, _join_all((xs, ys, _inverse(xs), _inverse(ys))))


@dataclass(frozen=True)
class CyclicWord:
    """Canonical conjugacy representative plus one conjugator realising it.

    ``canonical`` is the lexicographically least rotation of the cyclic
    reduction of the original word, and ``invert(conjugator) * original *
    conjugator`` reduces to it.
    """

    canonical: Word
    conjugator: Word


def _cyclic_strip(codes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split reduced ``codes`` as prefix + core + prefix^-1 with core cyclically reduced."""
    lo, hi = 0, len(codes)
    while hi - lo >= 2 and codes[lo] == codes[hi - 1] ^ 1:
        lo += 1
        hi -= 1
    return codes[:lo], codes[lo:hi]


_FAST_OCCURRENCES = 8  # the slice path takes a least letter up to this often


def _least_rotation(codes: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Lexicographically least rotation and its smallest offset, in O(L).

    Fast path: the least rotation starts with the least letter ``m``, so it
    starts at an occurrence of ``m``.  When ``m`` occurs at most
    ``_FAST_OCCURRENCES`` times, the rotations at those occurrences are
    compared as slices of ``codes + codes``, in offset order and with strict
    ``<``, so the smallest offset wins when ``codes`` is periodic.  That is
    a constant number of linear slices and comparisons, each done in C,
    which short and aperiodic words (the scan's keys) nearly always take.

    Otherwise: Duval's Lyndon factorization ("Factorizing words over an
    ordered alphabet", J. Algorithms 1983) run over ``codes + codes``, with
    the same linear bound as Booth, "Lexicographically least circular
    substrings" (IPL 1980).  Each outer step starts a block of equal Lyndon
    factors at ``i``; the least rotation starts at the last block that
    begins in the first copy, at the first factor of that block, which is
    the smallest offset when ``codes`` is periodic.  Either way the work
    stays linear in L.
    """
    n = len(codes)
    if n < 2:
        return codes, 0
    s = codes + codes
    m = min(codes)
    count = codes.count(m)
    if count <= _FAST_OCCURRENCES:
        start = i = codes.index(m)
        best = s[i : i + n]
        for _ in range(count - 1):
            i = codes.index(m, i + 1)
            rotation = s[i : i + n]
            if rotation < best:
                best, start = rotation, i
        return best, start
    end = 2 * n
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < end and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        step = j - k
        while i <= k:
            i += step
    return s[start : start + n], start


def cyclic_normal_form(w: Word) -> CyclicWord:
    prefix, core = _cyclic_strip(w.letters)
    best, offset = _least_rotation(core)
    # best rotates a cyclically reduced core, and the conjugator is a prefix
    # of w, so both are reduced
    conj = _reduced(w.alphabet, prefix + core[:offset])
    return CyclicWord(_reduced(w.alphabet, best), conj)


def _cyclic_key(codes: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugacy key of reduced ``codes``: the least rotation of their
    cyclic core, the letters of ``cyclic_canonical``.  The one canonical-form
    kernel; callers that hold letter codes (the separation scan) build no Word."""
    if codes and codes[0] == codes[-1] ^ 1:
        codes = _cyclic_strip(codes)[1]
    return _least_rotation(codes)[0]


def cyclic_canonical(w: Word) -> Word:
    """``cyclic_normal_form(w).canonical`` without building the conjugator."""
    return _reduced(w.alphabet, _cyclic_key(w.letters))


def is_conjugate(u: Word, v: Word) -> bool:
    _check_alphabet(u.alphabet, v)
    return _cyclic_key(u.letters) == _cyclic_key(v.letters)


def _cyclic_root(codes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Split reduced, nonempty ``codes`` as stem + period^k + stem^-1, with
    the period cyclically reduced and k maximal; returns (stem, period, k).

    The word's maximal root is stem + period + stem^-1.  The period is the
    least d dividing the length n of the cyclic core with the core equal to
    its first d letters repeated n / d times.  The inverse word splits with
    the same stem, the inverse period and the same k: its core is the
    inverse of a cyclically reduced core, so the strip stops at the same
    place, and a proper power of the inverse period would invert to one of
    the period.
    """
    stem, core = _cyclic_strip(codes)
    n = len(core)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and core == core[:d] * (n // d):
            return stem, core[:d], n // d
    return stem, core, 1


def root(w: Word) -> tuple[Word, int]:
    """The maximal root: returns (r, k) with w = r^k, k maximal.

    Handles conjugated powers: g u^k g^-1 has root g u g^-1.  The root is
    reduced by construction, so it skips the reduction pass: stem + period
    is a prefix of w, and the period ends with the core's last letter, which
    w follows with the inverse stem without cancelling.
    """
    if not w:
        raise DegenerateInput("the empty word has no root")
    stem, period, k = _cyclic_root(w.letters)
    return _reduced(w.alphabet, stem + period + _inverse(stem)), k


def _same_root(a: tuple, b: tuple) -> bool:
    """Whether two ``_cyclic_root`` splits have roots that generate the same
    cyclic group, that is, equal or inverse roots: the same stem, and equal
    or inverse periods."""
    return a[0] == b[0] and (a[1] == b[1] or a[1] == _inverse(b[1]))


def centralizer_equal(x: Word, y: Word) -> bool:
    """Whether <root(x)> == <root(y)>, the centralizer test for nontrivial words."""
    if not x or not y:
        raise DegenerateInput("centralizers are compared for nontrivial words only")
    _check_alphabet(x.alphabet, y)
    return _same_root(_cyclic_root(x.letters), _cyclic_root(y.letters))


# -- text grammar ----------------------------------------------------------
#
# generators: [a-z][a-z0-9_]*
# word:       whitespace-separated tokens `gen` or `gen^k` (k nonzero),
#             or the single literal `1` for the empty word.


def parse_word(text: str, alphabet: Alphabet) -> Word:
    tokens = text.split()
    if tokens == ["1"]:
        return alphabet.identity()
    codes: list[int] = []
    for pos, tok in enumerate(tokens, start=1):
        if tok == "1":
            raise WordSyntaxError("'1' is only valid as the entire word", pos)
        m = _TOKEN_RE.match(tok)
        if not m:
            raise WordSyntaxError(f"malformed token {tok!r}", pos)
        name, exp = m.group(1), m.group(2)
        k = 1 if exp is None else int(exp)
        if k == 0:
            raise WordSyntaxError(f"zero exponent in {tok!r}", pos)
        if abs(k) > sys.maxsize:
            raise WordSyntaxError(f"exponent too large in {tok!r}", pos)
        try:
            g = alphabet.index(name)
        except AlphabetMismatch:
            raise WordSyntaxError(f"unknown generator {name!r}", pos) from None
        code = 2 * g + (0 if k > 0 else 1)
        codes.extend([code] * abs(k))
    return Word(alphabet, codes)


def format_word(w: Word) -> str:
    if not w.letters:
        return "1"
    parts: list[str] = []
    i = 0
    codes = w.letters
    while i < len(codes):
        j = i
        while j < len(codes) and codes[j] == codes[i]:
            j += 1
        name = w.alphabet.names[codes[i] >> 1]
        k = (j - i) * (-1 if codes[i] & 1 else 1)
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(parts)
