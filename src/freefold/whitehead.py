"""Whitehead automorphisms, length minimization, primitivity, basis extension.

The classical facts this module leans on: a tuple of conjugacy classes of
total cyclic length above its automorphism-orbit minimum admits a single
type-II move that strictly shortens it (peak reduction), and two minimal
tuples in the same orbit are connected by type-II moves through tuples of
the same total length.  Greedy descent therefore finds the minimum, and a
breadth-first sweep of the bottom level decides whether the orbit contains
a tuple of distinct generators.

Signed basis permutations (type I) never change lengths and preserve the
"distinct generators" target, so the searches only ever apply type-II moves.

Only the cyclic length of the images decides a step (Gersten, "On
Whitehead's algorithm", Bull. AMS 1984; Roig, Ventura and Weil, IJAC 2007).
So each candidate move is scored on letter codes: substitute, freely reduce
with one stack, strip the cyclic cancellation and count.  The descent builds
the ``Automorphism`` and the canonical forms of the first strictly shortening
move only, and the level-set sweep canonicalises only candidates at the
floor.  One generator, ``_type_two_moves``, enumerates the type-II moves
in one fixed order for the searches and for ``whitehead_generators``; it
builds each substitution table as it is asked for and keeps none.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, Sequence

from .words import (
    Alphabet,
    AlphabetMismatch,
    DegenerateInput,
    Word,
    _inverse,
    cyclic_canonical,
)


class BudgetExhausted(RuntimeError):
    """A bounded search ran out of its node budget before deciding."""


DEFAULT_BUDGET = 10**6


def _table(alphabet: Alphabet, images: Sequence[Word]) -> tuple[tuple[int, ...], ...]:
    """Substitution table by letter code: image of generator g at 2g, its
    inverse at 2g + 1."""
    table: list[tuple[int, ...]] = []
    for img in images:
        if img.alphabet != alphabet:
            raise AlphabetMismatch("image over a different alphabet")
        table += (img.letters, _inverse(img.letters))
    return tuple(table)


def _substitute(table: Sequence[tuple[int, ...]], codes: Sequence[int]) -> list[int]:
    """The letter codes of the image of ``codes``, not yet reduced."""
    return [d for c in codes for d in table[c]]


class Automorphism:
    """A basis-image map with a recorded inverse; invertible by construction."""

    __slots__ = ("alphabet", "images", "inverse_images", "_subst")

    def __init__(self, alphabet: Alphabet, images: Sequence[Word],
                 inverse_images: Sequence[Word], _trusted: bool = False):
        self.alphabet = alphabet
        self.images = tuple(images)
        self.inverse_images = tuple(inverse_images)
        if len(self.images) != alphabet.rank or len(self.inverse_images) != alphabet.rank:
            raise ValueError("one image per generator is required")
        self._subst = _table(alphabet, self.images)
        inverse = _table(alphabet, self.inverse_images)
        if _trusted:
            return
        for g, name in enumerate(alphabet.names):
            for there, back in ((self._subst, inverse), (inverse, self._subst)):
                if Word(alphabet, _substitute(back, there[2 * g])).letters != (2 * g,):
                    raise ValueError(f"recorded inverse fails on generator {name}")

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word alphabet differs from automorphism alphabet")
        return Word(self.alphabet, _substitute(self._subst, w.letters))

    def inverse(self) -> "Automorphism":
        return Automorphism(self.alphabet, self.inverse_images, self.images, _trusted=True)

    @staticmethod
    def identity(alphabet: Alphabet) -> "Automorphism":
        gens = alphabet.generators()
        return Automorphism(alphabet, gens, gens, _trusted=True)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}->{img}" for n, img in zip(self.alphabet.names, self.images)
        )
        return f"Automorphism({pairs})"


def _type_one(alphabet: Alphabet) -> list[Automorphism]:
    r = alphabet.rank
    out = []
    for perm in permutations(range(r)):
        for signs in product((0, 1), repeat=r):
            images = [Word(alphabet, (2 * perm[g] + signs[g],)) for g in range(r)]
            inverse = [alphabet.identity()] * r
            for g in range(r):
                inverse[perm[g]] = Word(alphabet, (2 * g + signs[g],))
            out.append(Automorphism(alphabet, images, inverse, _trusted=True))
    return out


_KEEP, _LEFT, _RIGHT, _CONJ = range(4)


def _image_pairs(m: int, x: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(image of x, image of x^-1) under each choice for multiplier m."""
    forward = ((x,), (m, x), (x, m ^ 1), (m, x, m ^ 1))
    return [(f, _inverse(f)) for f in forward]


def _type_two_moves(
    alphabet: Alphabet,
) -> Iterator[tuple[int, tuple[int, ...], list[tuple[int, ...]]]]:
    """Every type-II move as (m, choices, substitution table by letter code).

    A multiplier letter m fixes itself and every other generator x goes
    independently to x, m x, x m^-1 or m x m^-1.  Moves come multiplier by
    multiplier, m = 0, 1, ..., 2r - 1, and for each in ``product`` order of
    those four choices, all-keep left out: 4^(r-1) - 1 moves per
    multiplier.  Tables are built as they are asked for and share their
    entries; none is kept.
    """
    r = alphabet.rank
    letters = [(c,) for c in range(2 * r)]
    for m in range(2 * r):
        others = [g for g in range(r) if g != m >> 1]
        pairs = [_image_pairs(m, 2 * g) for g in others]
        for choice in product((_KEEP, _LEFT, _RIGHT, _CONJ), repeat=len(others)):
            if not any(choice):  # all keep
                continue
            subst = letters.copy()
            for g, pair, ch in zip(others, pairs, choice):
                subst[2 * g], subst[2 * g + 1] = pair[ch]
            yield m, choice, subst


def _move(alphabet: Alphabet, m: int, choice: tuple[int, ...]) -> Automorphism:
    """The type-II move with multiplier m and these choices; its inverse
    makes the same choices with m^-1."""
    images = alphabet.generators()
    inverse = alphabet.generators()
    others = [g for g in range(alphabet.rank) if g != m >> 1]
    for g, ch in zip(others, choice):
        images[g] = Word(alphabet, _image_pairs(m, 2 * g)[ch][0])
        inverse[g] = Word(alphabet, _image_pairs(m ^ 1, 2 * g)[ch][0])
    return Automorphism(alphabet, images, inverse, _trusted=True)


def whitehead_generators(alphabet: Alphabet) -> list[Automorphism]:
    """All type-I (signed basis permutations) and type-II Whitehead moves,
    the type-II moves in ``_type_two_moves`` order."""
    if alphabet.rank < 1:
        raise ValueError("rank must be at least 1")
    return _type_one(alphabet) + [
        _move(alphabet, m, choice) for m, choice, _ in _type_two_moves(alphabet)
    ]


def _cyclic_length(subst: Sequence[tuple[int, ...]],
                   entries: Sequence[tuple[int, ...]]) -> int:
    """Summed cyclic length of the images of ``entries`` (letter codes).

    Substitutes, freely reduces with one stack and strips the cyclic
    cancellation at the ends; no word and no normal form is built.
    """
    total = 0
    for codes in entries:
        stack: list[int] = []
        push, pop = stack.append, stack.pop
        for c in codes:
            for d in subst[c]:
                if stack and stack[-1] == d ^ 1:
                    pop()
                else:
                    push(d)
        lo, hi = 0, len(stack)
        while hi - lo >= 2 and stack[lo] == stack[hi - 1] ^ 1:
            lo += 1
            hi -= 1
        total += hi - lo
    return total


def minimize_tuple(
    t: Sequence[Word], budget: int = DEFAULT_BUDGET
) -> tuple[list[Word], list[Automorphism]]:
    """Greedy simultaneous Whitehead descent on a tuple of conjugacy classes.

    Entries are handled as cyclic words; the returned tuple consists of
    canonical conjugacy representatives.  The same move is applied to every
    entry, and moves are taken while the total cyclic length strictly drops.
    Each candidate move is scored by that length alone, on letter codes;
    only the first strictly shortening move is built and applied.
    """
    if not t:
        raise DegenerateInput("cannot minimize an empty tuple")
    alphabet = t[0].alphabet
    for w in t:
        if w.alphabet != alphabet:
            raise AlphabetMismatch("tuple entries over mixed alphabets")
    current = [cyclic_canonical(w) for w in t]
    total = sum(len(w) for w in current)
    seq: list[Automorphism] = []
    examined = 0
    improved = True
    while improved:
        improved = False
        entries = [w.letters for w in current]
        for m, choice, subst in _type_two_moves(alphabet):
            examined += 1
            if examined > budget:
                raise BudgetExhausted(f"minimization exceeded {budget} examined tuples")
            length = _cyclic_length(subst, entries)
            if length < total:
                f = _move(alphabet, m, choice)
                current = [cyclic_canonical(f.apply(w)) for w in current]
                total = length
                seq.append(f)
                improved = True
                break
    return current, seq


def is_primitive(w: Word, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether w belongs to some basis: minimal cyclic length 1."""
    if not w:
        raise DegenerateInput("primitivity is undefined for the empty word")
    minimal, _ = minimize_tuple([w], budget)
    return len(minimal[0]) == 1


def _is_generator_tuple(tup: Sequence[Word]) -> bool:
    gens = set()
    for w in tup:
        if len(w) != 1:
            return False
        gens.add(w.letters[0] >> 1)
    return len(gens) == len(tup)


def extends_to_basis(t: Sequence[Word], budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the tuple of conjugacy classes minimizes to distinct generators.

    After greedy descent, sweeps the whole level set of minimal-total-length
    tuples reachable by single type-II moves; greedy alone can land on a
    minimal tuple other than a generator tuple.
    """
    if not t:
        raise DegenerateInput("cannot test an empty tuple")
    for w in t:
        if not w:
            raise DegenerateInput("tuple entries must be nontrivial")
    start, _ = minimize_tuple(t, budget)
    alphabet = start[0].alphabet
    floor = sum(len(w) for w in start)
    first = tuple(start)
    if _is_generator_tuple(first):
        return True
    visited = {first}
    frontier = [first]
    examined = 0
    while frontier:
        next_frontier = []
        for tup in frontier:
            entries = [w.letters for w in tup]
            for _, _, subst in _type_two_moves(alphabet):
                examined += 1
                if examined > budget:
                    raise BudgetExhausted(
                        f"basis-extension search exceeded {budget} examined tuples"
                    )
                if _cyclic_length(subst, entries) != floor:
                    continue
                candidate = tuple(
                    cyclic_canonical(Word(alphabet, _substitute(subst, codes)))
                    for codes in entries
                )
                if candidate in visited:
                    continue
                if _is_generator_tuple(candidate):
                    return True
                visited.add(candidate)
                next_frontier.append(candidate)
        frontier = next_frontier
    return False
