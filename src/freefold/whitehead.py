"""Whitehead automorphisms, length minimization, primitivity, basis extension.

The classical facts this module leans on: a tuple of conjugacy classes of
total cyclic length above its automorphism-orbit minimum admits a single
type-II move that strictly shortens it (peak reduction).  Greedy descent
therefore finds the minimum.

Descent also stops at the length floor.  An automorphism keeps the trivial
class trivial and every other class nontrivial, of cyclic length at least
1, so no tuple in the orbit is shorter than its number of nontrivial
entries.  Descent that reaches that total stops without another sweep.  A
tuple of distinct generators sits at the floor, so basis extension needs
no search beyond descent: a descent that ends above the floor rules it
out, and at the floor each entry is one letter, and an automorphism takes
two letters on one generator to powers of one element, never to
conjugates of distinct generators.

Signed basis permutations (type I) never change lengths, so descent only
ever applies type-II moves.

Only the cyclic length of the images decides a step (Gersten, "On
Whitehead's algorithm", Bull. AMS 1984; Roig, Ventura and Weil, IJAC 2007).
So each candidate move is scored on letter codes: substitute, freely reduce
with one stack, strip the cyclic cancellation and count.  One scanner,
``_scan``, steps the type-II moves in one fixed order on one substitution
table per multiplier, an odometer that rewrites only the slots whose choice
changed since the previous move, scores each move in the same loop and
yields the moves whose total falls below the current total.

One descent, ``_descend``, serves ``minimize_tuple``, ``is_primitive`` and
``extends_to_basis``.  It works on cyclically reduced letter codes alone:
it takes the scanner's first shortening move, maps each entry
through that move's table with ``_image`` (``words._reduce_codes`` and
``words._cyclic_strip``, the kernels the scoring loop inlines, keeping the
letters) and records the move as its multiplier and choices.  It builds no
``Automorphism``, ``Word`` or canonical form on the way; ``minimize_tuple``
builds those once, from the final entries and the recorded moves, and
``is_primitive`` builds none.  Which rotation of an entry the descent holds
does not matter.  A rotation of a cyclically reduced word is a conjugate of
it, so its image under any move is a conjugate of the image, with the same
cyclic length, and its cyclically reduced image is a rotation of the other's.
The set of generators that occur is the same too.  So every score, every
skip and hence every move taken agrees with a descent on canonical forms,
and so do the lengths at which it stops.

The images the odometer writes come from one plan per rank (``_block``):
for each multiplier m, the other generators, their codes and the four
(image, inverse image) pairs of each, as literal words of one to three
letters, reduced as written.  Each block is cached and read by every
sweep, and ``_move`` builds each move ``minimize_tuple`` returns from the
same plan, with no reduction pass: the images under m and the inverse
images under m^-1.

A move whose first rewritten slot i (its last choice other than keep)
holds a generator that no entry contains maps every entry as the block's
earlier move with slot i onward at keep does, or as the identity when that
move is all keep: the two differ only at slot i, whose generator the
entries never read.  The scanner counts such a move against the budget but
neither scores nor yields it, wherever slot i lies, and that loses nothing.
The earlier move was scored, or was skipped in turn and repeats a move
still earlier.  In descent that move was either taken, ending the sweep, or
not shorter; the identity is not shorter.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .words import (
    Alphabet,
    DegenerateInput,
    Word,
    _check_alphabet,
    _cyclic_strip,
    _inverse,
    _least_rotation,
    _reduce_codes,
    _reduced,
)


class BudgetExhausted(RuntimeError):
    """A bounded search ran out of its node budget before deciding."""


DEFAULT_BUDGET = 10**6


def _table(alphabet: Alphabet, images: Sequence[Word]) -> tuple[tuple[int, ...], ...]:
    """Substitution table by letter code: image of generator g at 2g, its
    inverse at 2g + 1."""
    _check_alphabet(alphabet, *images)
    table: list[tuple[int, ...]] = []
    for img in images:
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
        _check_alphabet(self.alphabet, w)
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


_KEEP, _LEFT, _RIGHT, _CONJ = range(4)
_Pair = tuple[tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=64)
def _block(rank: int, m: int) -> tuple[
    tuple[int, ...], tuple[int, ...], tuple[tuple[_Pair, ...], ...]
]:
    """The plan of the type-II moves with multiplier m at this rank: the
    other generators, their letter codes and, for each code x, the (image
    of x, image of x^-1) pairs of the choices keep, left, right and conj.

    The 2r blocks of a rank make its plan, 8r(r - 1) pairs of words of one
    to three letters, each freely reduced as written since x and m lie on
    different generators.  A block is built when a scan first needs it and
    kept: the cache holds every block of ranks 1 to 5 (30 blocks, 160 pairs
    at rank 5), and its bound keeps a large rank, whose budget runs out in
    its first blocks, from building and holding all 2r of them.
    """
    n = m ^ 1
    others = tuple(g for g in range(rank) if g != m >> 1)
    codes = tuple(2 * g for g in others)
    pairs = tuple(
        (((x,), (x ^ 1,)),
         ((m, x), (x ^ 1, n)),
         ((x, n), (m, x ^ 1)),
         ((m, x, n), (m, x ^ 1, n)))
        for x in codes
    )
    return others, codes, pairs


def _image(subst: Sequence[tuple[int, ...]], codes: Sequence[int]) -> tuple[int, ...]:
    """The cyclically reduced image of the cyclic word ``codes`` under the
    substitution table: substitute, freely reduce and strip the cyclic
    cancellation.  Its length is the image's cyclic length."""
    return _cyclic_strip(_reduce_codes(_substitute(subst, codes)))[1]


def _scan(
    alphabet: Alphabet, entries: Sequence[tuple[int, ...]], total: int,
    examined: int, budget: int, exhausted: str,
) -> Iterator[tuple[int, int, tuple[int, ...], list[tuple[int, ...]]]]:
    """Step through the type-II moves, score each on ``entries`` (letter
    codes) and yield (examined, m, choices, substitution table) for the moves
    whose images have summed cyclic length below ``total``.

    A multiplier letter m fixes itself and every other generator x goes
    independently to x, m x, x m^-1 or m x m^-1.  Moves come multiplier by
    multiplier, m = 0, 1, ..., 2r - 1, and for each in ``product`` order of
    those four choices, all-keep left out: 4^(r-1) - 1 moves per
    multiplier.  The images come from the rank's plan (``_block``).

    Each multiplier has one table, stepped as an odometer.  In ``product``
    order the last choice turns fastest: from one move to the next, the
    trailing choices that wrapped to keep and the last nonzero choice i
    before them are the only ones that change, about 4/3 slots per move.  So
    the step rewrites the slots from the end back to i.  The yielded table
    is that one list, mutated in place by the next step: a consumer reads
    it before asking for the next move and never keeps it.

    A move whose slot i holds a generator that no entry contains maps every
    entry as the block's earlier move with slot i onward at keep does, or
    as the identity when that is all keep.  It is counted but neither scored
    nor yielded.

    ``examined`` counts moves on from the value passed in.  The budget is
    checked before each move; past it, ``BudgetExhausted(exhausted)`` is
    raised.  A sweep that is run to its end counts all its moves.
    """
    r = alphabet.rank
    used = {c >> 1 for codes in entries for c in codes}
    for m in range(2 * r):
        others, codes, pairs = _block(r, m)
        absent = [g not in used for g in others]
        subst = [(c,) for c in range(2 * r)]
        last = len(others) - 1
        moves = product((_KEEP, _LEFT, _RIGHT, _CONJ), repeat=len(others))
        next(moves)  # all keep, the identity
        for choice in moves:
            examined += 1
            if examined > budget:
                raise BudgetExhausted(exhausted)
            i = last
            while True:
                ch = choice[i]
                x = codes[i]
                subst[x], subst[x + 1] = pairs[i][ch]
                if ch:
                    break
                i -= 1
            if absent[i]:
                continue
            length = 0
            for word in entries:
                # _image's kernels, words._reduce_codes and
                # words._cyclic_strip, inlined and counting only: a call per
                # entry per move would cost about a tenth of a descent
                stack: list[int] = []
                push, pop = stack.append, stack.pop
                for c in word:
                    for d in subst[c]:
                        if stack and stack[-1] == d ^ 1:
                            pop()
                        else:
                            push(d)
                start, end = 0, len(stack)
                while end - start >= 2 and stack[start] == stack[end - 1] ^ 1:
                    start += 1
                    end -= 1
                length += end - start
            if length < total:
                yield examined, m, choice, subst


def _move(alphabet: Alphabet, m: int, choice: tuple[int, ...]) -> Automorphism:
    """The type-II move with multiplier m and these choices, read off the
    plan; its inverse makes the same choices with m^-1."""
    images = alphabet.generators()
    inverse = alphabet.generators()
    others, _, pairs = _block(alphabet.rank, m)
    back = _block(alphabet.rank, m ^ 1)[2]
    for i, (g, ch) in enumerate(zip(others, choice)):
        images[g] = _reduced(alphabet, pairs[i][ch][0])
        inverse[g] = _reduced(alphabet, back[i][ch][0])
    return Automorphism(alphabet, images, inverse, _trusted=True)


def _descend(
    alphabet: Alphabet, entries: Sequence[tuple[int, ...]], budget: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, tuple[int, ...]]]]:
    """Greedy simultaneous descent on cyclically reduced letter codes: the
    final entries, cyclically reduced, and the (m, choices) of each move taken.

    Each step takes ``_scan``'s first strictly shortening move and maps every
    entry through its table with ``_image``; no ``Automorphism``, ``Word`` or
    canonical form is built.  Descent stops when a sweep finds no shortening
    move, or, without another sweep, once the total equals the number of
    nontrivial entries (the length floor).  The budget counts examined moves
    over all sweeps; past it, ``BudgetExhausted`` is raised.
    """
    entries = list(entries)
    total = sum(map(len, entries))
    floor = sum(1 for codes in entries if codes)
    moves: list[tuple[int, tuple[int, ...]]] = []
    examined = 0
    exhausted = f"minimization exceeded {budget} examined tuples"
    while total > floor:
        hit = next(_scan(alphabet, entries, total, examined, budget, exhausted), None)
        if hit is None:
            break
        examined, m, choice, subst = hit
        entries = [_image(subst, codes) for codes in entries]
        total = sum(map(len, entries))
        moves.append((m, choice))
    return entries, moves


def _cores(t: Sequence[Word]) -> tuple[Alphabet, list[tuple[int, ...]]]:
    """The alphabet of a nonempty tuple and the cyclically reduced letter
    codes of its entries."""
    alphabet = t[0].alphabet
    _check_alphabet(alphabet, *t)
    return alphabet, [_cyclic_strip(w.letters)[1] for w in t]


def minimize_tuple(
    t: Sequence[Word], budget: int = DEFAULT_BUDGET
) -> tuple[list[Word], list[Automorphism]]:
    """Greedy simultaneous Whitehead descent on a tuple of conjugacy classes.

    Entries are handled as cyclic words; the returned tuple consists of
    canonical conjugacy representatives.  The same move is applied to every
    entry, and moves are taken while the total cyclic length strictly drops.
    The descent is ``_descend`` on letter codes; this builds the canonical
    forms of its final entries and the ``Automorphism`` of each move it
    recorded, once, at the end.

    Descent stops, without another sweep, once the total equals the number
    of nontrivial entries.  Automorphisms map the trivial class to itself
    and every nontrivial class to a nontrivial one, of cyclic length at
    least 1, so no move can take the total below that count.  The tuple
    returned and the moves taken are those of a descent that swept once
    more and found nothing; only fewer candidates count against the budget.
    """
    if not t:
        raise DegenerateInput("cannot minimize an empty tuple")
    alphabet, cores = _cores(t)
    entries, moves = _descend(alphabet, cores, budget)
    return ([_reduced(alphabet, _least_rotation(codes)[0]) for codes in entries],
            [_move(alphabet, m, choice) for m, choice in moves])


def is_primitive(w: Word, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether w belongs to some basis: minimal cyclic length 1.

    Answered from ``_descend`` on the cyclic core of w, so it builds no
    automorphism and no canonical form.  It takes the moves, examines the
    moves and exhausts the budgets of ``minimize_tuple([w], budget)``, with
    the same message.
    """
    if not w:
        raise DegenerateInput("primitivity is undefined for the empty word")
    entries, _ = _descend(w.alphabet, [_cyclic_strip(w.letters)[1]], budget)
    return len(entries[0]) == 1


def _is_generator_tuple(tup: Sequence[tuple[int, ...]]) -> bool:
    gens = set()
    for codes in tup:
        if len(codes) != 1:
            return False
        gens.add(codes[0] >> 1)
    return len(gens) == len(tup)


def extends_to_basis(t: Sequence[Word], budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the tuple of conjugacy classes minimizes to distinct generators.

    Decided by greedy descent alone, and the budget counts its moves.  By
    peak reduction, descent ends at the least total cyclic length in the
    tuple's orbit.  A tuple that extends to a basis has a tuple of distinct
    generators in its orbit, whose total is the number of entries, the
    length floor.  So a descent that ends above the floor answers ``False``,
    and one that ends at the floor, one letter per entry, answers by whether
    those letters lie on distinct generators.  If two of them are x^e and
    x^f on one generator x, every automorphism phi sends them to phi(x)^e
    and phi(x)^f.  Were these conjugate to distinct generators y and z, z
    would be conjugate to y or y^-1, which abelianization rules out.  So no
    tuple in the orbit consists of distinct generators.

    A tuple with more entries than the rank answers ``False`` without a
    search: r generators hold no k > r distinct ones.  Trivial entries and
    mixed alphabets are still rejected first.
    """
    if not t:
        raise DegenerateInput("cannot test an empty tuple")
    for w in t:
        if not w:
            raise DegenerateInput("tuple entries must be nontrivial")
    alphabet, cores = _cores(t)
    if len(t) > alphabet.rank:
        return False
    entries, _ = _descend(alphabet, cores, budget)
    return _is_generator_tuple(entries)
