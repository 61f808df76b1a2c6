"""Decision procedures for conjugacy and cyclic-coset equivalence relations.

The double-coset test is the interesting one: membership of z in
<u> z' <v> with unbounded exponents.  Bounded exponent search is unsound
(conjugation can collapse u^a z' v^b to a short word for arbitrarily large
exponents), so we decide it with a cancellation-saturated automaton.

The automaton accepts the pattern language u^a z' v^b, a, b in Z: a cycle
spelling u (walkable in both directions) at the initial state, a one-way
arc spelling z', and a cycle spelling v at the accepting state.  Saturation
then adds an epsilon transition p -> s whenever p --x--> q ~~> r --x^-1--> s
for some letter x and epsilon path q ~~> r; each such shortcut is witnessed
by a path whose label freely reduces away, so the recognized subset of the
group is unchanged, and at the fixpoint the reduced word of every member is
accepted directly (Benois).  The epsilon shortcuts are one-directional on
purpose: collapsing the pair of states into one would also create the
reverse shortcut, which in general is witnessed by no path and grows the
language (with u = "a", z' = "a" it would accept all of <a, v>).

Acceptance runs the subset simulation, so a reduced input has exactly one
run in the determinized machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .words import (
    AlphabetMismatch,
    DegenerateInput,
    Word,
    centralizer_equal,
    invert,
    is_conjugate,
    multiply,
    root,
)


def _eps_reach(n_states: int, eps: Iterable[tuple[int, int]]) -> list[set[int]]:
    """For each state, the states its epsilon paths reach, itself included."""
    succ: list[list[int]] = [[] for _ in range(n_states)]
    for p, q in eps:
        succ[p].append(q)
    reach: list[set[int]] = []
    for p in range(n_states):
        seen, stack = {p}, [p]
        while stack:
            for r in succ[stack.pop()]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        reach.append(seen)
    return reach


@dataclass
class CosetAutomaton:
    """Saturated recognizer for the reduced words of <u> z_mid <v>."""

    n_states: int
    initial: int
    accepting: int
    letter_edges: frozenset[tuple[int, int, int]]  # (state, letter code, state)
    eps: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    _start: set[int] = field(init=False, repr=False, compare=False)
    _step: dict[tuple[int, int], set[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # built once: a letter steps straight to the epsilon closure of its targets
        reach = _eps_reach(self.n_states, self.eps)
        self._start = reach[self.initial]
        self._step = {}
        for p, x, q in self.letter_edges:
            self._step.setdefault((p, x), set()).update(reach[q])

    def accepts(self, w: Word) -> bool:
        current = self._start
        for c in w.letters:
            nxt: set[int] = set()
            for p in current:
                nxt.update(self._step.get((p, c), ()))
            if not nxt:
                return False
            current = nxt
        return self.accepting in current


def _add_cycle(edges: set[tuple[int, int, int]], start: int, word: Word,
               next_free: int) -> int:
    """Wire a bidirectional cycle spelling ``word`` through ``start``."""
    n = len(word.letters)
    states = [start] + list(range(next_free, next_free + n - 1))
    for i, c in enumerate(word.letters):
        a, b = states[i], states[(i + 1) % n]
        edges.add((a, c, b))
        edges.add((b, c ^ 1, a))
    return next_free + n - 1


def build_coset_automaton(u: Word, z_mid: Word, v: Word) -> CosetAutomaton:
    if not u or not v:
        raise DegenerateInput("double cosets need nontrivial cyclic sides")
    if u.alphabet != z_mid.alphabet or u.alphabet != v.alphabet:
        raise AlphabetMismatch("double-coset pieces over mixed alphabets")

    edges: set[tuple[int, int, int]] = set()
    eps: set[tuple[int, int]] = set()
    initial, accepting = 0, 1
    free = 2
    free = _add_cycle(edges, initial, u, free)
    free = _add_cycle(edges, accepting, v, free)
    if z_mid.letters:
        prev = initial
        for i, c in enumerate(z_mid.letters):
            nxt = accepting if i == len(z_mid.letters) - 1 else free
            if nxt == free:
                free += 1
            edges.add((prev, c, nxt))
            prev = nxt
    else:
        eps.add((initial, accepting))

    # saturate: close epsilons transitively, then add a shortcut p ~~> s for
    # every configuration p --x--> q ~~> r --x^-1--> s
    by_label: dict[int, list[tuple[int, int]]] = {}
    for p, x, q in edges:
        by_label.setdefault(x, []).append((p, q))
    while True:
        reach = _eps_reach(free, eps)
        added = False
        for x, forward in by_label.items():
            backward = by_label.get(x ^ 1, ())
            for p, q in forward:
                for r, s in backward:
                    if r in reach[q] and p != s and (p, s) not in eps:
                        eps.add((p, s))
                        added = True
        if not added:
            break

    return CosetAutomaton(free, initial, accepting, frozenset(edges), frozenset(eps))


def double_coset_member(u: Word, z_mid: Word, v: Word, z: Word) -> bool:
    """Whether z lies in {u^a z_mid v^b : a, b in Z}."""
    if z.alphabet != u.alphabet:
        raise AlphabetMismatch("z over a different alphabet")
    return build_coset_automaton(u, z_mid, v).accepts(z)


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
    if t.alphabet != x.alphabet:
        raise AlphabetMismatch("y over a different alphabet from x")
    if not centralizer_equal(x, x2):
        return False
    return not t or (centralizer_equal(x, t) and root(t)[1] % m == 0)


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
    if any(w.alphabet != x.alphabet for w in (y, z, x2, y2, z2)):
        raise AlphabetMismatch("E3 words over mixed alphabets")
    if not centralizer_equal(x, x2) or not centralizer_equal(y, y2):
        return False
    return double_coset_member(root(x)[0] ** p, z2, root(y)[0] ** q, z)
