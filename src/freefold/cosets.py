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

The shortcuts are the least fixpoint of that rule, computed by a worklist.
The letter edges are indexed once, by (source, letter) and by target.
Each state's epsilon closure is kept closed as shortcuts are added, and
each pair (q, r) with r in the closure of q is examined once, when r joins
it: only the edges into q and out of r are read then.  A rule that fires
later would need a pair that joined later, so nothing is missed, and the
shortcut set is the same as that of repeating full rounds until none adds
anything.

Acceptance runs the subset simulation over the same index and closures, a
letter stepping straight to the closures of its targets, so a reduced input
has exactly one run in the determinized machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import (
    AlphabetMismatch,
    DegenerateInput,
    Word,
    _same_root,
    invert,
    is_conjugate,
    multiply,
    root,
)


@dataclass
class CosetAutomaton:
    """Saturated recognizer for the reduced words of <u> z_mid <v>.

    ``build_coset_automaton`` hands over its saturation's letter-edge index
    and epsilon closures: ``_out[p][x]`` lists the targets of p's x-edges
    and ``_reach[q]`` is q's closure, so a letter steps from p straight to
    the closures of its targets.  ``double_coset_member`` reads one word
    per automaton, so no step table is built ahead of it.
    """

    n_states: int
    initial: int
    accepting: int
    letter_edges: frozenset[tuple[int, int, int]]  # (state, letter code, state)
    eps: frozenset[tuple[int, int]]
    _out: list[dict[int, list[int]]] = field(repr=False, compare=False)
    _reach: list[set[int]] = field(repr=False, compare=False)

    def accepts(self, w: Word) -> bool:
        out, reach = self._out, self._reach
        current = reach[self.initial]
        for c in w.letters:
            nxt: set[int] = set()
            for p in current:
                for q in out[p].get(c, ()):
                    nxt |= reach[q]
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

    # index the letter edges once: out[p][x] lists the targets of p's
    # x-edges, into[q] the pairs (p, x^-1) of the edges p --x--> q
    out: list[dict[int, list[int]]] = [{} for _ in range(free)]
    into: list[list[tuple[int, int]]] = [[] for _ in range(free)]
    for p, x, q in edges:
        out[p].setdefault(x, []).append(q)
        into[q].append((p, x ^ 1))

    # reach[q] is q's epsilon closure and back[r] the states whose closure
    # holds r; each pair (q, r) with r in reach[q] is queued once, when r
    # joins reach[q], and then adds the shortcut p ~~> s of every
    # configuration p --x--> q ~~> r --x^-1--> s
    reach: list[set[int]] = [{q} for q in range(free)]
    back: list[set[int]] = [{q} for q in range(free)]
    queue: list[tuple[int, int]] = [(q, q) for q in range(free)]

    def link(p: int, s: int) -> None:
        eps.add((p, s))
        for o in list(back[p]):
            for r in reach[s] - reach[o]:
                reach[o].add(r)
                back[r].add(o)
                queue.append((o, r))

    for p, s in list(eps):  # the seed shortcut of an empty z_mid
        link(p, s)
    while queue:
        q, r = queue.pop()
        out_r = out[r]
        for p, y in into[q]:
            for s in out_r.get(y, ()):
                if p != s and (p, s) not in eps:
                    link(p, s)

    return CosetAutomaton(free, initial, accepting, frozenset(edges), frozenset(eps),
                          out, reach)


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
    if x2.alphabet != x.alphabet:
        raise AlphabetMismatch("x' over a different alphabet from x")
    rx = root(x)[0]
    if not _same_root(rx, root(x2)[0]):
        return False
    if not t:
        return True
    rt, k = root(t)
    return _same_root(rx, rt) and k % m == 0


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
    rx = root(x)[0]
    if not _same_root(rx, root(x2)[0]):
        return False
    ry = root(y)[0]
    if not _same_root(ry, root(y2)[0]):
        return False
    return double_coset_member(rx ** p, z2, ry ** q, z)
