"""Shared test utilities: seeded random words, small enumerations, words
re-expressed by name, the chain's named complements, the reference fold and basis test, the reference least rotation, the
chain built with ``multiply``, the two-loop relation check, the
step-by-step surface residue, the fold-based flag check, the reference ball
scan, the full set of Whitehead moves, the reference Whitehead descent and
level-set sweep, the round-based coset automaton and the maximal-minor
extendability test."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd
from typing import Iterable, Sequence

from freefold.chain import (
    BUDGET,
    DEFAULT_SCAN_CAP,
    SurfaceChain,
    VerificationReport,
    _c0_once,
    _finish,
    chain_alphabet,
    flag_parts,
)
from freefold.graphs import SubgroupGraph, fold_subgroup
from freefold.whitehead import (
    DEFAULT_BUDGET,
    Automorphism,
    BudgetExhausted,
    _move,
)
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


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int,
                nonempty: bool = False) -> Word:
    while True:
        n = rng.randint(1 if nonempty else 0, max_len)
        w = Word(alphabet, (rng.randrange(2 * alphabet.rank) for _ in range(n)))
        if w or not nonempty:
            return w


def restrict_word(w: Word, sub: Alphabet) -> Word:
    """Re-express w over another alphabet (a sub-alphabet, or the same names
    in another order), by generator name."""
    codes = []
    for c in w.letters:
        name = w.alphabet.names[c >> 1]
        codes.append(2 * sub.index(name) + (c & 1))
    return Word(sub, codes)


def complement_basis(chain: SurfaceChain, j: int) -> list[Word]:
    """Basis of the explicit complement N_j of <d_j>:
    N_0 = <a0, b0>, N_j = N_{j-1} * <t_{j-1}> * <a_j, b_j>: positions 1 ... 3j + 2."""
    return chain.generators[1: 3 * j + 3]


def all_reduced_words(alphabet: Alphabet, length: int) -> list[Word]:
    """Every reduced word of exactly the given length."""
    out = []
    for codes in product(range(2 * alphabet.rank), repeat=length):
        ok = all(codes[i + 1] != codes[i] ^ 1 for i in range(length - 1))
        if ok:
            out.append(Word(alphabet, codes))
    return out


def naive_root(w: Word) -> tuple[Word, int]:
    """The maximal root (r, k), w = r^k, by testing every period letter by
    letter and reducing the root through ``Word``.

    Test oracle for ``freefold.words.root``, which compares slices and
    builds the root without a reduction pass.
    """
    if not w:
        raise DegenerateInput("the empty word has no root")
    codes = w.letters
    lo, hi = 0, len(codes)
    while hi - lo >= 2 and codes[lo] == codes[hi - 1] ^ 1:
        lo += 1
        hi -= 1
    prefix, core = codes[:lo], codes[lo:hi]
    n = len(core)
    period = n
    for d in range(1, n):
        if n % d == 0 and all(core[i] == core[i % d] for i in range(n)):
            period = d
            break
    back = tuple(c ^ 1 for c in reversed(prefix))
    return Word(w.alphabet, prefix + core[:period] + back), n // period


def naive_least_rotation(codes: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Lexicographically least rotation and its offset.  O(L^2) is fine here.

    Test oracle for ``freefold.words._least_rotation``, which must return the
    same rotation and the same (smallest) offset.
    """
    if not codes:
        return codes, 0
    best, best_i = codes, 0
    for i in range(1, len(codes)):
        rot = codes[i:] + codes[:i]
        if rot < best:
            best, best_i = rot, i
    return best, best_i


def naive_fold(gens: Sequence[Word], alphabet: Alphabet | None = None) -> SubgroupGraph:
    """The pass-by-pass fold: one merge per scan of the sorted edge set.

    Test oracle for ``freefold.graphs.fold_subgroup``, which must return
    equal graphs for every input.
    """
    gens = list(gens)
    if alphabet is None:
        if not gens:
            raise ValueError("an alphabet is required to fold the trivial subgroup")
        alphabet = gens[0].alphabet
    for w in gens:
        if w.alphabet != alphabet:
            raise AlphabetMismatch("subgroup generators over mixed alphabets")

    # Wedge of loops at vertex 0.
    edges: set[tuple[int, int, int]] = set()
    nv = 1
    for w in gens:
        prev = 0
        for i, c in enumerate(w.letters):
            nxt = 0 if i == len(w.letters) - 1 else nv
            if nxt != 0:
                nv += 1
            g = c >> 1
            if c & 1:
                edges.add((nxt, g, prev))
            else:
                edges.add((prev, g, nxt))
            prev = nxt

    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller id so the base vertex 0 survives every merge
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    # Fold to fixpoint.  Scanning in sorted order keeps the merge sequence
    # deterministic; confluence makes the result unique anyway.
    while True:
        edges = {(find(u), g, find(v)) for (u, g, v) in edges}
        merged = False
        seen_out: dict[tuple[int, int], int] = {}
        seen_in: dict[tuple[int, int], int] = {}
        for u, g, v in sorted(edges):
            key = (u, g)
            if key in seen_out and seen_out[key] != v:
                union(seen_out[key], v)
                merged = True
                break
            seen_out[key] = v
            key = (v, g)
            if key in seen_in and seen_in[key] != u:
                union(seen_in[key], u)
                merged = True
                break
            seen_in[key] = u
        if not merged:
            break

    # Trim non-base dangling trees.
    while True:
        degree: dict[int, int] = {}
        for u, g, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        dead = {
            v
            for v in degree
            if v != 0 and degree[v] <= 1
        }
        if not dead:
            break
        edges = {e for e in edges if e[0] not in dead and e[2] not in dead}

    # Canonical BFS relabeling from the base.
    out_adj: dict[int, dict[int, int]] = {}
    in_adj: dict[int, dict[int, int]] = {}
    verts = {0}
    for u, g, v in edges:
        out_adj.setdefault(u, {})[g] = v
        in_adj.setdefault(v, {})[g] = u
        verts.add(u)
        verts.add(v)
    order: dict[int, int] = {0: 0}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for g in sorted(out_adj.get(v, {})):
            w = out_adj[v][g]
            if w not in order:
                order[w] = len(order)
                queue.append(w)
        for g in sorted(in_adj.get(v, {})):
            u = in_adj[v][g]
            if u not in order:
                order[u] = len(order)
                queue.append(u)
    # every vertex is reachable from the base by construction
    assert len(order) == len(verts)

    # one step dict per vertex, each edge held at both ends
    n = len(order)
    steps: list[dict[int, int]] = [dict() for _ in range(n)]
    for u, g, v in edges:
        steps[order[u]][2 * g] = order[v]
        steps[order[v]][2 * g + 1] = order[u]
    return SubgroupGraph(alphabet, tuple(steps), tuple(gens))


def naive_is_basis(gens: Sequence[Word], alphabet: Alphabet) -> bool:
    """Count, fold with ``naive_fold``, and require every generator inside.

    Test oracle for ``freefold.graphs.is_basis_of_ambient``, which folds
    with the worklist fold, and for ``freefold.chain._c0_once``, which
    decides the chain's candidate bases, the surface rewrite basis among
    them, by counting c0 letters.
    """
    gens = list(gens)
    if len(gens) != alphabet.rank:
        return False
    graph = naive_fold(gens, alphabet)
    return all(graph.contains(x) for x in alphabet.generators())


def naive_build_chain(
    n: int, inverted_stable_letters: bool = False
) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """The c-words and every d-word of the depth-n chain, each built with
    ``multiply`` and ``conjugate`` from letters taken by name:
    d_i = c_i^-1 [a_i, b_i]^-1, and c_{i+1} = d_i ** t_i, or d_i ** t_i^-1
    when the stable letters are inverted.

    Test oracle for ``freefold.chain.build_chain``, which builds the c-words
    and d_n from their letters, and for ``SurfaceChain.d``, which reads the
    other d-words off the c-words.
    """
    gen = chain_alphabet(n).gen
    c, d = [gen("c0")], []
    for i in range(n + 1):
        d.append(multiply(invert(c[i]), invert(commutator(gen(f"a{i}"), gen(f"b{i}")))))
        if i < n:
            t_i = gen(f"t{i}")
            c.append(conjugate(d[i], invert(t_i) if inverted_stable_letters else t_i))
    return tuple(c), tuple(d)


def naive_relation_chain(chain: SurfaceChain, d: Sequence[Word]) -> VerificationReport:
    """The relation check on explicit d-words: the residue c_i d_i [a_i, b_i]
    for every i, then c_{i+1} against d_i ** t_i for i < n, each with
    ``multiply``; the first mismatching gluing is written out, and one more
    witness names the other mismatching indices.

    Test oracle for ``freefold.chain.verify_relation_chain``, which reads
    only the stored words and compares each c_{i+1} with the word the
    relation and the gluing give; fed the chain's ``d``, the two agree on
    status.
    """
    started = time.perf_counter()
    witnesses = []
    for i in range(chain.n + 1):
        residue = multiply(multiply(chain.c[i], d[i]), commutator(chain.a(i), chain.b(i)))
        if residue:
            witnesses.append(f"i={i}: c d [a,b] = {residue}")
    bad = []
    for i in range(chain.n):
        expected = conjugate(d[i], chain.t(i))
        if chain.c[i + 1] != expected:
            if not bad:
                witnesses.append(f"i={i + 1}: c differs from d^t = {expected}")
            bad.append(i + 1)
    if len(bad) > 1:
        witnesses.append(f"i={','.join(map(str, bad[1:]))}: c differs from d^t as well")
    return _finish("relation_chain", {"n": chain.n}, witnesses, started)


def naive_primed_residue(chain: SurfaceChain) -> Word:
    """The surface relator's identity residue, one ``multiply`` per piece,
    with the handles conjugated by the O(n^2)-letter ``chain.s``.

    Test oracle for ``freefold.chain._relator_residue``, which cancels the
    conjugators of neighbouring pieces first, and so for
    ``surface_rewrite(chain).identity_residue`` and for the residues of
    ``verify_surface_rewrite``, the other convention's read off
    ``_last_boundary``; each must be this residue.
    """
    n = chain.n
    handles = [(conjugate(chain.a(i), chain.s[i - 1]), conjugate(chain.b(i), chain.s[i - 1]))
               for i in range(1, n + 1)]
    d_np = conjugate(chain.d_n, chain.s[n - 1])
    rhs = commutator(chain.b(0), chain.a(0))
    for a_p, b_p in handles[1::2]:
        rhs = multiply(rhs, commutator(b_p, a_p))
    rhs = multiply(rhs, invert(d_np))
    for a_p, b_p in handles[-2::-2]:
        rhs = multiply(rhs, commutator(a_p, b_p))
    return multiply(invert(chain.c[0]), rhs)


def naive_rewrite_basis(chain: SurfaceChain) -> list[Word]:
    """The new basis of ``surface_rewrite``, each handle conjugated by
    ``chain.s`` with ``conjugate``.

    Test oracle for ``freefold.chain.surface_rewrite``, which writes the
    handles out from the letters of t_0 ... t_{j-1}.
    """
    n = chain.n
    d_np = conjugate(chain.d_n, chain.s[n - 1])
    basis = [chain.a(0), chain.b(0)]
    for j in range(1, n + 1):
        handle = [conjugate(x, chain.s[j - 1]) for x in (chain.a(j), chain.b(j))]
        basis.append(chain.t(j - 1))
        basis += [conjugate(w, d_np) for w in handle] if j % 2 else handle
    return basis + [d_np]


def naive_flag_decomposition(chain: SurfaceChain, i: int) -> VerificationReport:
    """The flag check by folding K u H and H u L at every index.

    Test oracle for ``freefold.chain.explicit_flag_decomposition``, which
    reads (b) and (c) off letter positions where c_2i allows it and must
    give the same status, params and witnesses.
    """
    started = time.perf_counter()
    k_part, h_part, l_part = flag_parts(chain, i)
    witnesses = []
    if not _c0_once(chain.c[2 * i]):
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


def _ball_of_products(part: Sequence[Word], max_len: int, cap: int):
    """All nontrivial reduced products of at most max_len part letters,
    or None once more than cap distinct elements appear."""
    if not part:
        return []
    alphabet = part[0].alphabet
    letters = []
    for w in part:
        letters += [w, invert(w)]
    seen = {alphabet.identity().letters: alphabet.identity()}
    frontier = [alphabet.identity()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for l in letters:
                prod = multiply(w, l)
                if prod.letters not in seen:
                    seen[prod.letters] = prod
                    nxt.append(prod)
                    if len(seen) - 1 > cap:
                        return None
        frontier = nxt
    return [w for key, w in seen.items() if key]


def naive_cross_conjugacy_scan(
    part1: Sequence[Word],
    part2: Sequence[Word],
    max_len: int,
    element_cap: int = DEFAULT_SCAN_CAP,
) -> VerificationReport:
    """Key every element of both balls by its canonical cyclic form.

    Test oracle for ``freefold.chain.cross_conjugacy_scan``, which keys only
    one element per class and must return the same status, params and
    witnesses on parts over one alphabet.
    """
    if min(max_len, element_cap) < 1:
        raise ValueError(f"scan needs max_len, element_cap >= 1, got {max_len}, {element_cap}")
    started = time.perf_counter()
    params = {"max_len": max_len, "element_cap": element_cap}
    sides = []
    for part in (part1, part2):
        ball = _ball_of_products(part, max_len, element_cap)
        if ball is None:
            return _finish(
                "conjugacy_separation", params, [], started, status=BUDGET
            )
        classes: dict[tuple, Word] = {}
        for w in ball:
            key = cyclic_canonical(w).letters
            classes.setdefault(key, w)
        sides.append(classes)
    common = sorted(set(sides[0]) & set(sides[1]))
    witnesses = []
    if common:
        key = common[0]
        witnesses = [str(sides[0][key]), str(sides[1][key])]
    params = {**params, "classes_1": len(sides[0]), "classes_2": len(sides[1])}
    return _finish("conjugacy_separation", params, witnesses, started)


# -- reference Whitehead descent ----------------------------------------------


_KEEP, _LEFT, _RIGHT, _CONJ = range(4)


def _type_one(alphabet: Alphabet) -> list[Automorphism]:
    """The type-I Whitehead moves: all r! 2^r signed basis permutations."""
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


def whitehead_generators(alphabet: Alphabet) -> list[Automorphism]:
    """All type-I (signed basis permutations) and type-II Whitehead moves,
    the type-II moves in the order in which ``freefold.whitehead._scan``
    steps through them: multiplier by multiplier, then the choices in
    ``product`` order, all-keep left out.

    They generate Aut(F): the tests compose them into random automorphisms.
    The library's searches apply type-II moves only, so it keeps neither
    this list nor the type-I moves.
    """
    if alphabet.rank < 1:
        raise ValueError("rank must be at least 1")
    r = alphabet.rank
    return _type_one(alphabet) + [
        _move(alphabet, m, choice)
        for m in range(2 * r)
        for choice in product((_KEEP, _LEFT, _RIGHT, _CONJ), repeat=r - 1)
        if any(choice)
    ]


def naive_type_two(alphabet: Alphabet) -> list[Automorphism]:
    """Type-II Whitehead moves: a multiplier letter m fixes itself and every
    other generator x goes independently to x, m x, x m^-1 or m x m^-1.

    Test oracle for ``freefold.whitehead._scan``, whose moves must come in
    this order with these substitution tables, for its plan ``_block``,
    whose image pairs must be these, and for ``_move``, which must build
    these images and inverse images.
    """
    r = alphabet.rank
    gens = [Word(alphabet, (2 * g,)) for g in range(r)]
    out = []
    for m_code in range(2 * r):
        m_gen = m_code >> 1
        m = Word(alphabet, (m_code,))
        m_inv = Word(alphabet, (m_code ^ 1,))
        others = [g for g in range(r) if g != m_gen]
        for choice in product((_KEEP, _LEFT, _RIGHT, _CONJ), repeat=len(others)):
            if all(ch == _KEEP for ch in choice):
                continue
            images = list(gens)
            inverse = list(gens)
            for g, ch in zip(others, choice):
                x = gens[g]
                if ch == _LEFT:
                    images[g] = multiply(m, x)
                    inverse[g] = multiply(m_inv, x)
                elif ch == _RIGHT:
                    images[g] = multiply(x, m_inv)
                    inverse[g] = multiply(x, m)
                elif ch == _CONJ:
                    images[g] = multiply(multiply(m, x), m_inv)
                    inverse[g] = multiply(multiply(m_inv, x), m)
            out.append(Automorphism(alphabet, images, inverse, _trusted=True))
    return out


@lru_cache(maxsize=32)
def _naive_moves(alphabet: Alphabet) -> tuple[Automorphism, ...]:
    return tuple(naive_type_two(alphabet))


def _total(tup: Sequence[Word]) -> int:
    return sum(len(w) for w in tup)


def naive_minimize_tuple(
    t: Sequence[Word], budget: int = DEFAULT_BUDGET
) -> tuple[list[Word], list[Automorphism]]:
    """Apply every candidate move and canonicalise every image.

    Test oracle for ``freefold.whitehead.minimize_tuple``, which scores
    candidates by cyclic length alone and must return the same tuple, take
    the same moves and exhaust the same budgets.  Like it, this stops once
    the total is the number of nontrivial entries, which no move undercuts.
    """
    if not t:
        raise DegenerateInput("cannot minimize an empty tuple")
    alphabet = t[0].alphabet
    for w in t:
        if w.alphabet != alphabet:
            raise AlphabetMismatch("tuple entries over mixed alphabets")
    moves = _naive_moves(alphabet)
    current = [cyclic_canonical(w) for w in t]
    floor = len([w for w in current if w])
    seq: list[Automorphism] = []
    examined = 0
    improved = True
    while improved and _total(current) != floor:
        improved = False
        for f in moves:
            candidate = [cyclic_canonical(f.apply(w)) for w in current]
            examined += 1
            if examined > budget:
                raise BudgetExhausted(f"minimization exceeded {budget} examined tuples")
            if _total(candidate) < _total(current):
                current = candidate
                seq.append(f)
                improved = True
                break
    return current, seq


def _is_generator_tuple(tup: Sequence[Word]) -> bool:
    gens = set()
    for w in tup:
        if len(w) != 1:
            return False
        gens.add(w.letters[0] >> 1)
    return len(gens) == len(tup)


def naive_extends_to_basis(t: Sequence[Word], budget: int = DEFAULT_BUDGET) -> bool:
    """Descend with ``naive_minimize_tuple``, then sweep the level set,
    canonicalising every candidate.

    Test oracle for ``freefold.whitehead.extends_to_basis``, which runs no
    sweep: where this answers, the two answers agree, and where this runs
    out in the sweep, the library answers ``False`` from a descent that ends
    above the length floor.  A descended tuple of single letters that is not
    a generator tuple answers ``False`` unswept, as there.
    """
    if not t:
        raise DegenerateInput("cannot test an empty tuple")
    for w in t:
        if not w:
            raise DegenerateInput("tuple entries must be nontrivial")
    start, _ = naive_minimize_tuple(t, budget)
    floor = _total(start)
    moves = _naive_moves(start[0].alphabet)
    first = tuple(start)
    if _is_generator_tuple(first):
        return True
    if all(len(w) == 1 for w in first):
        return False
    visited = {first}
    frontier = [first]
    examined = 0
    while frontier:
        next_frontier = []
        for tup in frontier:
            for f in moves:
                candidate = tuple(cyclic_canonical(f.apply(w)) for w in tup)
                examined += 1
                if examined > budget:
                    raise BudgetExhausted(
                        f"basis-extension search exceeded {budget} examined tuples"
                    )
                if _total(candidate) != floor or candidate in visited:
                    continue
                if _is_generator_tuple(candidate):
                    return True
                visited.add(candidate)
                next_frontier.append(candidate)
        frontier = next_frontier
    return False


# -- the round-based coset automaton -------------------------------------------


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
class NaiveCosetAutomaton:
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


def naive_build_coset_automaton(u: Word, z_mid: Word, v: Word) -> NaiveCosetAutomaton:
    """Saturation in full rounds: recompute every epsilon closure, scan every
    pair of letter edges, repeat until a round adds no shortcut.

    The automaton spells u^a z_mid v^b: a cycle spelling u (walkable both
    ways) at the initial state, a one-way arc spelling z_mid, and a cycle
    spelling v at the accepting state.  A shortcut p ~~> s is added for
    every p --x--> q ~~> r --x^-1--> s; each is witnessed by a path whose
    label freely reduces away, and at the fixpoint the reduced word of
    every member is accepted (Benois).  Test oracle for
    ``freefold.cosets.CosetAutomaton``, which must accept the same words.
    """
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

    return NaiveCosetAutomaton(free, initial, accepting, frozenset(edges), frozenset(eps))


# -- the maximal-minor extendability test -------------------------------------


def bareiss_determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    elimination (Bareiss, Math. Comp. 1968): each division is exact."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for i in range(n - 1):
        if not m[i][i]:
            swap = next((j for j in range(i + 1, n) if m[j][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for j in range(i + 1, n):
            for l in range(i + 1, n):
                m[j][l] = (m[j][l] * m[i][i] - m[j][i] * m[i][l]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def maximal_minor_gcd(rows: Sequence[Sequence[int]]) -> int:
    """The gcd of the k x k minors of a k x n integer matrix with k <= n."""
    k, n = len(rows), len(rows[0])
    return gcd(*(bareiss_determinant([[r[c] for c in cols] for r in rows])
                 for cols in combinations(range(n), k)))


def naive_is_basis_extendable_abelian(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the k rows extend to a basis of the integer lattice Z^n.

    True iff k <= n and the k x k minors have gcd 1, the criterion that
    ``freefold.abelian.is_basis_extendable_abelian`` proves in its docstring
    and decides by column reduction.  Test oracle for it.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise DegenerateInput("no vectors given")
    return len(vecs) <= len(vecs[0]) and maximal_minor_gcd(vecs) == 1
