"""Shared test utilities: seeded random words, small enumerations, the
reference fold and basis test, the reference least rotation and the
reference ball scan."""

from __future__ import annotations

import random
import time
from itertools import product
from typing import Sequence

from freefold.chain import BUDGET, DEFAULT_SCAN_CAP, VerificationReport, _finish
from freefold.graphs import SubgroupGraph
from freefold.words import (
    Alphabet,
    AlphabetMismatch,
    Word,
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


def all_reduced_words(alphabet: Alphabet, length: int) -> list[Word]:
    """Every reduced word of exactly the given length."""
    out = []
    for codes in product(range(2 * alphabet.rank), repeat=length):
        ok = all(codes[i + 1] != codes[i] ^ 1 for i in range(length - 1))
        if ok:
            out.append(Word(alphabet, codes))
    return out


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

    n = len(order)
    out: list[dict[int, int]] = [dict() for _ in range(n)]
    inc: list[dict[int, int]] = [dict() for _ in range(n)]
    for u, g, v in edges:
        out[order[u]][g] = order[v]
        inc[order[v]][g] = order[u]
    return SubgroupGraph(alphabet, n, tuple(out), tuple(inc), tuple(gens))


def naive_is_basis(gens: Sequence[Word], alphabet: Alphabet) -> bool:
    """Count, fold with ``naive_fold``, and require every generator inside.

    Test oracle for ``freefold.graphs.is_basis_of_ambient``, which decides
    one shape of input without folding.
    """
    gens = list(gens)
    if len(gens) != alphabet.rank:
        return False
    graph = naive_fold(gens, alphabet)
    return all(graph.contains(x) for x in alphabet.generators())


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
