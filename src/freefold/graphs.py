"""Folded subgroup graphs (Stallings graphs) for f.g. subgroups of free groups.

A subgroup graph is a connected, labeled, folded graph with a base vertex:
closed paths at the base spell exactly the subgroup's elements.  Folding
merges equally-labeled parallel edges until each vertex has at most one
outgoing and one incoming edge per label.  The fold is incremental: it
merges while the wedge of generator loops is built, with union-find and a
pending-merge stack, so its cost is near-linear in the total number of
generator letters.  The folded graph is independent of the merge order
(Stallings 1983), and vertices are relabeled by a breadth-first traversal,
so the output is canonical: equal subgroups produce identical graphs.

The fold leaves no dangling tree away from the base (see
``fold_subgroup``).  A spur hanging from the base (as in the graph of
<a b a^-1>) is kept on purpose: membership then reads off closed base paths
with no special cases, and the rank formula E - V + 1 is unaffected by trees.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .words import Alphabet, AlphabetMismatch, Word, _inverse, invert, multiply


class SubgroupGraph:
    """Immutable folded core graph of a finitely generated subgroup."""

    __slots__ = ("alphabet", "n_vertices", "out", "inc", "generators_of", "_tree")

    def __init__(self, alphabet, n_vertices, out, inc, generators_of):
        self.alphabet = alphabet
        self.n_vertices = n_vertices
        self.out = out  # out[v][g] = w  for an edge v --g--> w
        self.inc = inc  # inc[w][g] = v  for the same edge
        self.generators_of = generators_of
        self._tree = None  # see _nontree_edges

    base = 0

    @property
    def n_edges(self) -> int:
        return sum(len(d) for d in self.out)

    def rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def walk(self, w: Word) -> int | None:
        """Endpoint of the path spelling w from the base, or None if it dies."""
        v = self.base
        for c in w.letters:
            g = c >> 1
            v = self.inc[v].get(g) if c & 1 else self.out[v].get(g)
            if v is None:
                return None
        return v

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word alphabet differs from graph alphabet")
        return self.walk(w) == self.base

    def _spanning_tree(self):
        """BFS tree from the base; returns (path codes per vertex, tree edge set)."""
        paths: list[tuple[int, ...] | None] = [None] * self.n_vertices
        paths[self.base] = ()
        tree: set[tuple[int, int, int]] = set()
        queue = deque([self.base])
        while queue:
            v = queue.popleft()
            for g in sorted(self.out[v]):
                w = self.out[v][g]
                if paths[w] is None:
                    paths[w] = paths[v] + (2 * g,)
                    tree.add((v, g, w))
                    queue.append(w)
            for g in sorted(self.inc[v]):
                u = self.inc[v][g]
                if paths[u] is None:
                    paths[u] = paths[v] + (2 * g + 1,)
                    tree.add((u, g, v))
                    queue.append(u)
        return paths, tree

    def _nontree_edges(self):
        """(tree path codes per vertex, non-tree edges, edge -> 1-based index).

        Built on first use and kept: the graph never changes.
        """
        if self._tree is None:
            paths, tree = self._spanning_tree()
            edges = []
            for u in range(self.n_vertices):
                for g in sorted(self.out[u]):
                    v = self.out[u][g]
                    if (u, g, v) not in tree:
                        edges.append((u, g, v))
            index = {e: i + 1 for i, e in enumerate(edges)}
            self._tree = (paths, edges, index)
        return self._tree

    def basis(self) -> list[Word]:
        """A free basis read off a spanning tree, one word per non-tree edge."""
        paths, edges, _ = self._nontree_edges()
        out = []
        for u, g, v in edges:
            codes = paths[u] + (2 * g,) + _inverse(paths[v])
            out.append(Word(self.alphabet, codes))
        return out

    def express(self, w: Word) -> list[int] | None:
        """Certificate of membership: w as a product of basis words.

        Returns signed 1-based indices into ``basis()`` (negative for an
        inverse factor), or None when w is not in the subgroup.  Multiplying
        the factors back reproduces w exactly, which makes this an
        independent positive-membership check.
        """
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word alphabet differs from graph alphabet")
        _, _, index = self._nontree_edges()
        v = self.base
        factors: list[int] = []
        for c in w.letters:
            g = c >> 1
            if c & 1:
                u = self.inc[v].get(g)
                if u is None:
                    return None
                i = index.get((u, g, v))
                if i:
                    factors.append(-i)
                v = u
            else:
                t = self.out[v].get(g)
                if t is None:
                    return None
                i = index.get((v, g, t))
                if i:
                    factors.append(i)
                v = t
        return factors if v == self.base else None

    def serialize(self) -> str:
        """Debug text form (internal, not stability-guaranteed)."""
        lines = [f"vertices {self.n_vertices}", "base 0"]
        for u in range(self.n_vertices):
            for g in sorted(self.out[u]):
                lines.append(f"edge {u} {self.alphabet.names[g]} {self.out[u][g]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SubgroupGraph(V={self.n_vertices}, E={self.n_edges}, rank={self.rank()})"


def fold_subgroup(gens: Sequence[Word], alphabet: Alphabet | None = None) -> SubgroupGraph:
    """Fold the wedge of generator loops into the subgroup's core graph.

    A worklist fold after Touikan, "A fast algorithm for Stallings' folding
    process" (IJAC 2006): the wedge is folded while it is built, so the cost
    is near-linear in the total number of generator letters.

    Each generator is first read, not built: its longest prefix is followed
    along edges out of the base, then its longest remaining suffix is
    followed backwards along edges into the base, stopping before the two
    reads overlap.  Only the unread middle gets new vertices, as a path
    between the two vertices reached; a word that reads in full merges
    those two vertices instead.  Following an edge whose label the next
    letter spells is exactly the fold the built letter would undergo, so
    the graph is the fold of the same wedge.  That fold is independent of
    merge order (Stallings 1983), and the relabeling below does not see
    vertex ids, so the output is identical to a fold that builds every
    letter: it only allocates fewer vertices to merge away.

    The folded graph needs no trimming.  Every vertex is the image of a
    wedge vertex, which is interior to the loop of a generator w, and the
    image of that loop is a closed base path that spells w.  A path in a
    folded graph that turns back along the edge it came in on spells some
    x x^-1, and w is reduced, so the path never does.  A non-base vertex is
    therefore entered and left by two distinct edge ends: it has two
    distinct edges, or a loop, and is never a leaf.
    """
    gens = list(gens)
    if alphabet is None:
        if not gens:
            raise ValueError("an alphabet is required to fold the trivial subgroup")
        alphabet = gens[0].alphabet
    for w in gens:
        if w.alphabet != alphabet:
            raise AlphabetMismatch("subgroup generators over mixed alphabets")

    # Vertices are joined by union-find.  A root vertex v keeps its edges as
    # out[v][g] = w and inc[w][g] = v; entries may name non-root vertices and
    # are read through find().  A label collision never stores a second edge:
    # it pushes the two far endpoints onto ``pending`` instead.
    parent = [0]
    out: list[dict[int, int]] = [{}]
    inc: list[dict[int, int]] = [{}]
    pending: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def drain() -> None:
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            # keep the smaller id so the base vertex 0 survives every merge
            if b < a:
                a, b = b, a
            parent[b] = a
            for maps in (out, inc):
                keep = maps[a]
                for g, t in maps[b].items():
                    s = keep.get(g)
                    if s is None:
                        keep[g] = t
                    else:
                        pending.append((s, t))
                maps[b] = {}

    for w in gens:
        codes = w.letters
        # read the longest prefix along edges out of the base, then the
        # longest remaining suffix backwards along edges into the base
        head, i = 0, 0
        while i < len(codes):
            c = codes[i]
            t = (inc if c & 1 else out)[head].get(c >> 1)
            if t is None:
                break
            head, i = find(t), i + 1
        tail, j = 0, len(codes)
        while j > i:
            c = codes[j - 1]
            s = (out if c & 1 else inc)[tail].get(c >> 1)
            if s is None:
                break
            tail, j = find(s), j - 1
        if i == j:
            pending.append((head, tail))
            drain()
            continue
        # attach the unread middle as a path head -> ... -> tail, folding
        # each edge as it is added
        prev = head
        for k in range(i, j):
            c = codes[k]
            if k == j - 1:
                nxt = tail
            else:
                nxt = len(parent)
                parent.append(nxt)
                out.append({})
                inc.append({})
            u, v = find(prev), find(nxt)
            if c & 1:
                u, v = v, u
            g = c >> 1
            t, s = out[u].get(g), inc[v].get(g)
            if t is None and s is None:
                out[u][g] = v
                inc[v][g] = u
            else:
                if t is not None:
                    pending.append((t, v))
                if s is not None:
                    pending.append((s, u))
                drain()
            prev = nxt

    roots = [v for v in range(len(parent)) if parent[v] == v]
    for v in roots:
        out[v] = {g: find(t) for g, t in out[v].items()}
        inc[v] = {g: find(t) for g, t in inc[v].items()}

    # Canonical BFS relabeling from the base; it reaches every root, since
    # the folded graph is the connected image of the wedge.
    order: dict[int, int] = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for adj in (out[v], inc[v]):
            for g in sorted(adj):
                w = adj[g]
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)

    n = len(order)
    new_out: list[dict[int, int]] = [dict() for _ in range(n)]
    new_inc: list[dict[int, int]] = [dict() for _ in range(n)]
    for u, i in order.items():
        for g, v in out[u].items():
            new_out[i][g] = order[v]
            new_inc[order[v]][g] = i
    return SubgroupGraph(alphabet, n, tuple(new_out), tuple(new_inc), tuple(gens))


def is_basis_of_ambient(gens: Sequence[Word], alphabet: Alphabet | None = None) -> bool:
    """Whether gens is a basis of the whole ambient free group.

    A generating set of size equal to the rank is a basis (free groups are
    Hopfian), so it suffices to count and to check that every alphabet
    generator lies in <gens>.
    """
    gens = list(gens)
    if alphabet is None:
        if not gens:
            raise ValueError("an alphabet is required for an empty candidate basis")
        alphabet = gens[0].alphabet
    for w in gens:
        if w.alphabet != alphabet:
            raise AlphabetMismatch("subgroup generators over mixed alphabets")
    if len(gens) != alphabet.rank:
        return False
    graph = fold_subgroup(gens, alphabet)
    return all(graph.contains(x) for x in alphabet.generators())


def verify_expression(graph: SubgroupGraph, w: Word) -> bool:
    """Positive-membership certificate: express w in the basis and multiply back."""
    factors = graph.express(w)
    if factors is None:
        return False
    basis = graph.basis()
    acc = graph.alphabet.identity()
    for f in factors:
        piece = basis[f - 1] if f > 0 else invert(basis[-f - 1])
        acc = multiply(acc, piece)
    return acc == w
