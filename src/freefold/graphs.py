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

Every graph here, the fold's, the cyclic graphs that ``cosets`` reads and
the product components of ``pullback``, has one format: one step dict per
vertex, keyed by letter code, with ``steps[v][c] = w`` for an edge
v --c--> w.  Each edge is held at both ends, c at its tail and c ^ 1 at its
head, so a letter or its inverse steps the same way, and a loop puts two
entries in its vertex's dict.  One breadth-first walk, ``_numbered``,
numbers them: the fold's canonical relabeling is its reading from the base,
and ``pullback`` its reading of a component of a product from a pair.

The fold leaves no dangling tree away from the base (see
``fold_subgroup``).  A spur hanging from the base (as in the graph of
<a b a^-1>) is kept on purpose: membership then reads off closed base paths
with no special cases, and the rank formula E - V + 1 is unaffected by trees.
"""

from __future__ import annotations

from typing import Sequence

from .words import Alphabet, Word, _check_alphabet, _inverse, invert, multiply

Steps = Sequence[dict[int, int]]


def _out_then_in(c: int) -> tuple[int, int]:
    """Traversal order of a vertex's codes: out-edges by generator (even
    codes ascending), then in-edges by generator (odd codes ascending)."""
    return c & 1, c


def _stem_cycle(stem: tuple[int, ...], core: tuple[int, ...]) -> list[dict[int, int]]:
    """Step dicts of the folded graph of <w>, w = stem core stem^-1, base 0:
    a path spelling the stem, then a cycle spelling the core.

    Given the split with core nonempty and cyclically reduced and w reduced,
    the graph is folded as built: at the joint the last stem letter (walked
    back), the first core letter and the last core letter (walked back) are
    three different labels.  Its vertices are numbered along the stem and
    the core, not canonically: ``_canonical`` renumbers them as the fold does.
    """
    joint, n = len(stem), len(stem) + len(core)
    steps: list[dict[int, int]] = [{} for _ in range(n)]
    for a, c in enumerate(stem + core):
        b = a + 1 if a + 1 < n else joint
        steps[a][c] = b
        steps[b][c ^ 1] = a
    return steps


def _read(steps: Steps, letters) -> list[int]:
    """The vertices passed reading ``letters`` from the base, as far as they read."""
    path = [0]
    x = 0
    for c in letters:
        x = steps[x].get(c)
        if x is None:
            break
        path.append(x)
    return path


def _numbered(step, start) -> tuple[list, tuple[dict[int, int], ...]]:
    """What ``start`` reaches through ``step``, v -> v's step dict: the
    vertices in breadth-first order, each vertex's codes taken in
    ``_out_then_in`` order, and their step dicts renumbered by that order."""
    order, vertices, outs = {start: 0}, [start], []
    for v in vertices:  # the list grows as the walk reaches new vertices
        out = step(v)
        outs.append(out)
        for c in sorted(out, key=_out_then_in):
            w = out[c]
            if w not in order:
                order[w] = len(order)
                vertices.append(w)
    return vertices, tuple({c: order[w] for c, w in out.items()} for out in outs)


def _canonical(steps: Steps) -> tuple[dict[int, int], ...]:
    """The graph renumbered by ``_numbered`` from the base.  Reads only the
    vertices the base reaches; their entries must name vertices of ``steps``.
    """
    return _numbered(steps.__getitem__, 0)[1]


def pullback(g1: Steps, g2: Steps, start: tuple[int, int]) -> tuple[list, tuple[dict, ...]]:
    """The component of ``start`` in the product graph g1 x g2, whose edges
    (a, b) --c--> (a', b') pair an edge a --c--> a' of g1 with an edge
    b --c--> b' of g2: its vertex pairs and step dicts, from ``_numbered``."""
    def step(pair: tuple[int, int]) -> dict[int, tuple[int, int]]:
        step_b = g2[pair[1]]
        return {c: (a2, step_b[c]) for c, a2 in g1[pair[0]].items() if c in step_b}
    return _numbered(step, start)


class SubgroupGraph:
    """Immutable folded core graph of a finitely generated subgroup."""

    __slots__ = ("alphabet", "steps", "generators_of", "_tree")

    def __init__(self, alphabet, steps, generators_of):
        self.alphabet = alphabet
        self.steps = steps  # steps[v][c] = w for an edge v --c--> w; see above
        self.generators_of = generators_of
        self._tree = None  # see _nontree_edges

    base = 0

    @property
    def n_vertices(self) -> int:
        return len(self.steps)

    @property
    def n_edges(self) -> int:
        return sum(len(d) for d in self.steps) // 2

    def rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def contains(self, w: Word) -> bool:
        _check_alphabet(self.alphabet, w)
        steps, v = self.steps, self.base
        for c in w.letters:
            v = steps[v].get(c)
            if v is None:
                return False
        return v == self.base

    def _nontree_edges(self):
        """(tree path codes per vertex, non-tree edges, edge-end index).

        The tree is breadth-first from the base, codes in ``_out_then_in``
        order.  Vertex ids are that traversal's order (see ``_canonical``),
        so one pass by id reaches each vertex after its tree path is known.
        An edge read at its tail u, (u, c, v) with c even, is a tree edge
        when it reaches v first or is the last edge of u's tree path.  The
        non-tree edges are listed by tail and code, and the index keys the
        i-th (1-based) at both ends: (u, c, v) -> i and (v, c ^ 1, u) -> -i.
        Built on first use and kept: the graph never changes.
        """
        if self._tree is None:
            paths: list[tuple[int, ...] | None] = [None] * self.n_vertices
            paths[self.base] = ()
            edges: list[tuple[int, int, int]] = []
            index: dict[tuple[int, int, int], int] = {}
            for u, step in enumerate(self.steps):
                for c in sorted(step, key=_out_then_in):
                    v = step[c]
                    if paths[v] is None:
                        paths[v] = paths[u] + (c,)
                    elif not c & 1 and paths[u] != paths[v] + (c ^ 1,):
                        edges.append((u, c, v))
                        index[u, c, v], index[v, c ^ 1, u] = len(edges), -len(edges)
            self._tree = (paths, edges, index)
        return self._tree

    def basis(self) -> list[Word]:
        """A free basis read off a spanning tree, one word per non-tree edge."""
        paths, edges, _ = self._nontree_edges()
        return [Word(self.alphabet, paths[u] + (c,) + _inverse(paths[v]))
                for u, c, v in edges]

    def express(self, w: Word) -> list[int] | None:
        """Certificate of membership: w as a product of basis words.

        Returns signed 1-based indices into ``basis()`` (negative for an
        inverse factor), or None when w is not in the subgroup.  Multiplying
        the factors back reproduces w exactly, which makes this an
        independent positive-membership check.
        """
        _check_alphabet(self.alphabet, w)
        _, _, index = self._nontree_edges()
        steps, v = self.steps, self.base
        factors: list[int] = []
        for c in w.letters:
            t = steps[v].get(c)
            if t is None:
                return None
            i = index.get((v, c, t))
            if i:
                factors.append(i)
            v = t
        return factors if v == self.base else None

    def serialize(self) -> str:
        """Debug text form (internal, not stability-guaranteed)."""
        lines = [f"vertices {self.n_vertices}", "base 0"]
        for u, step in enumerate(self.steps):
            for c in sorted(step):
                if not c & 1:  # each edge once, at its tail
                    lines.append(f"edge {u} {self.alphabet.names[c >> 1]} {step[c]}")
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
    _check_alphabet(alphabet, *gens)

    # Vertices are joined by union-find.  A root vertex keeps its step dict;
    # entries may name non-root vertices and are read through find().  A
    # label collision never stores a second edge: it pushes the two far
    # endpoints onto ``pending`` instead.
    parent = [0]
    steps: list[dict[int, int]] = [{}]
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
            keep = steps[a]
            for c, t in steps[b].items():
                s = keep.get(c)
                if s is None:
                    keep[c] = t
                else:
                    pending.append((s, t))
            steps[b] = {}

    for w in gens:
        codes = w.letters
        # read the longest prefix along edges out of the base, then the
        # longest remaining suffix backwards along edges into the base
        head, i = 0, 0
        while i < len(codes):
            t = steps[head].get(codes[i])
            if t is None:
                break
            head, i = find(t), i + 1
        tail, j = 0, len(codes)
        while j > i:
            s = steps[tail].get(codes[j - 1] ^ 1)
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
                steps.append({})
            u, v = find(prev), find(nxt)
            t, s = steps[u].get(c), steps[v].get(c ^ 1)
            if t is None and s is None:
                steps[u][c] = v
                steps[v][c ^ 1] = u
            else:
                if t is not None:
                    pending.append((t, v))
                if s is not None:
                    pending.append((s, u))
                drain()
            prev = nxt

    # Relabel the roots canonically, reading each entry through find(); the
    # traversal reaches every root, since the folded graph is the connected
    # image of the wedge.
    _, folded = _numbered(lambda v: {c: find(t) for c, t in steps[v].items()}, 0)
    return SubgroupGraph(alphabet, folded, tuple(gens))


def is_basis_of_ambient(gens: Sequence[Word], alphabet: Alphabet | None = None) -> bool:
    """Whether gens is a basis of the whole ambient free group.

    A generating set of size equal to the rank is a basis (free groups are
    Hopfian), so it suffices to count and to check that every alphabet
    generator lies in <gens>.
    """
    gens = list(gens)
    if alphabet is None and gens:
        alphabet = gens[0].alphabet
    if alphabet is not None:  # else the fold refuses the empty candidate
        _check_alphabet(alphabet, *gens)
        if len(gens) != alphabet.rank:
            return False
    graph = fold_subgroup(gens, alphabet)
    return all(graph.contains(x) for x in graph.alphabet.generators())


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
