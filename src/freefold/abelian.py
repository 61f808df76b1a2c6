"""Abelianized invariants: exponent vectors and the abelian obstruction to
extending a tuple to a basis.

All arithmetic is exact (Python bignums), so entries cannot overflow.  The
extendability test needs no Smith normal form, only whether the maximal
minors are coprime, which column reduction answers with one extended gcd
per pair of columns; the last row is decided by the gcd of its remaining
entries alone, with no column step.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Sequence

from .words import DegenerateInput, Word

IntVector = tuple[int, ...]


def exponent_vector(w: Word) -> IntVector:
    """Image of w in the abelianization: signed letter counts per generator."""
    counts = [0] * w.alphabet.rank
    for c in w.letters:
        counts[c >> 1] += -1 if c & 1 else 1
    return tuple(counts)


def is_basis_extendable_abelian(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the k rows extend to a basis of the integer lattice Z^n.

    They do exactly when k <= n and the k x k minors have gcd 1.  Multiplying
    the matrix M on the right by a unimodular U keeps that gcd, since by
    Cauchy-Binet each minor of MU is an integer combination of minors of M
    and back through U^-1.  For i = 0, 1, ... the columns i, j > i are
    combined pairwise by the unimodular 2 x 2 step (x, -b/g; y, a/g), with
    a = M[i][i], b = M[i][j], g = gcd(a, b) and x a + y b = g, which turns
    row i's pair (a, b) into (g, 0) and leaves the earlier rows alone (they
    are zero from column i on).  Row i ends as (..., g_i, 0, ..., 0), with
    g_i the gcd of its entries from column i on before the steps, so MU is
    a lower-triangular k x k block of determinant g_0 ... g_{k-1} followed
    by zero columns, and that determinant is its only nonzero maximal minor.
    So the rows extend iff every g_i is 1, and the first g_i != 1 answers
    False without reducing further.

    Only the rows below row i are stepped: the step sends row i's own pair
    to (x a + y b, a/g b - b/g a) = (g, 0), so that pair is written
    directly.  The last row takes no steps at all: g_{k-1} is the gcd of its
    entries from column k - 1 on, which its own steps would only collect
    into one entry, and no row is below it.  So once every earlier g_i is 1,
    the answer is whether g_{k-1} is 1.

    The minor criterion itself: if every g_i is 1, stacking [0 | I] under MU
    gives a unimodular matrix, and times U^-1 it extends M.  If M is the top
    of a unimodular N, expanding det N = +-1 along those k rows (Laplace)
    writes 1 as an integer combination of their k x k minors.

    Entries must be integers; anything else raises ``ValueError``, as does a
    ragged matrix, and an empty one raises ``DegenerateInput``.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise DegenerateInput("no vectors given")
    try:
        m = [[index(x) for x in r] for r in vecs]
    except TypeError as exc:
        raise ValueError(f"matrix entries must be integers: {exc}") from None
    if not m[0]:
        raise DegenerateInput("extendability of an empty matrix")
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("matrix is not rectangular")
    k, n = len(m), len(m[0])
    if k > n:
        return False
    last = k - 1
    for i in range(last):
        row = m[i]
        if gcd(*row[i:]) != 1:
            return False
        below = m[i + 1:]
        for j in range(i + 1, n):
            a, b = row[i], row[j]
            if not b:
                continue
            g = gcd(a, b)
            row[i], row[j] = g, 0
            a, b = a // g, b // g
            x = pow(a, -1, abs(b))
            y = (1 - x * a) // b
            for r in below:
                ri, rj = r[i], r[j]
                r[i], r[j] = x * ri + y * rj, a * rj - b * ri
    return gcd(*m[last][last:]) == 1
