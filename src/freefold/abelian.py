"""Abelianized invariants: exponent vectors and Smith normal form over Z.

All arithmetic is exact (Python bignums), so entries cannot overflow.  Only
the elementary divisors are computed; the unimodular factors are never
needed here.
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


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix, zeros last.

    Classic pivot reduction: bring the absolutely smallest entry to the
    corner, kill its row and column by division with remainder, make the
    pivot divide the rest of the submatrix, recurse.  Returns min(R, C)
    nonnegative divisors.  Entries must be integers; anything else, a float
    included, raises ``ValueError`` rather than being truncated.
    """
    try:
        m = [[index(x) for x in r] for r in rows]
    except TypeError as exc:
        raise ValueError(f"matrix entries must be integers: {exc}") from None
    if not m or not m[0]:
        raise DegenerateInput("smith normal form of an empty matrix")
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("matrix is not rectangular")
    nr, nc = len(m), len(m[0])
    divisors: list[int] = []

    for t in range(min(nr, nc)):
        while True:
            # locate a pivot: smallest nonzero entry of the t.. submatrix
            pivot = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            m[t], m[pi] = m[pi], m[t]
            for r in m:
                r[t], r[pj] = r[pj], r[t]
            p = m[t][t]
            dirty = False
            for i in range(t + 1, nr):
                q = m[i][t] // p
                if q:
                    for j in range(t, nc):
                        m[i][j] -= q * m[t][j]
                if m[i][t]:
                    dirty = True
            for j in range(t + 1, nc):
                q = m[t][j] // p
                if q:
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    dirty = True
            if dirty:
                continue
            # pivot must divide everything that remains
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(t, nc):
                m[t][j] += m[bad][j]
        divisors.append(abs(m[t][t]) if t < nr and t < nc else 0)

    # the division chain holds by construction; normalize zeros to the tail
    nonzero = [d for d in divisors if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return nonzero + [0] * (min(nr, nc) - len(nonzero))


def is_basis_extendable_abelian(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the rows extend to a basis of the integer lattice.

    True iff the matrix has full row rank and every elementary divisor is 1.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise DegenerateInput("no vectors given")
    divisors = smith_normal_form(vecs)
    nonzero = [d for d in divisors if d]
    return len(nonzero) == len(vecs) and all(d == 1 for d in nonzero)


def content(vector: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in vector:
        g = gcd(g, x)
    return g
