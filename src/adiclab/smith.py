"""Smith normal form over the Euclidean computation rings.

Works over the integers, over fields, and over univariate polynomial rings
with field coefficients (the rings elem_divstep supports).  Used by the
Euclidean chain analysis and for the invariant-factor comparison of
finitely presented modules.
"""
from __future__ import annotations

from .rings import RingSpec, elem_divstep, euclid_size


def smith_normal_form(matrix, ring: RingSpec):
    """(Vinv, D, rank) with U * matrix * V = D diagonal, d1 | d2 | ...

    U and V are invertible over the ring and are not kept; Vinv is the
    inverse of V, so row i of D * Vinv is d_i * (row i of Vinv) and these
    rows span the same submodule as the rows of matrix.  Diagonal entries
    are unit normalized (nonnegative over the integers, monic over k[t])."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    A = [[e for e in r] for r in matrix]
    one, zero = ring.one(), ring.zero()
    Vinv = [[one if i == j else zero for j in range(cols)]
            for i in range(cols)]

    # a zero source entry leaves its target as it is, so it is skipped
    def row_sub(i, j, q):  # row_i -= q * row_j
        for t in range(cols):
            if not A[j][t].is_zero():
                A[i][t] = A[i][t] - q * A[j][t]

    def col_sub(j, i, q):  # col_j -= q * col_i
        for t in range(rows):
            if not A[t][i].is_zero():
                A[t][j] = A[t][j] - q * A[t][i]
        for t in range(cols):
            if not Vinv[j][t].is_zero():
                Vinv[i][t] = Vinv[i][t] + q * Vinv[j][t]

    def col_add(j, i):  # col_j += col_i
        for t in range(rows):
            A[t][j] = A[t][j] + A[t][i]
        for t in range(cols):
            Vinv[i][t] = Vinv[i][t] - Vinv[j][t]

    def row_swap(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]

    def col_swap(i, j):
        if i != j:
            for t in range(rows):
                A[t][i], A[t][j] = A[t][j], A[t][i]
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if not A[i][j].is_zero():
                    s = euclid_size(A[i][j])
                    if best is None or s < best[0]:
                        best = (s, i, j)
        if best is None:
            break
        row_swap(t, best[1])
        col_swap(t, best[2])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t].is_zero():
                    continue
                q, r = elem_divstep(A[i][t], A[t][t])
                row_sub(i, t, q)
                if not r.is_zero():
                    row_swap(t, i)
                    dirty = True
            for j in range(t + 1, cols):
                if A[t][j].is_zero():
                    continue
                q, r = elem_divstep(A[t][j], A[t][t])
                col_sub(j, t, q)
                if not r.is_zero():
                    col_swap(t, j)
                    dirty = True
            # a pass without a swap leaves the pivot's row and column clear
            if not dirty:
                break
        t += 1
    rank = t

    # repair the divisibility chain with local 2x2 reductions
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            # no diagonal entry below the rank is zero: the pivots are
            # nonzero, and a repair keeps the determinant of its 2x2 block
            _, r = elem_divstep(A[i + 1][i + 1], A[i][i])
            if r.is_zero():
                continue
            changed = True
            col_add(i, i + 1)
            while not (A[i + 1][i].is_zero() and A[i][i + 1].is_zero()):
                if not A[i + 1][i].is_zero():
                    q2, r2 = elem_divstep(A[i + 1][i], A[i][i])
                    row_sub(i + 1, i, q2)
                    if not r2.is_zero():
                        row_swap(i, i + 1)
                if not A[i][i + 1].is_zero():
                    q2, r2 = elem_divstep(A[i][i + 1], A[i][i])
                    col_sub(i + 1, i, q2)
                    if not r2.is_zero():
                        col_swap(i, i + 1)

    # canonical units on the diagonal
    dom = ring.domain
    for i in range(rank):
        lead = A[i][i].leading()
        u = dom.normalizer(lead[1])
        if u != dom.one:
            for j in range(cols):
                A[i][j] = A[i][j].scale(u)
    return Vinv, A, rank


def invariant_factors(matrix, ring: RingSpec, ambient_rank: int):
    """Invariant factors of the cokernel of the row span.

    Returns (factors, free_rank): the nonunit diagonal entries, normalized,
    and the rank of the free part of ambient/rowspan."""
    if not matrix:
        return [], ambient_rank
    _, D, rank = smith_normal_form(matrix, ring)
    factors = []
    for i in range(rank):
        d = D[i][i]
        if not d.is_unit():
            factors.append(d)
    return factors, ambient_rank - rank
