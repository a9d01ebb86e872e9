"""Exact integer matrix routines: one sparse elimination core and a dense SNF.

Boundary maps are stored as sparse columns ({row: coefficient} dicts) with at
most 2(n-1) entries each.  ``_eliminate`` pivots them down: over Z only on
+-1 entries, so every step is unimodular, the Schur complement stays integral
and Smith(A) = I_k (+) Smith(residual); over GF(p) on any nonzero entry, which
leaves nothing.  The pivot is an entry of the shortest live column, in the
shortest row among its unit entries (Dumas, Saunders and Villard, J. Symb.
Comput. 32, 2001).  ``cokernel_invariants`` and ``mod_rank`` read ranks and
invariant factors off this core; the dense ``smith_normal_form``, with
entries as Python ints so everything stays exact, runs only on the small
residual, and carries a column transform when ``kernel_complement`` asks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


@dataclass
class SmithForm:
    diag: list[int]  # nonnegative; diag[i] divides diag[i+1]
    rank: int
    col_ops: list[list[int]] | None  # T with S @ A @ T diagonal for some unimodular S


def smith_normal_form(
    rows: Sequence[Sequence[int]],
    nrows: int,
    ncols: int,
    *,
    want_col_ops: bool = False,
) -> SmithForm:
    """Diagonalize a dense integer matrix by unimodular row/column operations.

    Returns the diagonal with the divisibility chain enforced, plus the
    accumulated column transform T when requested (S @ A @ T equals the
    diagonal matrix for some unimodular S, which is not kept).
    """
    d = [list(row) for row in rows]
    if any(len(row) != ncols for row in d):
        raise ValueError("ragged matrix")
    if len(d) != nrows:
        raise ValueError("row count mismatch")
    # Column operations act on the rows of d and of t alike.
    t = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if want_col_ops else []

    def row_combine(k: int, i: int, j: int) -> None:
        # Zero d[i][j] against pivot row k using a unimodular 2x2 transform.
        a, b = d[k][j], d[i][j]
        if b == 0:
            return
        rk, ri = d[k], d[i]
        if a != 0 and b % a == 0:
            q = b // a
            d[i] = [x - q * y for x, y in zip(ri, rk)]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        d[k] = [x * u + y * v for u, v in zip(rk, ri)]
        d[i] = [-bg * u + ag * v for u, v in zip(rk, ri)]

    def col_combine(k: int, j: int, i: int) -> None:
        # Zero d[i][j] against pivot column k.
        a, b = d[i][k], d[i][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for row in itertools.chain(d, t):
                row[j] -= q * row[k]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for row in itertools.chain(d, t):
            u, v = row[k], row[j]
            row[k] = x * u + y * v
            row[j] = -bg * u + ag * v

    k = 0
    while k < min(nrows, ncols):
        # The first min-abs pivot, in row order, of the trailing submatrix.
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                v = d[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, i, j = best
        d[k], d[i] = d[i], d[k]
        if j != k:
            for row in itertools.chain(d, t):
                row[k], row[j] = row[j], row[k]
        while True:
            for i in range(k + 1, nrows):
                row_combine(k, i, k)
            if all(d[k][j] == 0 for j in range(k + 1, ncols)):
                break
            for j in range(k + 1, ncols):
                col_combine(k, j, k)
            if all(d[i][k] == 0 for i in range(k + 1, nrows)):
                break
        k += 1
    rank = k

    def make_nonnegative(*indices: int) -> None:
        for i in indices:
            if d[i][i] < 0:
                d[i] = [-x for x in d[i]]

    make_nonnegative(*range(rank))
    # Enforce the divisibility chain d[i] | d[i+1].
    i = 0
    while i < rank - 1:
        a, b = d[i][i], d[i + 1][i + 1]
        if b % a == 0:
            i += 1
            continue
        # Fold column i+1 into column i, then re-diagonalize the 2x2 block.
        for row in itertools.chain(d, t):
            row[i] += row[i + 1]
        row_combine(i, i + 1, i)
        col_combine(i, i + 1, i)
        row_combine(i, i + 1, i)
        make_nonnegative(i, i + 1)
        i = max(i - 1, 0)

    diag = [d[i][i] for i in range(min(nrows, ncols))]
    return SmithForm(diag=diag, rank=rank, col_ops=t if want_col_ops else None)


def kernel_complement(
    rows: Sequence[Sequence[int]], nrows: int, ncols: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Integer kernel basis of A, plus columns completing it to a basis of Z^ncols.

    The kernel of an integer matrix is saturated, so the non-kernel columns of
    the Smith column transform are a genuine complement.  Both are returned as
    lists of column vectors of length ncols.
    """
    sf = smith_normal_form(rows, nrows, ncols, want_col_ops=True)
    columns = [list(col) for col in zip(*sf.col_ops)]
    return columns[sf.rank :], columns[: sf.rank]


def dense_rows(columns: Sequence[Mapping[int, int]], nrows: int) -> list[list[int]]:
    """The rows of the nrows x len(columns) matrix with these sparse columns."""
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _eliminate(
    columns: Sequence[Mapping[int, int]], nrows: int, p: int = 0
) -> tuple[int, list[list[int]]]:
    """Pivot away the unit entries of a sparse matrix (units of Z, or of GF(p)).

    Returns the number k of pivots and the residual as dense rows, with its
    zero rows and columns dropped.  The input columns are not modified.
    """
    cols = {j: {i: w for i, v in col.items() if (w := v % p if p else v)}
            for j, col in enumerate(columns)}
    rows: list[set[int]] = [set() for _ in range(nrows)]
    for j, col in cols.items():
        for i in col:
            rows[i].add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    while heap:
        length, c = heapq.heappop(heap)
        col = cols.get(c, {})
        units = [i for i, v in col.items() if p or v in (1, -1)] if len(col) == length else []
        if not units:
            continue  # stale, or no unit yet: every update pushes the column again
        r = min(units, key=lambda i: (len(rows[i]), i))
        del cols[c]
        for i in col:
            rows[i].discard(c)
        u = col.pop(r)
        inv = pow(u, -1, p) if p else u  # u = +-1 is its own inverse over Z
        for j in rows[r]:
            target = cols[j]
            f = target.pop(r) * inv
            for i, v in col.items():
                if i not in target:
                    target[i] = -f * v % p if p else -f * v
                    rows[i].add(j)
                    continue
                w = target[i] - f * v
                if p:
                    w %= p
                if w:
                    target[i] = w
                else:
                    del target[i]
                    rows[i].discard(j)
            heapq.heappush(heap, (len(target), j))
    left = [col for col in cols.values() if col]
    position = {i: k for k, i in enumerate(sorted({i for col in left for i in col}))}
    left = [{position[i]: v for i, v in col.items()} for col in left]
    return len(columns) - len(cols), dense_rows(left, len(position))


def cokernel_invariants(
    columns: Sequence[Mapping[int, int]], nrows: int
) -> tuple[int, list[int]]:
    """Free rank and invariant factors (> 1) of Z^nrows / colspan(A).

    A is given by its sparse columns.  The rank of A is nrows minus the free
    rank.  A and its transpose share the Smith diagonal, so the same factors
    describe Z^ncols / rowspan(A).
    """
    units, residual = _eliminate(columns, nrows)
    sf = smith_normal_form(residual, len(residual), len(residual[0]) if residual else 0)
    torsion = [v for v in sf.diag[: sf.rank] if v > 1]
    return nrows - units - sf.rank, torsion


def mod_rank(columns: Sequence[Mapping[int, int]], nrows: int, p: int) -> int:
    """Rank over GF(p), p prime, of the matrix with these sparse columns."""
    return _eliminate(columns, nrows, p)[0]


# --- prime-field elimination -------------------------------------------------


def mod_rref(
    rows: Sequence[Sequence[int]], ncols: int, p: int
) -> tuple[int, list[int], list[list[int]]]:
    """Reduced row echelon form over GF(p): (rank, pivot columns, rows)."""
    mat = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for j in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][j], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][j]:
                f = mat[i][j]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(j)
        r += 1
        if r == len(mat):
            break
    return r, pivots, mat[:r]


def mod_nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the right nullspace over GF(p), as vectors of length ncols."""
    rank, pivots, rref = mod_rref(rows, ncols, p)
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[j] = 1
        for r, pj in enumerate(pivots):
            vec[pj] = (-rref[r][j]) % p
        basis.append(vec)
    return basis
