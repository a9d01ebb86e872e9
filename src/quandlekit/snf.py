"""Exact integer matrix routines: Smith normal form, kernels, GF(p) elimination.

Matrices are dense sequences of row sequences of Python ints, so everything is
exact and overflow-free.  The matrices that show up here are chain boundary
maps of small quandles (a few hundred rows/columns at most), so clarity wins
over asymptotics; pivots are chosen by minimal absolute value to keep entry
growth down.

Integral homology and coboundary membership need only the Smith diagonal of
each boundary map (its rank and invariant factors), which
``cokernel_invariants`` returns; the column transform is carried only when a
kernel basis is asked for, by ``kernel_complement``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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
    nrows: int
    ncols: int
    col_ops: list[list[int]] | None  # T with S @ A @ T diagonal for some unimodular S


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(
    rows: Sequence[Sequence[int]],
    nrows: int,
    ncols: int,
    *,
    want_col_ops: bool = False,
) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns the diagonal with the divisibility chain enforced, plus the
    accumulated column transform T when requested (S @ A @ T equals the
    diagonal matrix for some unimodular S, which is not kept).
    """
    d = [list(row) for row in rows]
    for row in d:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    if len(d) != nrows:
        raise ValueError("row count mismatch")
    t = _identity(ncols) if want_col_ops else None

    def row_combine(k: int, i: int, j: int) -> None:
        # Zero d[i][j] against pivot row k using a unimodular 2x2 transform.
        a, b = d[k][j], d[i][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            rk, ri = d[k], d[i]
            d[i] = [x - q * y for x, y in zip(ri, rk)]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        rk, ri = d[k], d[i]
        d[k] = [x * u + y * v for u, v in zip(rk, ri)]
        d[i] = [-bg * u + ag * v for u, v in zip(rk, ri)]

    def col_combine(k: int, j: int, i: int) -> None:
        # Zero d[i][j] against pivot column k.
        a, b = d[i][k], d[i][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for row in d:
                row[j] -= q * row[k]
            if t is not None:
                for row in t:
                    row[j] -= q * row[k]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for row in d:
            u, v = row[k], row[j]
            row[k] = x * u + y * v
            row[j] = -bg * u + ag * v
        if t is not None:
            for row in t:
                u, v = row[k], row[j]
                row[k] = x * u + y * v
                row[j] = -bg * u + ag * v

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            d[i], d[j] = d[j], d[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            if t is not None:
                for row in t:
                    row[i], row[j] = row[j], row[i]

    limit = min(nrows, ncols)
    k = 0
    while k < limit:
        # Min-abs pivot in the trailing submatrix.
        best = None
        best_abs = None
        for i in range(k, nrows):
            row = d[i]
            for j in range(k, ncols):
                v = row[j]
                if v and (best_abs is None or abs(v) < best_abs):
                    best = (i, j)
                    best_abs = abs(v)
                    if best_abs == 1:
                        break
            if best_abs == 1:
                break
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
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

    # Make the diagonal nonnegative.
    for i in range(rank):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]

    # Enforce the divisibility chain d[i] | d[i+1].
    i = 0
    while i < rank - 1:
        a, b = d[i][i], d[i + 1][i + 1]
        if b % a == 0:
            i += 1
            continue
        # Fold column i+1 into column i, then re-diagonalize the 2x2 block.
        for row in d:
            row[i] += row[i + 1]
        if t is not None:
            for row in t:
                row[i] += row[i + 1]
        row_combine(i, i + 1, i)
        col_combine(i, i + 1, i)
        row_combine(i, i + 1, i)
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
        if d[i + 1][i + 1] < 0:
            d[i + 1] = [-x for x in d[i + 1]]
        i = max(i - 1, 0)

    diag = [d[i][i] for i in range(min(nrows, ncols))]
    return SmithForm(diag=diag, rank=rank, nrows=nrows, ncols=ncols, col_ops=t)


def kernel_complement(
    rows: Sequence[Sequence[int]], nrows: int, ncols: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Integer kernel basis of A, plus columns completing it to a basis of Z^ncols.

    The kernel of an integer matrix is saturated, so the non-kernel columns of
    the Smith column transform are a genuine complement.  Both are returned as
    lists of column vectors of length ncols.
    """
    if nrows == 0:
        ident = _identity(ncols)
        return [list(col) for col in ident], []
    sf = smith_normal_form(rows, nrows, ncols, want_col_ops=True)
    t = sf.col_ops
    assert t is not None
    kernel = [[t[i][j] for i in range(ncols)] for j in range(sf.rank, ncols)]
    complement = [[t[i][j] for i in range(ncols)] for j in range(sf.rank)]
    return kernel, complement


def cokernel_invariants(
    rows: Sequence[Sequence[int]], nrows: int, ncols: int
) -> tuple[int, list[int]]:
    """Free rank and invariant factors (> 1) of Z^nrows / colspan(A).

    The rank of A is nrows minus the free rank.  A and its transpose share
    the Smith diagonal, so the same factors describe Z^ncols / rowspan(A).
    """
    if ncols == 0:
        return nrows, []
    sf = smith_normal_form(rows, nrows, ncols)
    torsion = [v for v in sf.diag[: sf.rank] if v > 1]
    return nrows - sf.rank, torsion


def transpose(rows: Sequence[Sequence[int]], nrows: int, ncols: int) -> list[list[int]]:
    return [[rows[i][j] for i in range(nrows)] for j in range(ncols)]


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


def mod_rank(rows: Sequence[Sequence[int]], ncols: int, p: int) -> int:
    return mod_rref(rows, ncols, p)[0]


def mod_nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the right nullspace over GF(p), as vectors of length ncols."""
    rank, pivots, rref = mod_rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for r, pj in enumerate(pivots):
            vec[pj] = (-rref[r][j]) % p
        basis.append(vec)
    return basis
