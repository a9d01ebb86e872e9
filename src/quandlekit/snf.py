"""Exact matrix routines: a sparse integer core, a dense SNF, a sparse GF(p) RREF.

Boundary maps are stored as sparse columns ({row: coefficient} dicts) with at
most 2(n-1) entries each.  ``_eliminate`` pivots them down over Z only on
+-1 entries, so every step is unimodular and Smith(A) = I_k (+)
Smith(residual).  The pivot is an entry of the shortest live column, in the
shortest row among its unit entries (Dumas, Saunders and Villard, J. Symb.
Comput. 32, 2001).  It reports the columns it pivoted on: ``homology``
reads them as elementary reductions of the chain complex.  The dense
``smith_normal_form``, exact on Python ints, runs only on the small
residual.  It steps by division with remainder: the pivot's row and column
are reduced by quotients, and the least remainder becomes the next pivot,
so entries stay near the size of the residual's own.  ``invariant_factors``
sorts its diagonal into the divisibility chain, the rule that makes
``AbelianGroup.from_divisors`` canonical, and carries each gcd/lcm move on
the column transform when one is kept, so S A T is the chain itself.  The Z
pivots and the residual's transforms are invertible mod every prime, so the
invariant factors e_i of A give every GF(p) rank:
rank_p(A) = rank(A) - #{e_i : p | e_i}.  ``homology`` reads GF(p) ranks that
way once a map is eliminated over Z.  ``mod_kernel`` reads the fewest
generators of the x in Z_d^n orthogonal to the columns, for any modulus d,
off the same elimination: the pivots back-substitute, the residual's Smith
column transform solves the rest.  Everything else over GF(p), the other
ranks and the prime cocycle and coboundary bases, is read off ``mod_rref``,
the reduced row echelon form of a list of sparse vectors.
"""

from __future__ import annotations

import heapq
import itertools
from math import gcd
from typing import Mapping, Sequence

from ._util import Record


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


def invariant_factors(values: Sequence[int], transform: Sequence[list[int]] = ()) -> list[int]:
    """The divisibility chain of diag(values), for positive integers.

    Replacing a pair (a, b) by (gcd(a, b), lcm(a, b)) keeps Z_a + Z_b up to
    isomorphism and sorts the exponent of every prime; doing it for all
    pairs i < j sorts them along the whole list, so entry i divides entry
    i+1.  The length is kept, 1s included; a leading 1 changes nothing.

    Each move is also carried on columns i, j of ``transform``, the rows of
    a matrix T with A T = diag(values) up to unimodular row operations:
    with g = xa + yb, T_i <- T_i + T_j and T_j <- -(yb/g) T_i + (xa/g) T_j,
    a column operation of determinant 1 after which rows i, j reduce
    unimodularly to diag(g, ab/g).  So A T = diag(result) still holds.
    """
    out = list(values)
    for i in range(len(out)):
        a = out[i]
        if a == 1:
            continue
        for j in range(i + 1, len(out)):
            b = out[j]
            if b % a == 0:
                continue
            g, x, y = xgcd(a, b)
            for row in transform:
                u, v = row[i], row[j]
                row[i], row[j] = u + v, (x * a * v - y * b * u) // g
            out[j] = a // g * b
            a = g
        out[i] = a
    return out


class SmithForm(Record, frozen=False):
    diag: list[int]  # nonnegative; diag[i] divides diag[i+1]
    rank: int
    col_ops: list[list[int]] | None  # T with S @ A @ T = diag for some unimodular S


def _nearest(a: int, b: int) -> int:
    """The integer nearest a / b, b != 0: a - q b is then at most |b| / 2 in size."""
    return (2 * a + b) // (2 * b)


def smith_normal_form(
    rows: Sequence[Sequence[int]],
    ncols: int,
    *,
    want_col_ops: bool = False,
) -> SmithForm:
    """Diagonalize a dense integer matrix by unimodular row/column operations.

    Each pivot is the least nonzero entry of the trailing block.  Its column
    and then its row are reduced by nearest-integer quotients, which leaves
    remainders of at most half the pivot; the least nonzero remainder is
    moved onto the pivot, and the reduction repeats until the pivot's row
    and column are clear.  The pivot shrinks at every repeat, so this ends,
    and no step forms the Bezout combinations of two rows or columns whose
    coefficients grow with the entries.  The diagonal then goes through
    ``invariant_factors``.

    Returns the invariant factors (zeros last), plus the accumulated column
    transform T when requested: S @ A @ T = diag for some unimodular S,
    which is not kept.  Columns rank.. of T span the kernel of A.
    """
    d = [list(row) for row in rows]
    if any(len(row) != ncols for row in d):
        raise ValueError("ragged matrix")
    nrows = len(d)
    # Column operations act on the rows of d and of t alike.
    t = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if want_col_ops else []

    def swap_columns(k: int, j: int) -> None:
        if j != k:
            for row in itertools.chain(d, t):
                row[k], row[j] = row[j], row[k]

    k = 0
    while k < min(nrows, ncols):
        # The first least nonzero entry, in row order, of the trailing block:
        # rows k.. are zero left of column k.
        least = min(map(abs, filter(None, itertools.chain.from_iterable(d[k:]))), default=0)
        if not least:
            break
        i = next(i for i in range(k, nrows) if least in map(abs, d[i]))
        d[k], d[i] = d[i], d[k]
        swap_columns(k, next(j for j in range(k, ncols) if abs(d[k][j]) == least))
        while True:
            pivot_row, p = d[k], d[k][k]
            for i in range(k + 1, nrows):
                if d[i][k] and (q := _nearest(d[i][k], p)):
                    d[i] = [x - q * y for x, y in zip(d[i], pivot_row)]
            # Column j -= q_j column k, done row by row on the rows that meet column k.
            quotients = [_nearest(v, p) if v else 0 for v in pivot_row]
            quotients[k] = 0
            if any(quotients):
                for row in itertools.chain(d, t):
                    c = row[k]
                    if c:
                        row[:] = [x - c * q for x, q in zip(row, quotients)]
            remainders = [(abs(d[i][k]), i, k) for i in range(k + 1, nrows) if d[i][k]]
            remainders += [(abs(v), k, j) for j, v in enumerate(d[k]) if v and j > k]
            if not remainders:
                break
            _, i, j = min(remainders)
            d[k], d[i] = d[i], d[k]
            swap_columns(k, j)
        k += 1
    rank = k

    diag = invariant_factors([abs(d[i][i]) for i in range(rank)], t)
    diag += [0] * (min(nrows, ncols) - rank)
    return SmithForm(diag=diag, rank=rank, col_ops=t if want_col_ops else None)


def dense_rows(columns: Sequence[Mapping[int, int]], nrows: int) -> list[list[int]]:
    """The rows of the nrows x len(columns) matrix with these sparse columns."""
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _eliminate(
    columns: Sequence[Mapping[int, int]],
    nrows: int,
    pivots: list[tuple[int, int, dict[int, int]]] | None = None,
) -> tuple[set[int], list[int], list[list[int]]]:
    """Pivot away the +-1 entries of a sparse integer matrix.

    Returns the columns pivoted on, the rows the residual keeps, and the
    residual as dense rows on them, with its zero rows and columns dropped.
    Given a ``pivots`` list, appends each pivot (r, u, col) to it: the unit u
    in row r of a column as it stood when pivoted, col being its other
    entries.  Every column left then loses row r, so col has no row pivoted
    before it.  Without one, each pivoted column is freed at once, so a rank
    peaks no higher than its elimination needs.  The input columns are not
    modified.
    """
    cols = {j: {i: v for i, v in col.items() if v} for j, col in enumerate(columns)}
    rows: list[set[int]] = [set() for _ in range(nrows)]
    for j, col in cols.items():
        for i in col:
            rows[i].add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    while heap:
        length, c = heapq.heappop(heap)
        col = cols.get(c, {})
        units = [i for i, v in col.items() if v in (1, -1)] if len(col) == length else []
        if not units:
            continue  # stale, or no unit yet: every update pushes the column again
        r = min(units, key=lambda i: (len(rows[i]), i))
        del cols[c]
        for i in col:
            rows[i].discard(c)
        u = col.pop(r)
        if pivots is not None:
            pivots.append((r, u, col))
        for j in rows[r]:
            target = cols[j]
            f = target.pop(r) * u  # u = +-1 is its own inverse
            for i, v in col.items():
                if i not in target:
                    target[i] = -f * v
                    rows[i].add(j)
                    continue
                w = target[i] - f * v
                if w:
                    target[i] = w
                else:
                    del target[i]
                    rows[i].discard(j)
            heapq.heappush(heap, (len(target), j))
    left = [col for col in cols.values() if col]
    support = sorted({i for col in left for i in col})
    position = {i: k for k, i in enumerate(support)}
    left = [{position[i]: v for i, v in col.items()} for col in left]
    pivoted = set(range(len(columns))).difference(cols)
    return pivoted, support, dense_rows(left, len(support))


def cokernel_invariants(
    columns: Sequence[Mapping[int, int]], nrows: int, pivoted: set[int] | None = None
) -> tuple[int, list[int]]:
    """Free rank and invariant factors (> 1) of Z^nrows / colspan(A).

    A is given by its sparse columns.  The rank of A is nrows minus the free
    rank.  A and its transpose share the Smith diagonal, so the same factors
    describe Z^ncols / rowspan(A).  Given a ``pivoted`` set, adds to it the
    columns that ``_eliminate`` pivoted on.
    """
    unit_columns, _, residual = _eliminate(columns, nrows)
    if pivoted is not None:
        pivoted |= unit_columns
    sf = smith_normal_form(residual, len(residual[0]) if residual else 0)
    torsion = [v for v in sf.diag[: sf.rank] if v > 1]
    return nrows - len(unit_columns) - sf.rank, torsion


def mod_kernel(vectors: Sequence[Mapping[int, int]], ncols: int, d: int) -> list[list[int]]:
    """Fewest generators of the x in Z_d^ncols orthogonal to the vectors, d >= 2.

    The vectors are the columns pivoted by ``_eliminate``; its column
    operations are unimodular, so they keep the x with x.c = 0 mod d for
    every column c.  A pivot (r, u, col) fixes x_r = -u (x.col), by
    coordinates not pivoted before it.  On the residual's rows y the
    condition is M^T y = 0 mod d, and with S M^T T = diag(e_i) from
    ``smith_normal_form``, y = T z with e_i z_i = 0 mod d: z_i is a multiple
    of d/gcd(e_i, d) up to the rank and free past it.  So the generators
    are a unit vector per coordinate neither pivoted nor in the residual,
    T_i d/gcd(e_i, d) for each gcd(e_i, d) > 1 and T_i past the rank, each
    back-substituted through the pivots in reverse order.  The gcd(e_i, d)
    divide one another, so no smaller list generates the kernel: there are
    ncols - rank + #{e_i : gcd(e_i, d) > 1}, none zero.
    """
    pivots: list[tuple[int, int, dict[int, int]]] = []
    _, support, residual = _eliminate(vectors, ncols, pivots)
    transposed = list(zip(*residual))
    sf = smith_normal_form(transposed, len(support), want_col_ops=True)
    touched = set(support).union(r for r, _, _ in pivots)
    out = [[int(i == j) for i in range(ncols)] for j in range(ncols) if j not in touched]
    for k in range(len(support)):
        scale = d // gcd(sf.diag[k] if k < sf.rank else 0, d)
        if scale < d:
            x = [0] * ncols
            for i, row in zip(support, sf.col_ops):
                x[i] = row[k] * scale % d
            out.append(x)
    for x in out:
        for r, u, col in reversed(pivots):
            x[r] = -u * sum(v * x[i] for i, v in col.items()) % d
    return out


def mod_rref(vectors: Sequence[Mapping[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Reduced row echelon form over GF(p), p prime, of the span of sparse vectors.

    Returns {pivot: row} in pivot order; each row is a {coordinate: value}
    dict, 1 at its pivot (its leftmost coordinate) and absent at the other
    pivots.  The form stays reduced as the vectors come in: each is cleared
    at the pivots it meets, and a nonzero remainder is scaled to 1 at its
    leftmost coordinate, cleared from the other rows and added.  The RREF of
    a span is unique, so the order of the vectors does not matter.
    """
    rows: dict[int, dict[int, int]] = {}

    def subtract(row: dict[int, int], f: int, other: Mapping[int, int]) -> None:
        for i, v in other.items():  # row -= f * other; f, v are units, so new w != 0
            w = (row.get(i, 0) - f * v) % p
            if w:
                row[i] = w
            else:
                del row[i]

    for vec in vectors:
        row = {i: w for i, v in vec.items() if (w := v % p)}
        for c in [c for c in row if c in rows]:
            subtract(row, row[c], rows[c])
        if row:
            c = min(row)
            inv = pow(row[c], -1, p)
            row = {i: v * inv % p for i, v in row.items()}
            for other in rows.values():
                if c in other:
                    subtract(other, other[c], row)
            rows[c] = row
    return dict(sorted(rows.items()))


def mod_rank(vectors: Sequence[Mapping[int, int]], p: int) -> int:
    """Rank over GF(p), p prime, of sparse vectors: the rows of their RREF."""
    return len(mod_rref(vectors, p))


def mod_nullspace(vectors: Sequence[Mapping[int, int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the x in GF(p)^ncols orthogonal to the vectors, read off their RREF.

    One x per free (non-pivot) coordinate j, in order: 1 at j, -row[j] at each pivot.
    """
    rref = mod_rref(vectors, p)
    free = {j: [0] * j + [1] + [0] * (ncols - j - 1) for j in range(ncols) if j not in rref}
    for c, row in rref.items():
        for j, v in row.items():
            if j != c:
                free[j][c] = -v % p
    return list(free.values())
