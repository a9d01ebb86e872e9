"""Exact matrix routines: one sparse integer elimination, a sparse GF(p) RREF.

Boundary maps are stored as sparse columns ({row: coefficient} dicts) with at
most 2(n-1) entries each.  ``_eliminate`` diagonalizes them over Z by
unimodular steps in two phases of one routine.  While a +-1 entry is left it
pivots on one, in the shortest live column and the shortest row among its
units, ties to the least index (Dumas, Saunders and Villard, J. Symb.
Comput. 32, 2001), and reports those columns: ``homology`` reads them as
elementary reductions of the chain complex, whose rows the next map's
elimination leaves out (``drop``).  The columns wait in a heap, each under
one key that bounds its length from below, so an update pushes a column
only when it falls below its key, not at every update.  Past
the units it keeps going on the residual's sparse rows, pivoting on an
entry of least absolute value and stepping by division with remainder: the
pivot's column and then its row are reduced by nearest-integer quotients,
and the least remainder becomes the next pivot, so entries stay near the
size of the residual's own.  Memory stays linear in the nonzero entries.
``invariant_factors`` sorts the diagonal into the divisibility chain, the
rule that makes ``AbelianGroup.from_divisors`` canonical, and carries each
gcd/lcm move on a transform when one is given.  Every step is invertible mod
every prime, so the invariant factors e_i of A give every GF(p) rank:
rank_p(A) = rank(A) - #{e_i : p | e_i}.  ``homology`` reads GF(p) ranks that
way once a map is eliminated over Z.
``mod_kernel`` reads the fewest generators of the x in Z_d^n orthogonal to
the columns, for any modulus d, off the same elimination: the chain of the
diagonal mod d solves it in the final coordinates, and the logged pivots and
row operations map the solution back.  Everything else over GF(p), the other
ranks and the prime cocycle and coboundary bases, is read off ``mod_rref``,
the reduced row echelon form of a list of sparse vectors.
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import AbstractSet, Mapping, Sequence


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


def _nearest(a: int, b: int) -> int:
    """The integer nearest a / b, b != 0: a - q b is then at most |b| / 2 in size."""
    return (2 * a + b) // (2 * b)


def _eliminate(
    columns: Sequence[Mapping[int, int]],
    nrows: int,
    pivots: list[tuple[int, int, dict[int, int]]] | None = None,
    drop: AbstractSet[int] = frozenset(),
) -> tuple[set[int], dict[int, int]]:
    """Diagonalize a sparse integer matrix by unimodular row and column operations.

    Returns the columns pivoted on while +-1 entries last, and the diagonal
    as {row: |pivot|}: its length is the rank, and ``invariant_factors`` of
    its values gives the invariant factors.  The rows in ``drop`` are left
    out as the columns are copied.  Every choice below compares rows only by
    index order, so this eliminates the input without them, renumbered.

    While a +-1 entry is left, the pivot is one in the shortest live column
    with one, in the shortest row among its units, each tie to the least
    index; its column's other entries are dropped and its row is cleared
    from the other columns.  ``queued`` holds each column's key: at most
    its length while it is in the heap, and above every length once it is
    out.  An update pushes (length, j) only when j has fallen below its key,
    so also when j is out; a pop whose key is no longer j's is skipped, and
    a column popped longer than its key is queued again under its length.
    Otherwise it leaves the queue, and a column with no unit waits for an
    update to queue it again.  Every key bounds its column's length from
    below, so the first pop at a column's own length is the least (length,
    index) of all columns with a unit.  The residual is
    then kept by rows, {column: coeff} dicts: a boundary map's residual is
    far wider than tall, so a reduction updates the few rows that meet the
    pivot's column, each in one pass, found by scanning the rows.  Its pivot
    is an entry of least absolute value, in the shortest row with one and
    then the column shortest when the units ran out (a Markowitz choice on
    lengths not kept up to date).  Row operations with nearest-integer
    quotients reduce the pivot's column to remainders of at most half the
    pivot, and the least remainder becomes the pivot, until the column is
    clear; column operations then reduce its row alone the same way, and a
    remainder there becomes the pivot.  The pivot shrinks at every move, so
    this ends, and no step forms Bezout combinations, whose coefficients
    grow with the entries.

    Given a ``pivots`` list, appends to it in order the steps that recover
    an x with x.c = 0 for every input column c from its coordinates off the
    diagonal's rows, replayed in reverse: (r, u, col) sets x_r = -u (x.col).
    A unit pivot is the unit u in row r of a column as it stood, col its
    other entries (every column left then loses row r, so col has no row
    pivoted before it); the row operations row_i -= o_i row_r of one
    reduction are (r, 1, {r: -1, i: o_i, ...}).  Column operations keep the
    x.  Without the list, each pivoted column is freed at once, so a rank
    peaks no higher than its elimination needs.  The input is not modified.
    """
    cols = {j: {i: v for i, v in col.items() if v and i not in drop}
            for j, col in enumerate(columns)}
    rows: list[set[int]] = [set() for _ in range(nrows)]
    for j, col in cols.items():
        for i in col:
            rows[i].add(j)
    diagonal: dict[int, int] = {}
    out = nrows + 1  # the key of a column out of the queue, above every length
    queued = [len(col) for col in cols.values()]  # each column's key
    heap = list(zip(queued, cols))
    heapq.heapify(heap)
    while heap:
        length, c = heapq.heappop(heap)
        if queued[c] != length:
            continue  # stale: c was pivoted, left the queue or is keyed anew
        col = cols[c]
        if len(col) > length:  # grew since it was queued
            queued[c] = len(col)
            heapq.heappush(heap, (len(col), c))
            continue
        queued[c] = out
        units = [i for i, v in col.items() if v in (1, -1)]
        if not units:
            continue  # its next update queues it again
        r = min(units, key=lambda i: (len(rows[i]), i))
        del cols[c]
        for i in col:
            rows[i].discard(c)
        u = col.pop(r)
        diagonal[r] = 1
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
            k = len(target)
            if k < queued[j]:
                queued[j] = k
                heapq.heappush(heap, (k, j))
        rows[r].clear()
    pivoted = set(range(len(columns))).difference(cols)

    lines = {i: {j: cols[j][i] for j in line} for i, line in enumerate(rows) if line}
    size = {j: len(col) for j, col in cols.items()}
    del cols, rows
    key: dict[int, tuple[int, int, int]] = {}  # each live row's place in the heap

    def rekey(i: int) -> None:
        line = lines[i]
        if line:
            key[i] = k = (min(map(abs, line.values())), len(line), i)
            heapq.heappush(heap, k)
        else:
            del lines[i], key[i]

    for i in lines:
        rekey(i)
    while heap:
        k = heapq.heappop(heap)
        r = k[2]
        if key.get(r) != k:
            continue  # stale
        c = min((j for j, v in lines[r].items() if abs(v) == k[0]),
                key=lambda j: (size[j], j))
        touched: set[int] = set()
        while True:
            prow, p = lines[r], lines[r][c]
            items = list(prow.items())
            ops, least, at = {}, 0, None
            for i, line in lines.items():
                if i == r or c not in line:
                    continue
                o = _nearest(line[c], p)
                if o:
                    # Row i -= o row r; a row r entry missing from row i
                    # leaves a nonzero there.
                    ops[i] = o
                    get = line.get
                    new = {j: w for j, v in items if (w := get(j, 0) - o * v)}
                    if len(new) < len(items):
                        for j in prow.keys() - new.keys():
                            del line[j]
                    line.update(new)
                    touched.add(i)
                y = line.get(c)
                if y and (not least or abs(y) < least):
                    least, at = abs(y), (i, c)
            if ops and pivots is not None:
                pivots.append((r, 1, {r: -1, **ops}))
            if at is None:
                # Column c is p in row r alone, so column j -= q column c
                # leaves a remainder in row r and changes nothing else.
                for j, v in items:
                    if j != c:
                        w = v - _nearest(v, p) * p
                        if w:
                            prow[j] = w
                            if not least or abs(w) < least:
                                least, at = abs(w), (r, j)
                        else:
                            del prow[j]
                touched.add(r)
                if at is None:
                    break
            r, c = at
        diagonal[r] = abs(p)
        del lines[r], key[r]
        touched.discard(r)
        for i in touched:
            if i in lines:
                rekey(i)
    return pivoted, diagonal


def cokernel_invariants(
    columns: Sequence[Mapping[int, int]], nrows: int, pivoted: set[int] | None = None,
    drop: AbstractSet[int] = frozenset(),
) -> tuple[int, list[int]]:
    """Free rank and invariant factors (> 1) of Z^nrows / colspan(A).

    A is given by its sparse columns.  The rank of A is nrows minus the free
    rank.  A and its transpose share the Smith diagonal, so the same factors
    describe Z^ncols / rowspan(A).  Given a ``pivoted`` set, adds to it the
    columns that ``_eliminate`` pivoted on while +-1 entries last.  Given
    ``drop``, a set of row indices below nrows, A is the matrix without them.
    """
    unit_columns, diagonal = _eliminate(columns, nrows, drop=drop)
    if pivoted is not None:
        pivoted |= unit_columns
    torsion = invariant_factors([e for e in diagonal.values() if e > 1])
    return nrows - len(drop) - len(diagonal), [e for e in torsion if e > 1]


def mod_kernel(vectors: Sequence[Mapping[int, int]], ncols: int, d: int) -> list[list[int]]:
    """Fewest generators of the x in Z_d^ncols orthogonal to the vectors, d >= 2.

    The vectors are the columns eliminated by ``_eliminate``.  Its column
    operations keep the x with x.c = 0 mod d for every column c, and its
    row operations change coordinates, which its ``pivots`` log maps back.
    In the final coordinates y the condition is e_r y_r = 0 mod d on each
    row r of the diagonal, pivot e_r, and nothing off it.  The
    g_r = gcd(e_r, d) > 1 go through ``invariant_factors`` with a transform
    T, so y = T z on those rows with f_k z_k = 0 mod d for the chain f_k:
    z_k is a multiple of d/f_k.  So the generators are a unit vector per
    coordinate off the diagonal and T_k d/f_k for each f_k > 1, each mapped
    back through the log in reverse.  The f_k divide one another, so no
    smaller list generates the kernel: there are
    ncols - rank + #{f_k > 1}, none zero.
    """
    pivots: list[tuple[int, int, dict[int, int]]] = []
    _, diagonal = _eliminate(vectors, ncols, pivots)
    out = [[int(i == j) for i in range(ncols)] for j in range(ncols) if j not in diagonal]
    rows = [r for r, e in diagonal.items() if gcd(e, d) > 1]
    transform = [[int(a == b) for b in range(len(rows))] for a in range(len(rows))]
    chain = invariant_factors([gcd(diagonal[r], d) for r in rows], transform)
    for k, f in enumerate(chain):
        if f > 1:
            x = [0] * ncols
            for r, row in zip(rows, transform):
                x[r] = row[k] * (d // f) % d
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
