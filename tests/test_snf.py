import hashlib
import itertools
import time
from collections import namedtuple
from math import gcd, prod

from hypothesis import given, settings, strategies as st

from conftest import span_mod
from quandlekit import make_dihedral
from quandlekit.homology import _boundary_invariants
from quandlekit.snf import (
    _eliminate,
    cokernel_invariants,
    invariant_factors,
    mod_kernel,
    mod_nullspace,
    mod_rank,
    mod_rref,
    xgcd,
)

SmithForm = namedtuple("SmithForm", "diag rank col_ops")


def _nearest(a, b):
    return (2 * a + b) // (2 * b)


def smith_normal_form(rows, ncols, *, want_col_ops=False):
    """Reference Smith form of a dense matrix, with its column transform when asked.

    Each pivot is the least nonzero entry of the trailing block.  Its column
    and then its row are reduced by nearest-integer quotients, the least
    remainder is moved onto the pivot, and this repeats until the pivot's
    row and column are clear; the diagonal then goes through
    ``invariant_factors``.  Returns the invariant factors (zeros last), the
    rank, and T with S A T = diag for some unimodular S when asked: columns
    rank.. of T span the kernel of A.
    """
    d = [list(row) for row in rows]
    if any(len(row) != ncols for row in d):
        raise ValueError("ragged matrix")
    nrows = len(d)
    # Column operations act on the rows of d and of t alike.
    t = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if want_col_ops else []

    def swap_columns(k, j):
        if j != k:
            for row in itertools.chain(d, t):
                row[k], row[j] = row[j], row[k]

    k = 0
    while k < min(nrows, ncols):
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
    diag = invariant_factors([abs(d[i][i]) for i in range(k)], t)
    diag += [0] * (min(nrows, ncols) - k)
    return SmithForm(diag, k, t if want_col_ops else None)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def determinantal_divisors(a, m, n):
    """D_k = gcd of all k x k minors of a, for k = 1 .. min(m, n)."""
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, det([[a[i][j] for j in cols] for i in rows]))
        out.append(g)
    return out


def check_smith_form(a, m, n, diag=None):
    """diag against the determinantal divisors; T unimodular, column i of A T has gcd diag[i].

    S A T = diag(sf.diag) for a unimodular S exactly when column i of A T is
    diag[i] times a primitive vector, past min(m, n) zero.  A known ``diag``
    stands in for the divisors, which take too long past 4 x 4.
    """
    sf = smith_normal_form(a, n, want_col_ops=True)
    assert len(sf.diag) == min(m, n)
    assert all(v >= 0 for v in sf.diag)
    if diag is None:
        for k, divisor in enumerate(determinantal_divisors(a, m, n)):
            assert prod(sf.diag[: k + 1]) == divisor
    else:
        assert sf.diag == diag
    assert sf.rank == sum(1 for v in sf.diag if v)
    chain = sf.diag[: sf.rank]
    assert all(b % a2 == 0 for a2, b in zip(chain, chain[1:]))
    t = sf.col_ops
    assert abs(det(t)) == 1
    columns = list(zip(*matmul(a, t)))
    for i, col in enumerate(columns):
        assert gcd(*col) == (sf.diag[i] if i < len(sf.diag) else 0)


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0


def test_smith_form_known_matrix():
    sf = smith_normal_form([[2, 4], [6, 8]], 2)
    assert sf.diag == [2, 4]
    assert sf.rank == 2
    sf = smith_normal_form([[1, 0], [0, 0]], 2)
    assert sf.diag == [1, 0]


def test_smith_transforms_diagonalize():
    a = [[6, 4, 2], [2, 8, 4]]
    assert smith_normal_form(a, 3).diag == [2, 10]
    check_smith_form(a, 2, 3)
    check_smith_form(((2, 4), (6, 8)), 2, 2)  # tuple rows are accepted


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_smith_form_random(m, n, data):
    a = [
        [data.draw(st.integers(-6, 6)) for _ in range(n)]
        for _ in range(m)
    ]
    check_smith_form(a, m, n)


def unimodular(draw, size):
    """A product of random elementary operations on the identity of this size."""
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2 * size):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if i != j:
            f = draw(st.integers(-40, 40))
            u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    return u


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_remainder_steps_on_large_entries(data):
    # A = U diag(e) V with U, V unimodular has invariant factors e, whatever
    # the size of its entries; the remainder steps must find them, with a
    # column transform that still diagonalizes A, and mod_kernel, which
    # reads that transform, must still give the fewest generators.
    m = data.draw(st.integers(1, 6), label="rows")
    n = data.draw(st.integers(1, 7), label="cols")
    rank = data.draw(st.integers(0, min(m, n)), label="rank")
    e, chain = [], 1
    for _ in range(rank):
        chain *= data.draw(st.sampled_from([1, 1, 2, 3, 6, 12, 49]))
        e.append(chain)
    diag = e + [0] * (min(m, n) - rank)
    middle = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]
    a = matmul(matmul(unimodular(data.draw, m), middle), unimodular(data.draw, n))
    check_smith_form(a, m, n, diag)
    columns = columns_of(a, m, n)
    assert cokernel_invariants(columns, m) == (m - rank, [v for v in e if v > 1])
    for d in (4, 6, 12):
        gens = mod_kernel(columns, m, d)
        for x in gens:
            assert all(sum(v * x[i] for i, v in col.items()) % d == 0 for col in columns)
        gcds = [gcd(v, d) for v in e]
        assert len(gens) == m - rank + sum(1 for g in gcds if g > 1)
        free, factors = cokernel_invariants([dict(enumerate(x)) for x in gens], m)
        assert d ** (m - free) // prod(gcd(f, d) for f in factors) == d ** (m - rank) * prod(gcds)


def test_smith_recombines_diagonal_entries():
    assert invariant_factors([]) == []
    assert invariant_factors([1, 4, 6, 10]) == [1, 2, 2, 60]
    assert smith_normal_form([[2, 0], [0, 3]], 2).diag == [1, 6]
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]], 3).diag == [2, 2, 60]
    # The kernel columns of the transform still annihilate A.
    check_smith_form([[2, 0, 2], [0, 3, 3]], 2, 3)
    check_smith_form([[4, 0, 0, 4], [0, 6, 0, 6], [0, 0, 10, 10]], 3, 4)


def check_mod_kernel(a, m, n, d):
    """mod_kernel of the columns of a against every x in Z_d^m, and its size against SNF."""
    gens = mod_kernel(columns_of(a, m, n), m, d)
    kernel = {
        x for x in itertools.product(range(d), repeat=m)
        if all(sum(a[i][j] * x[i] for i in range(m)) % d == 0 for j in range(n))
    }
    assert all(len(x) == m and any(x) and all(0 <= v < d for v in x) for x in gens)
    assert span_mod(gens, m, d) == kernel
    sf = smith_normal_form(a, n)
    assert len(gens) == m - sf.rank + sum(1 for e in sf.diag[: sf.rank] if gcd(e, d) > 1)


def test_mod_kernel():
    a = [[1, 2], [2, 4], [3, 6]]  # rank 1: the kernel is x_0 + 2x_1 + 3x_2 = 0 mod d
    assert mod_kernel(columns_of(a, 3, 2), 3, 6) == [[4, 1, 0], [3, 0, 1]]
    check_mod_kernel(a, 3, 2, 6)
    # diag(2, 3) has chain (1, 6): one Z_6 generator, not a Z_2 and a Z_3 one.
    assert mod_kernel([{0: 2}, {1: 3}], 2, 6) == [[3, 4]]
    check_mod_kernel([[2, 0], [0, 3]], 2, 2, 6)
    check_mod_kernel([[4, 0], [0, 6]], 2, 2, 4)
    assert mod_kernel([], 2, 4) == [[1, 0], [0, 1]]  # nothing constrains x
    assert mod_kernel([{0: 1}], 1, 4) == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mod_kernel_matches_brute_force(data):
    m = data.draw(st.integers(0, 4), label="rows")
    n = data.draw(st.integers(0, 4), label="cols")
    d = data.draw(st.sampled_from([2, 4, 6, 8, 9, 12] if m <= 3 else [2, 4, 6]), label="d")
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    a = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    if data.draw(st.booleans(), label="no units"):
        a = [[2 * v if abs(v) == 1 else v for v in row] for row in a]
    check_mod_kernel(a, m, n, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_remainder_phase_on_wide_unit_free_matrices(data):
    # No +-1 entry, so every pivot is one of least absolute value, reduced by
    # remainders in both directions; wide, as a boundary map's residual is.
    m = data.draw(st.integers(1, 6), label="rows")
    n = data.draw(st.integers(m, 25), label="cols")
    entry = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, -6, 9, 10, -15])
    a = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    sf = smith_normal_form(a, n)
    columns = columns_of(a, m, n)
    assert cokernel_invariants(columns, m) == (m - sf.rank, [v for v in sf.diag if v > 1])
    for d in (4, 6):
        gens = mod_kernel(columns, m, d)
        assert all(sum(v * x[i] for i, v in col.items()) % d == 0 for x in gens for col in columns)
        assert len(gens) == m - sf.rank + sum(1 for e in sf.diag[: sf.rank] if gcd(e, d) > 1)


def test_unit_free_diagonal_needs_no_dense_rescan():
    # A permuted diagonal of 2s.  Each pivot still scans the live rows for
    # its column, one membership test per row, so the whole is quadratic in
    # the rows; what is gone is the dense Smith form's rescan of the
    # trailing block entry by entry at every pivot (0.3 s or more).
    columns = [{7 * j % 400: 2} for j in range(400)]
    start = time.process_time()
    assert cokernel_invariants(columns, 400) == (0, [2] * 400)
    assert time.process_time() - start < 0.1


def test_cokernel_invariants():
    # Matrices by sparse columns {row: entry}.
    free, torsion = cokernel_invariants([{0: 2}, {1: 3}], 2)
    assert free == 0 and torsion == [6]  # Z^2/(2Z x 3Z) = Z_6
    free, torsion = cokernel_invariants([{0: 2}], 2)
    assert free == 1 and torsion == [2]
    free, torsion = cokernel_invariants([], 0)
    assert free == 0 and torsion == []


def dense_mod_rref(rows, ncols, p):
    """Reference RREF over GF(p) by dense Gauss-Jordan: (rank, pivot columns, rows)."""
    mat = [[v % p for v in row] for row in rows]
    pivots = []
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


def dense_mod_nullspace(rows, ncols, p):
    """Reference right nullspace over GF(p): one vector per free column, in order."""
    rank, pivots, rref = dense_mod_rref(rows, ncols, p)
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[j] = 1
        for r, pj in enumerate(pivots):
            vec[pj] = (-rref[r][j]) % p
        basis.append(vec)
    return basis


def test_mod_elimination():
    a = [[1, 2, 0], [2, 4, 1]]
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}]  # a by rows
    assert mod_rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}], 5) == 2  # a by columns
    assert mod_rank(rows, 5) == 2
    rref = mod_rref(rows, 5)
    assert rref == {0: {0: 1, 1: 2}, 2: {2: 1}}
    null = mod_nullspace(rows, 3, 5)
    assert null == [[3, 1, 0]]
    for vec in null:
        for row in a:
            assert sum(r * v for r, v in zip(row, vec)) % 5 == 0
    assert mod_rref([{0: 2, 1: 4}, {0: 1, 1: 2}], 3) == {0: {0: 1, 1: 2}}
    assert mod_rref([{0: 3, 1: 6}, {}], 3) == {}  # zero mod p
    assert mod_rref([], 2) == {}
    assert rows == [{0: 1, 1: 2}, {0: 2, 1: 4, 2: 1}]  # the input is left alone


def columns_of(a, m, n):
    return [{i: a[i][j] for i in range(m) if a[i][j]} for j in range(n)]


def check_mod_rref(a, n, p):
    """The sparse GF(p) RREF of the rows of a against the dense reference."""
    rank, pivots, rows = dense_mod_rref(a, n, p)
    vectors = [{j: v for j, v in enumerate(row) if v} for row in a]
    rref = mod_rref(vectors, p)
    assert len(rref) == rank
    assert list(rref) == pivots
    assert [[row.get(j, 0) for j in range(n)] for row in rref.values()] == rows
    assert all(min(row) == c and row[c] == 1 for c, row in rref.items())
    assert mod_nullspace(vectors, n, p) == dense_mod_nullspace(a, n, p)


def check_sparse_core(a, m, n, columns):
    """The sparse cores against the dense SNF and the dense GF(p) row reduction."""
    sf = smith_normal_form(a, n)
    assert cokernel_invariants(columns, m) == (m - sf.rank, [v for v in sf.diag if v > 1])
    for p in (2, 3, 5, 7):
        # The columns are the rows of the transpose, of the same rank.
        assert mod_rank(columns, p) == dense_mod_rref(a, n, p)[0]
        check_mod_rref(a, n, p)
        check_mod_rref([[a[i][j] for i in range(m)] for j in range(n)], m, p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_core_matches_dense(data):
    m = data.draw(st.integers(0, 7), label="rows")
    n = data.draw(st.integers(0, 7), label="cols")
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    a = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    if data.draw(st.booleans(), label="no units"):
        a = [[2 * v if abs(v) == 1 else v for v in row] for row in a]
    for i in data.draw(st.sets(st.integers(0, max(m - 1, 0))), label="zero rows"):
        if i < m:
            a[i] = [0] * n
    for j in data.draw(st.sets(st.integers(0, max(n - 1, 0))), label="zero cols"):
        for row in a:
            if j < n:
                row[j] = 0
    columns = columns_of(a, m, n)
    check_sparse_core(a, m, n, columns)
    # One more row, appended to the columns as coboundary membership does.
    extra = [data.draw(entry) for _ in range(n)]
    appended = [{**col, m: v} if v else col for col, v in zip(columns, extra)]
    check_sparse_core(a + [extra], m + 1, n, appended)
    assert columns == columns_of(a, m, n)  # the input is left alone


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integral_invariants_give_every_prime_rank(data):
    # A = U diag(e_i) V with U, V unimodular, invertible mod every p: so
    # rank_p(A) = rank(A) - #{e_i : p | e_i}, against the GF(p) elimination.
    m = data.draw(st.integers(0, 8), label="rows")
    n = data.draw(st.integers(0, 8), label="cols")
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    columns = columns_of([[data.draw(entry) for _ in range(n)] for _ in range(m)], m, n)
    free, torsion = cokernel_invariants(columns, m)
    for p in (2, 3, 5, 7):
        assert m - free - sum(1 for e in torsion if e % p == 0) == mod_rank(columns, p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dropped_rows_match_the_matrix_without_them(data):
    # Oracle: the same matrix with the rows of S deleted and the rest
    # renumbered in order, as a column remap.  Same free rank, torsion and
    # unit-pivot columns.
    m = data.draw(st.integers(0, 9), label="rows")
    n = data.draw(st.integers(0, 9), label="cols")
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 1, 2, -2, 3, 6])
    columns = columns_of([[data.draw(entry) for _ in range(n)] for _ in range(m)], m, n)
    drop = frozenset(i for i in data.draw(st.sets(st.integers(0, 8)), label="S") if i < m)
    kept = [i for i in range(m) if i not in drop]
    position = dict(zip(kept, range(len(kept))))
    renumbered = [{position[i]: v for i, v in col.items() if i in position} for col in columns]
    pivoted, expected_pivoted = set(), set()
    got = cokernel_invariants(columns, m, pivoted, drop)
    assert got == cokernel_invariants(renumbered, len(kept), expected_pivoted)
    assert pivoted == expected_pivoted


def test_sparse_core_shapes():
    check_sparse_core([], 0, 3, [{}, {}, {}])
    check_sparse_core([[], [], []], 3, 0, [])
    check_sparse_core([[2, 4], [4, 2]], 2, 2, [{0: 2, 1: 4}, {0: 4, 1: 2}])  # no unit entry


def reference_unit_pivots(columns, drop=frozenset(), events=None):
    """The unit phase of ``_eliminate`` by rescanning every live column at each step.

    The pivot is a +-1 entry of the shortest live column with one, ties to
    the least index, in the row of fewest live entries among its units,
    ties to the least index; it is logged as (r, u, col) and cleared from
    the other columns as ``_eliminate`` does.  Returns the log and the
    columns pivoted on.  Given ``events``, adds "grew" when an update
    lengthens a column and "first unit" when it gives a +-1 to a column
    that had none at the start.
    """
    cols = {j: {i: v for i, v in col.items() if v and i not in drop}
            for j, col in enumerate(columns)}

    def has_unit(col):
        return any(v in (1, -1) for v in col.values())

    unitless = {j for j, col in cols.items() if not has_unit(col)}
    log = []
    while live := [(len(col), j) for j, col in cols.items() if has_unit(col)]:
        c = min(live)[1]
        col = cols[c]
        units = [i for i, v in col.items() if v in (1, -1)]
        r = min(units, key=lambda i: (sum(i in other for other in cols.values()), i))
        del cols[c]
        u = col.pop(r)
        log.append((r, u, col))
        for j, target in cols.items():
            if r not in target:
                continue
            before = len(target)
            f = target.pop(r) * u
            for i, v in col.items():
                if w := target.get(i, 0) - f * v:
                    target[i] = w
                else:
                    del target[i]
            if events is not None:
                if len(target) > before:
                    events.add("grew")
                if j in unitless and has_unit(target):
                    events.add("first unit")
                    unitless.discard(j)
    return log, set(range(len(columns))).difference(cols)


def check_unit_pivots(columns, nrows, drop=frozenset(), events=None):
    """``_eliminate``'s pivot log and unit columns against the rescanning reference."""
    log, expected = reference_unit_pivots(columns, drop, events)
    pivots = []
    pivoted, _ = _eliminate(columns, nrows, pivots, drop)
    assert pivoted == expected
    assert pivots[:len(log)] == log
    # The rest of the log is the remainder phase's row operations, each {r: -1, ...}.
    assert all(col.get(r) == -1 for r, _, col in pivots[len(log):])


def test_unit_pivots_follow_fill_and_new_units():
    # Column 0 pivots first, in row 1, and lengthens column 2 from 4 to 5:
    # so column 3 pivots next, though column 2 was queued at 4 before it.
    # Column 1 has no unit until the third pivot, in row 3, gives it one.
    columns = [
        {1: -1, 2: 1, 3: -1},
        {0: 2, 3: 2, 5: 3},
        {0: -1, 1: 1, 4: 2, 5: 1},
        {0: 3, 2: 3, 4: 1, 5: 1},
    ]
    events = set()
    check_unit_pivots(columns, 6, events=events)
    assert events == {"grew", "first unit"}
    assert [r for r, _, _ in reference_unit_pivots(columns)[0]] == [1, 4, 3, 5]
    check_unit_pivots(columns, 6, frozenset({1}))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_pivot_sequence_matches_rescanning_reference(data):
    # Sparse matrices rich in +-1 with rows dropped: fill lengthens queued
    # columns and updates turn 2s and 3s into units.
    m = data.draw(st.integers(0, 12), label="rows")
    n = data.draw(st.integers(0, 12), label="cols")
    entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3])
    columns = columns_of([[data.draw(entry) for _ in range(n)] for _ in range(m)], m, n)
    drop = frozenset(i for i in data.draw(st.sets(st.integers(0, 11)), label="S") if i < m)
    check_unit_pivots(columns, m, drop)


def test_r3_sweep_pivots_are_pinned():
    # The columns pivoted on in R3's ascending Q sweep d_2 ... d_8, each map
    # reduced by the pivots of the one below: they decide every later map's
    # rows, so a change of pivot order shows here first.
    X = make_dihedral(3)
    _boundary_invariants.cache_clear()
    sweep = [sorted(_boundary_invariants(X, n, "Q")[2]) for n in range(2, 9)]
    _boundary_invariants.cache_clear()
    digest = hashlib.sha256(repr(sweep).encode()).hexdigest()[:16]
    assert [len(p) for p in sweep] == [2, 4, 7, 15, 31, 62, 125]
    assert digest == "e5437390bd291ecd"
