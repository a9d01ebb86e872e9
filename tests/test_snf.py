import itertools
from math import gcd, prod

from hypothesis import given, settings, strategies as st

from quandlekit.snf import (
    cokernel_invariants,
    kernel_complement,
    mod_nullspace,
    mod_rank,
    mod_rref,
    smith_normal_form,
    xgcd,
)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    """Leibniz determinant; the test matrices are at most 4x4."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * prod(m[i][p] for i, p in enumerate(perm))
    return total


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


def check_smith_form(a, m, n):
    """diag against the determinantal divisors; T unimodular, last columns of A T zero."""
    sf = smith_normal_form(a, m, n, want_col_ops=True)
    assert len(sf.diag) == min(m, n)
    assert all(v >= 0 for v in sf.diag)
    for k, divisor in enumerate(determinantal_divisors(a, m, n)):
        assert prod(sf.diag[: k + 1]) == divisor
    assert sf.rank == sum(1 for v in sf.diag if v)
    chain = sf.diag[: sf.rank]
    assert all(b % a2 == 0 for a2, b in zip(chain, chain[1:]))
    t = sf.col_ops
    assert abs(det(t)) == 1
    for row in matmul(a, t):
        assert not any(row[sf.rank :])


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0


def test_smith_form_known_matrix():
    sf = smith_normal_form([[2, 4], [6, 8]], 2, 2)
    assert sf.diag == [2, 4]
    assert sf.rank == 2
    sf = smith_normal_form([[1, 0], [0, 0]], 2, 2)
    assert sf.diag == [1, 0]


def test_smith_transforms_diagonalize():
    a = [[6, 4, 2], [2, 8, 4]]
    assert smith_normal_form(a, 2, 3).diag == [2, 10]
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


def test_kernel_complement():
    a = [[1, 2, 3], [2, 4, 6]]  # rank 1
    kernel, complement = kernel_complement(a, 2, 3)
    assert len(kernel) == 2 and len(complement) == 1
    for vec in kernel:
        assert all(sum(row[i] * vec[i] for i in range(3)) == 0 for row in a)
    # kernel plus complement must be a basis of Z^3
    basis = [list(col) for col in kernel + complement]
    square = [[basis[j][i] for j in range(3)] for i in range(3)]
    assert smith_normal_form(square, 3, 3).diag == [1, 1, 1]


def test_cokernel_invariants():
    # Matrices by sparse columns {row: entry}.
    free, torsion = cokernel_invariants([{0: 2}, {1: 3}], 2)
    assert free == 0 and torsion == [6]  # Z^2/(2Z x 3Z) = Z_6
    free, torsion = cokernel_invariants([{0: 2}], 2)
    assert free == 1 and torsion == [2]
    free, torsion = cokernel_invariants([], 0)
    assert free == 0 and torsion == []


def test_mod_elimination():
    a = [[1, 2, 0], [2, 4, 1]]
    assert mod_rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}], 2, 5) == 2  # a by columns
    null = mod_nullspace(a, 3, 5)
    assert len(null) == 1
    for vec in null:
        for row in a:
            assert sum(r * v for r, v in zip(row, vec)) % 5 == 0
    rank, pivots, rows = mod_rref([[2, 4], [1, 2]], 2, 3)
    assert rank == 1 and pivots == [0]


def columns_of(a, m, n):
    return [{i: a[i][j] for i in range(m) if a[i][j]} for j in range(n)]


def check_sparse_core(a, m, n, columns):
    """The sparse core against the dense SNF and the GF(p) row reduction."""
    sf = smith_normal_form(a, m, n)
    assert cokernel_invariants(columns, m) == (m - sf.rank, [v for v in sf.diag if v > 1])
    for p in (2, 3, 5):
        assert mod_rank(columns, m, p) == mod_rref(a, n, p)[0]


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


def test_sparse_core_shapes():
    check_sparse_core([], 0, 3, [{}, {}, {}])
    check_sparse_core([[], [], []], 3, 0, [])
    check_sparse_core([[2, 4], [4, 2]], 2, 2, [{0: 2, 1: 4}, {0: 4, 1: 2}])  # no unit entry
