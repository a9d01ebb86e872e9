import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    AbelianGroup,
    BudgetError,
    Cochain,
    DomainError,
    enumerate_colorings,
    lift_coloring,
    NonCocycleError,
    ParseError,
    boundary_matrix,
    chain_basis,
    coboundary,
    cohomology,
    homology,
    homology_mod,
    homology_with_coefficients,
    is_cocycle,
    make_alexander,
    make_dihedral,
    make_trivial,
    parse_cochain,
    state_sum_2,
    state_sum_shadow,
    structure_report,
    uct_mod_dimension,
)
from quandlekit.homology import format_cochain
from quandlekit.specs import read_data_file, resolve_rack

from conftest import THETA_VALUES


def hom_quandles():
    return {
        "R3": make_dihedral(3),
        "R4": make_dihedral(4),
        "R5": make_dihedral(5),
        "trivial:2": make_trivial(2),
        "trivial:3": make_trivial(3),
        "alexander-R4": make_alexander(2, [1, 0, 1], [0, 1]),
    }


# --- chain bases and boundaries ----------------------------------------------------


def test_chain_basis_partition(r3):
    full = chain_basis(r3, 3, "R")
    deg = chain_basis(r3, 3, "D")
    non = chain_basis(r3, 3, "Q")
    assert len(full) == 27
    assert len(deg) == 15
    assert len(non) == 12
    assert set(deg.tuples) | set(non.tuples) == set(full.tuples)
    assert chain_basis(r3, 1, "D").tuples == ()
    assert chain_basis(r3, 0, "R").tuples == ()


def test_trivial_quandle_boundaries_vanish():
    T = make_trivial(3)
    for n in (2, 3, 4):
        for theory in ("R", "D", "Q"):
            mat = boundary_matrix(T, n, theory)
            assert all(v == 0 for row in mat.rows for v in row)


def test_degree2_boundary_formula(r3):
    mat = boundary_matrix(r3, 2, "R")
    b2 = chain_basis(r3, 2, "R")
    b1 = chain_basis(r3, 1, "R")
    idx1 = b1.index
    for j, (x, y) in enumerate(b2.tuples):
        col = [mat.rows[i][j] for i in range(len(b1))]
        expected = [0] * len(b1)
        expected[idx1[(x,)]] += 1
        expected[idx1[(r3.op(x, y),)]] -= 1
        assert col == expected


def test_boundary_squares_to_zero():
    for X in hom_quandles().values():
        for theory in ("R", "D", "Q"):
            for n in (2, 3, 4):
                lo = boundary_matrix(X, n - 1, theory)
                hi = boundary_matrix(X, n, theory)
                for j in range(hi.ncols):
                    col = [hi.rows[i][j] for i in range(hi.nrows)]
                    for i in range(lo.nrows):
                        assert sum(lo.rows[i][k] * col[k] for k in range(lo.ncols)) == 0


def test_degenerate_subcomplex_closed(r3):
    # building the D matrix would raise if the image left the degenerate span
    for n in (2, 3, 4):
        boundary_matrix(r3, n, "D")


def test_theories_need_quandles():
    from quandlekit.algebra import RackTable

    cyc = RackTable(3, tuple(tuple((a + 1) % 3 for _ in range(3)) for a in range(3)))
    boundary_matrix(cyc, 2, "R")  # racks get the rack theory
    with pytest.raises(DomainError):
        boundary_matrix(cyc, 2, "Q")
    with pytest.raises(DomainError):
        homology(cyc, 2, "D")


# --- homology groups ------------------------------------------------------------------


def test_low_degree_homology(r3):
    assert homology(r3, 1, "D") == AbelianGroup(0)
    assert homology(r3, 1, "R") == AbelianGroup(1)
    assert homology(r3, 1, "Q") == AbelianGroup(1)
    assert homology(r3, 2, "D") == AbelianGroup(1)
    assert homology(r3, 2, "Q") == AbelianGroup(0)
    assert homology(r3, 3, "Q") == AbelianGroup(0, (3,))


def test_trivial_quandle_homology():
    T2 = make_trivial(2)
    assert homology(T2, 2, "Q") == AbelianGroup(2)
    assert homology(T2, 3, "R") == AbelianGroup(8)


def test_structure_reports():
    for name, X in hom_quandles().items():
        report = structure_report(X, 3)
        assert report.all_ok, (name, report.checks)


def test_orbit_formulas():
    for X in hom_quandles().values():
        o = len(X.orbits)
        assert homology(X, 1, "D") == AbelianGroup(0)
        assert homology(X, 1, "R") == AbelianGroup(o)
        assert homology(X, 1, "Q") == AbelianGroup(o)
        assert homology(X, 2, "D") == AbelianGroup(o)


def test_isomorphic_quandles_same_homology(r4, alexander_r4):
    for n in (1, 2, 3):
        for theory in ("R", "D", "Q"):
            assert homology(r4, n, theory) == homology(alexander_r4, n, theory)


def test_uct_consistency():
    for X in hom_quandles().values():
        for theory in ("R", "D", "Q"):
            for n in (1, 2, 3):
                for p in (2, 3, 5):
                    assert homology_mod(X, n, theory, p) == uct_mod_dimension(
                        X, n, theory, p
                    )


def test_homology_with_coefficients(r3):
    # H_3^Q(R3) = Z_3, H_2^Q(R3) = 0, so H_3(.; Z_3) = Z_3 and H_3(.; Z_2) = 0
    assert homology_with_coefficients(r3, 3, "Q", 3) == AbelianGroup(0, (3,))
    assert homology_with_coefficients(r3, 3, "Q", 2) == AbelianGroup(0)
    assert homology_mod(r3, 3, "Q", 3) == 1
    with pytest.raises(DomainError):
        homology_mod(r3, 2, "Q", 6)


# f_n = f_(n-1) + f_(n-3): the delta-Fibonacci exponents of H_n^Q(R3), n = 1, 2, ...
DELTA_FIB = (0, 0, 1, 1, 1, 2, 3, 4, 6)


def test_dihedral3_quandle_homology_published(r3):
    # Niebrzydowski and Przytycki, JPAA 213 (2009): H_n^Q(R3) = Z^[n=1] + Z_3^(f_n).
    for n in range(1, 9):
        assert homology(r3, n, "Q") == AbelianGroup(int(n == 1), (3,) * DELTA_FIB[n - 1]), n
    assert homology_mod(r3, 8, "Q", 3) == uct_mod_dimension(r3, 8, "Q", 3) == 7


def test_dihedral4_quandle_free_rank(r4):
    # Free rank of H_n^Q is o(o-1)^(n-1) for o orbits (Litherland and Nelson, JPAA 178).
    o = len(r4.orbits)
    for n in range(1, 6):
        assert homology(r4, n, "Q").rank == o * (o - 1) ** (n - 1), n


def test_degree_sweep_eliminates_each_boundary_once(monkeypatch):
    # H_n and H_{n+1} share d_{n+1}: the sweep n = 2..7 touches d_2..d_8 once each.
    from quandlekit import snf
    from quandlekit.homology import _boundary_invariants, _boundary_mod_rank

    X = make_dihedral(3)
    for fn in (homology, homology_mod, _boundary_invariants, _boundary_mod_rank):
        fn.cache_clear()
    calls = []

    def counted(real):
        def wrapper(columns, nrows, *rest):
            calls.append(real.__name__)
            return real(columns, nrows, *rest)
        return wrapper

    monkeypatch.setattr(snf, "cokernel_invariants", counted(snf.cokernel_invariants))
    monkeypatch.setattr(snf, "mod_rank", counted(snf.mod_rank))
    for n in range(2, 8):
        assert homology(X, n, "Q") == AbelianGroup(0, (3,) * DELTA_FIB[n - 1]), n
        assert homology_mod(X, n, "Q", 3) == DELTA_FIB[n - 1] + DELTA_FIB[n - 2], n
    assert calls.count("cokernel_invariants") == 7
    assert calls.count("mod_rank") == 7


@pytest.mark.slow
def test_dihedral3_quandle_homology_degree_9(monkeypatch, r3):
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "100000")  # 3^10 tuples before the Q filter
    assert homology(r3, 9, "Q") == AbelianGroup(0, (3,) * DELTA_FIB[8])


@pytest.mark.slow
def test_dihedral5_quandle_homology_degree_5():
    assert homology(make_dihedral(5), 5, "Q").rank == 0


def test_budget_guard():
    os.environ["QUANDLEKIT_BUDGET"] = "100"
    try:
        with pytest.raises(BudgetError):
            chain_basis(make_trivial(11), 4, "R")
    finally:
        del os.environ["QUANDLEKIT_BUDGET"]


def test_budget_guard_ignores_warm_cache(monkeypatch, r3):
    cached = (chain_basis, boundary_matrix, homology, homology_mod)
    calls = [
        (chain_basis, (r3, 6, "Q")),
        (boundary_matrix, (r3, 5, "Q")),
        (homology, (r3, 4, "Q")),
        (homology_mod, (r3, 4, "Q", 3)),
        (homology, (r3, 0, "Q")),
    ]

    def outcomes():
        out = []
        for fn, args in calls:
            try:
                out.append(fn(*args))
            except BudgetError:
                out.append(BudgetError)
        return out

    monkeypatch.setenv("QUANDLEKIT_BUDGET", "100000")
    warm = outcomes()
    assert BudgetError not in warm
    for budget in ("10", "100000"):
        monkeypatch.setenv("QUANDLEKIT_BUDGET", budget)
        on_warm_cache = outcomes()
        for fn in cached:
            fn.cache_clear()
        assert on_warm_cache == outcomes(), budget
    assert on_warm_cache == warm
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "10")
    assert outcomes()[:4] == [BudgetError] * 4


# --- abelian group values ---------------------------------------------------------------


def test_abelian_group_canonicalization():
    assert AbelianGroup.from_divisors(0, [2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_divisors(1, [4, 2, 3]) == AbelianGroup(1, (2, 12))
    assert AbelianGroup(0, (2, 4)).elementary_divisors() == (2, 4)
    assert AbelianGroup(0, (6,)).elementary_divisors() == (2, 3)
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_abelian_group_direct_sum_and_render():
    a = AbelianGroup(1, (2,))
    b = AbelianGroup(0, (3,))
    assert a.direct_sum(b) == AbelianGroup(1, (6,))
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(2, (3,))) == "Z^2 + Z_3"
    assert AbelianGroup(0, (2, 2)).order == 4
    assert AbelianGroup(1).order == 0


# --- cochains and cocycles ----------------------------------------------------------------


def test_theta_is_cocycle_and_not_coboundary(r3, theta):
    assert is_cocycle(r3, theta, "Q").ok
    spaces = cohomology(r3, 3, "Q", 3)
    assert not spaces.contains_coboundary(theta)


def test_zero_and_single_chi(r3):
    assert is_cocycle(r3, Cochain(3, 3, {}), "Q").ok
    chk = is_cocycle(r3, Cochain(3, 3, {(0, 1, 2): 1}), "Q")
    assert not chk.ok
    assert chk.witness is not None and len(chk.witness) == 4


def test_quandle_cochain_must_vanish_on_degenerate(r3):
    chk = is_cocycle(r3, Cochain(3, 3, {(0, 0, 1): 1}), "Q")
    assert not chk.ok
    assert chk.reason == "nonzero on degenerate tuple"


def test_coboundaries_are_cocycles(r3):
    mu = Cochain(2, 3, {(0, 1): 1, (1, 2): 2, (2, 0): 1})
    dmu = coboundary(r3, mu, "Q")
    assert is_cocycle(r3, dmu, "Q").ok
    assert cohomology(r3, 3, "Q", 3).contains_coboundary(dmu)
    zero = coboundary(r3, Cochain(2, 3, {}), "Q")
    assert zero.values == {}


def test_cochain_arithmetic():
    a = Cochain(2, 3, {(0, 1): 2})
    b = Cochain(2, 3, {(0, 1): 1, (1, 2): 1})
    assert (a + b).values == {(1, 2): 1}
    assert (-b).values == {(0, 1): 2, (1, 2): 2}
    assert a.value((2, 2)) == 0
    with pytest.raises(DomainError):
        a + Cochain(2, 5, {})
    with pytest.raises(DomainError):
        Cochain(2, 3, {(0, 1, 2): 1})


@settings(max_examples=40, deadline=None)
@given(entries=st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 2),
    max_size=6,
))
def test_coboundary_of_anything_is_cocycle(entries):
    r3 = make_dihedral(3)
    entries = {k: v for k, v in entries.items() if k[0] != k[1]}
    mu = Cochain(2, 3, entries)
    assert is_cocycle(r3, coboundary(r3, mu, "Q"), "Q").ok


# --- cohomology spaces ------------------------------------------------------------------


def test_trivial_quandle_cohomology_dimensions():
    for m in (2, 3):
        T = make_trivial(m)
        spaces = cohomology(T, 2, "Q", 3)
        assert spaces.cocycle_dimension == m * (m - 1)
        assert spaces.coboundary_dimension == 0
    assert cohomology(make_trivial(2), 2, "Q", 2).cocycle_dimension == 2


def test_cohomology_dimensions_match_uct(r3, r4):
    for X in (r3, r4):
        for n in (2, 3):
            for p in (2, 3):
                spaces = cohomology(X, n, "Q", p)
                dim_hn = spaces.cocycle_dimension - spaces.coboundary_dimension
                hn = homology(X, n, "Q")
                hprev = homology(X, n - 1, "Q")
                predicted = (
                    hn.rank
                    + sum(1 for f in hn.invariant_factors if f % p == 0)
                    + sum(1 for f in hprev.invariant_factors if f % p == 0)
                )
                assert dim_hn == predicted


def test_cocycle_spaces_contain_valid_cocycles(r3):
    spaces = cohomology(r3, 2, "Q", 3)
    for phi in spaces.cocycles():
        assert is_cocycle(r3, phi, "Q").ok
    for phi in spaces.coboundaries():
        assert spaces.contains_coboundary(phi)


def test_composite_modulus_cohomology():
    T2 = make_trivial(2)
    spaces = cohomology(T2, 2, "Q", 4)
    assert not spaces.prime
    assert len(spaces.cocycle_vectors) == 2
    assert len(spaces.coboundary_vectors) == 0
    assert spaces.contains_coboundary(Cochain(2, 4, {}))
    for phi in spaces.cocycles():
        assert is_cocycle(T2, phi, "Q").ok
    with pytest.raises(DomainError):
        spaces.cocycle_dimension


@pytest.mark.parametrize(
    "spec, n, d",
    [
        ("dihedral:3", 2, 3),
        ("dihedral:3", 2, 6),
        ("dihedral:4", 2, 4),
        ("alexander:2:1,1,1:0,1", 2, 4),
        ("dihedral:3", 3, 3),
    ],
)
def test_contains_coboundary_matches_brute_force(spec, n, d):
    # Oracle: delta(mu) for every mu in Z_d^{C_{n-1}^Q}.
    X = resolve_rack(spec)
    lower = chain_basis(X, n - 1, "Q")
    basis = chain_basis(X, n, "Q")
    coboundaries = {
        tuple(coboundary(X, Cochain.from_vector(n - 1, d, lower, mu), "Q").vector(basis))
        for mu in itertools.product(range(d), repeat=len(lower))
    }
    spaces = cohomology(X, n, "Q", d)
    listed = spaces.cocycles()
    sums = [a + b for a, b in itertools.combinations_with_replacement(listed, 2)]
    for phi in listed + sums:
        assert spaces.contains_coboundary(phi) == (tuple(phi.vector(basis)) in coboundaries)


def test_contains_coboundary_rejects_foreign_cochains(r3, theta):
    spaces = cohomology(r3, 3, "Q", 3)
    foreign = [
        Cochain(2, 3, {(0, 1): 1}),  # wrong degree
        Cochain(3, 3, {(7, 8, 9): 1}),  # outside the quandle
        Cochain(3, 3, {(0, 0, 1): 1}),  # degenerate, so not in the Q basis
        Cochain(3, 6, dict(theta.values)),  # wrong modulus
    ]
    for phi in foreign:
        with pytest.raises(DomainError):
            spaces.contains_coboundary(phi)
    assert not spaces.contains_coboundary(theta)


def test_cochain_outside_the_quandle_is_rejected(r3, trefoil, theta):
    bad = Cochain(3, 3, {**THETA_VALUES, (7, 8, 9): 1})
    chk = is_cocycle(r3, bad, "Q")
    assert not chk.ok
    assert (chk.reason, chk.witness) == ("entry outside the quandle", (7, 8, 9))
    outside = Cochain(2, 3, {(0, -1): 1})
    assert not is_cocycle(r3, outside, "R").ok
    with pytest.raises(NonCocycleError):
        state_sum_2(trefoil, r3, outside)
    with pytest.raises(NonCocycleError):
        lift_coloring(trefoil, r3, enumerate_colorings(trefoil, r3)[0], 3, outside)
    with pytest.raises(NonCocycleError):
        state_sum_shadow(trefoil, r3, bad)
    assert state_sum_shadow(trefoil, r3, bad, check=False) == state_sum_shadow(
        trefoil, r3, theta
    )


# --- cochain file format ------------------------------------------------------------------


def test_bundled_theta_matches_reference(theta):
    bundled = parse_cochain(read_data_file("theta_R3.cochain"))
    assert bundled == theta
    assert bundled.values == THETA_VALUES


def test_cochain_roundtrip(theta):
    assert parse_cochain(format_cochain(theta)) == theta


def test_cochain_parse_errors():
    with pytest.raises(ParseError):
        parse_cochain("")
    with pytest.raises(ParseError):
        parse_cochain("cocycle 3 3\n")
    with pytest.raises(ParseError):
        parse_cochain("cochain 3 3\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_cochain("cochain 3 3\n0 1 x 1\n")
    phi = parse_cochain("cochain 2 3\n# comment\n0 1 2\n\n1 0 1\n")
    assert phi.values == {(0, 1): 2, (1, 0): 1}


def test_degree_zero_and_negative(r3):
    # chain groups vanish for n <= 0 by convention
    assert homology(r3, 0, "R") == AbelianGroup(0)
    assert len(chain_basis(r3, -1, "Q")) == 0
    assert boundary_matrix(r3, 1, "R").nrows == 0
