import hashlib
import itertools
import os
import sys
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    make_conjugation,
    make_dihedral,
    make_trivial,
    parse_cochain,
    state_sum_2,
    state_sum_shadow,
    structure_report,
    uct_mod_dimension,
)
from quandlekit import snf
from quandlekit.algebra import RackTable
from quandlekit.coloring import _closure_histogram
from quandlekit.diagram import braid_closure, torus_braid
from quandlekit.homology import (
    THEORIES,
    _boundary_invariants,
    _boundary_mod_rank,
    _cocycle_verdict,
    _is_prime,
    _is_degenerate,
    _nondegenerate_tuples,
    format_cochain,
)
from quandlekit.specs import read_data_file, resolve_rack

from conftest import (
    THETA_VALUES, composite_image, elementary_divisors, inner_automorphisms,
    permutation_group_table, prime_powers, span_mod,
)


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


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_q_basis_is_built_directly_in_filter_order(m):
    # Oracle: all m^n tuples, degenerate ones filtered out, in product order.
    for n in range(7):
        expected = tuple(
            t for t in itertools.product(range(m), repeat=n) if not _is_degenerate(t)
        )
        assert _nondegenerate_tuples(m, n) == expected, n
        if n:
            assert chain_basis(make_trivial(m), n, "Q").tuples == expected, n
    if m == 1:
        assert all(chain_basis(make_trivial(1), n, "Q").tuples == () for n in range(2, 7))


def test_trivial_quandle_boundaries_vanish():
    T = make_trivial(3)
    for n in (2, 3, 4):
        for theory in ("R", "D", "Q"):
            mat = boundary_matrix(T, n, theory)
            assert not any(v for col in mat.columns for v in col.values())


def test_degree2_boundary_formula(r3):
    mat = boundary_matrix(r3, 2, "R")
    b2 = chain_basis(r3, 2, "R")
    b1 = chain_basis(r3, 1, "R")
    idx1 = b1.index
    for j, (x, y) in enumerate(b2.tuples):
        col = [mat.columns[j].get(i, 0) for i in range(len(b1))]
        expected = [0] * len(b1)
        expected[idx1[(x,)]] += 1
        expected[idx1[(r3.op(x, y),)]] -= 1
        assert col == expected


def _boundary_terms(X, t):
    """The chain boundary of one tuple as a sparse coefficient map.

    The per-tuple definition, the reference for ``boundary_matrix`` and the
    cocycle check, which walk the same faces per tail (``homology._faces``).
    """
    n = len(t)
    out = {}
    # The i=1 term drops out: both bracketed tuples coincide.
    for i in range(2, n + 1):
        sign = -1 if i % 2 else 1
        xi = t[i - 1]
        dropped = t[: i - 1] + t[i:]
        acted = tuple(X.table[x][xi] for x in t[: i - 1]) + t[i:]
        out[dropped] = out.get(dropped, 0) + sign
        out[acted] = out.get(acted, 0) - sign
    return {k: v for k, v in out.items() if v}


_CYCLE_RACK = RackTable(3, tuple(((a + 1) % 3,) * 3 for a in range(3)))  # not a quandle
_BOUNDARY_RACKS = (
    *(make_dihedral(m) for m in (3, 4, 5, 6)), *(make_trivial(m) for m in (1, 2, 3)),
    make_alexander(2, [1, 1, 1], [0, 1]), resolve_rack("alexander:3:1,0,1:2"), _CYCLE_RACK,
)


def _per_tuple_columns(X, n, theory):
    """The columns of d_n tuple by tuple off ``_boundary_terms``, terms on the basis kept."""
    rows = chain_basis(X, n - 1, theory).index
    return [[(rows[term], c) for term, c in _boundary_terms(X, t).items() if term in rows]
            for t in chain_basis(X, n, theory).tuples]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_boundary_columns_match_the_per_tuple_boundary(data):
    """The per-tail build gives the per-tuple columns, key order included.

    ``snf._eliminate`` reads the columns in their key order, so equal
    columns give equal pivots, invariants and generators.
    """
    X = data.draw(st.sampled_from(_BOUNDARY_RACKS))
    theory = "R" if X is _CYCLE_RACK else data.draw(st.sampled_from(THEORIES))
    n = data.draw(st.integers(0, 5).filter(lambda n: X.size ** n <= 1296))
    got = [list(col.items()) for col in boundary_matrix(X, n, theory).columns]
    assert got == _per_tuple_columns(X, n, theory)


def test_boundary_squares_to_zero():
    for X in hom_quandles().values():
        for theory in ("R", "D", "Q"):
            for n in (2, 3, 4):
                lo = boundary_matrix(X, n - 1, theory)
                hi = boundary_matrix(X, n, theory)
                assert composite_image(lo, hi) == {}


def test_degenerate_subcomplex_closed():
    """Every term left in the boundary of a degenerate tuple is degenerate."""
    for spec in ("dihedral:3", "dihedral:4", "alexander:2:1,1,1:0,1", "alexander:3:1,0,1:2"):
        X = resolve_rack(spec)
        for n in (2, 3, 4):
            for t in chain_basis(X, n, "D").tuples:
                terms = _boundary_terms(X, t)
                assert all(_is_degenerate(term) for term, c in terms.items() if c), (t, terms)


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
DELTA_FIB = (0, 0, 1, 1, 1, 2, 3, 4, 6, 9, 13)


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


SMALL_GROUPS = {
    "Z_4": [(1, 2, 3, 0)],
    "Z_2^2": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "S_3": [(1, 0, 2), (1, 2, 0)],
    "D_4": [(1, 2, 3, 0), (3, 2, 1, 0)],
}


@st.composite
def drawn_quandles(draw):
    """An Alexander quandle Z_m[t]/(q) with a unit t, or a conjugation quandle."""
    if draw(st.booleans(), label="affine"):
        m = draw(st.integers(2, 5), label="modulus")
        degree = draw(st.integers(1, 2 if m <= 3 else 1), label="degree")
        quotient = draw(st.lists(st.integers(0, m - 1), min_size=degree, max_size=degree)) + [1]
        t = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2), label="t")
        try:
            return make_alexander(m, quotient, t)
        except DomainError:  # t is not a unit mod q
            assume(False)
    group = draw(st.sampled_from(sorted(SMALL_GROUPS)), label="group")
    exponent = draw(st.integers(1, 3), label="exponent")
    return make_conjugation(permutation_group_table(SMALL_GROUPS[group]), exponent)


@settings(max_examples=60, deadline=None)
@given(drawn_quandles())
def test_betti_numbers_of_drawn_quandles(X):
    # Etingof and Grana (JPAA 177, 2003): rank H_n^R = o^n for o orbits;
    # Litherland and Nelson (JPAA 178, 2003): rank H_n^Q = o(o-1)^(n-1).
    o = len(X.orbits)
    n = 1
    while X.size ** (n + 1) <= 1300:
        assert homology(X, n, "R").rank == o**n, (X.label, n)
        assert homology(X, n, "Q").rank == o * (o - 1) ** (n - 1), (X.label, n)
        n += 1
    assert n > 2, X.label  # H_1 and H_2 at least


def test_degree_sweep_eliminates_each_boundary_once(monkeypatch):
    # H_n and H_{n+1} share d_{n+1}: the sweep n = 2..7 eliminates d_2..d_8
    # over Z once each, and the GF(3) ranks are read off their invariant
    # factors, so nothing is reduced over GF(3).  Each d_n of R3 in theory Q
    # is told apart by its 3 * 2^(n-1) columns, and is eliminated on the rows
    # that the pivots of d_{n-1} leave (d_1, never eliminated here, leaves all):
    # the spy records the rows left once ``drop`` is taken out.
    from quandlekit import snf

    X = make_dihedral(3)
    for fn in (_boundary_invariants, _boundary_mod_rank):
        fn.cache_clear()
    over_z, over_gf = [], []
    real_z, real_gf = snf._eliminate, snf.mod_rref

    def counted_z(columns, nrows, pivots=None, drop=frozenset()):
        over_z.append((nrows - len(drop), len(columns)))
        return real_z(columns, nrows, pivots, drop)

    def counted_gf(vectors, p):
        over_gf.append((id(vectors), p))
        return real_gf(vectors, p)

    monkeypatch.setattr(snf, "_eliminate", counted_z)
    monkeypatch.setattr(snf, "mod_rref", counted_gf)
    for n in range(2, 8):
        assert homology(X, n, "Q") == AbelianGroup(0, (3,) * DELTA_FIB[n - 1]), n
        assert homology_mod(X, n, "Q", 3) == DELTA_FIB[n - 1] + DELTA_FIB[n - 2], n
    expected, dropped = [], []
    for n in range(2, 9):
        d = boundary_matrix(X, n, "Q")
        lower = _boundary_invariants.peek(X, n - 1, "Q")
        dropped.append(len(lower[2]) if lower else 0)
        expected.append((d.nrows - dropped[-1], d.ncols))
    assert sorted(over_z) == sorted(expected)
    assert dropped[0] == 0 and all(dropped[1:])
    assert over_gf == []
    # The spy sees a direct GF(3) rank, so its silence above is not vacuous.
    _boundary_mod_rank.cache_clear()
    _boundary_invariants.cache_clear()
    assert homology_mod(X, 2, "Q", 3) == DELTA_FIB[1] + DELTA_FIB[0]
    assert {p for _, p in over_gf} == {3} and len(over_gf) == 2


@pytest.mark.slow
def test_dihedral3_quandle_homology_degree_9(monkeypatch, r3):
    # The sweep up to H_11^Q(R3) = Z_3^13, whose d_12 counts 3^12 tuples
    # before the Q filter.
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "531441")
    for n in range(1, 12):
        assert homology(r3, n, "Q") == AbelianGroup(int(n == 1), (3,) * DELTA_FIB[n - 1]), n


@pytest.mark.slow
def test_dihedral5_quandle_homology_degree_5():
    assert homology(make_dihedral(5), 5, "Q").rank == 0


@pytest.mark.slow
@pytest.mark.parametrize("n, degree, group", [
    # Mixed 2-power torsion: the diagonal past the unit pivots needs the
    # gcd/lcm chain to come out as 2, 2, 2, 2, 4, 4, 4, 4, 8, 8.
    (8, 4, AbelianGroup(2, (2,) * 4 + (4,) * 4 + (8,) * 2)),
    (6, 5, AbelianGroup(2, (3,) * 12)),
])
def test_dihedral_homology_with_large_residuals(monkeypatch, n, degree, group):
    # Past its unit pivots the boundary map one degree up leaves a residual
    # of over 13000 columns.
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "50000")
    assert homology(make_dihedral(n), degree, "Q") == group


@pytest.mark.parametrize("spec, top", [
    ("dihedral:3", 4), ("dihedral:4", 4), ("dihedral:5", 4), ("alexander:2:1,1,1:0,1", 4),
    ("dihedral:6", 3),
])
def test_homology_away_from_inn_x_is_the_orbit_count(spec, top):
    # Etingof and Grana (JPAA 177, 2003): for a prime p not dividing
    # |Inn(X)|, dim H_n^R(X; F_p) = o^n with o the number of orbits, so every
    # torsion prime of H_n^R divides |Inn(X)|; so does every one of H_n^Q, a
    # summand of it (Litherland and Nelson, JPAA 178, 2003).
    X = resolve_rack(spec)
    inn = len(inner_automorphisms(X))
    away = [p for p in (2, 3, 5, 7, 11, 13) if inn % p]
    assert away, spec
    for n in range(1, top + 1):
        for p in away:
            assert homology_mod(X, n, "R", p) == len(X.orbits) ** n, (spec, n, p)
        for theory in ("R", "Q"):
            torsion = homology(X, n, theory).invariant_factors
            assert all(inn % q == 0 for d in torsion for q in prime_powers(d)), (spec, n)


@pytest.mark.parametrize("spec, n", [
    *[(spec, n) for spec in ("dihedral:3", "dihedral:4", "alexander:2:1,1,1:0,1")
      for n in (4, 5)],
    ("dihedral:5", 4), pytest.param("dihedral:5", 5, marks=pytest.mark.slow),
])
def test_rack_homology_splits_into_degenerate_and_quandle(spec, n):
    # Litherland and Nelson (JPAA 178, 2003): H_n^R = H_n^D + H_n^Q in every
    # degree; structure_report checks it for n <= 3 only.
    X = resolve_rack(spec)
    rack, degenerate, quandle = (homology(X, n, theory) for theory in ("R", "D", "Q"))
    assert rack == degenerate.direct_sum(quandle), (spec, n)


def test_is_prime_agrees_with_trial_division():
    def trial_division(d, primes):
        for p in primes:
            if p * p > d:
                break
            if d % p == 0:
                return False
        return d >= 2

    primes = []
    for d in range(10**5):
        prime = trial_division(d, primes)
        if prime:
            primes.append(d)
        assert _is_prime(d) == prime, d
    # A Carmichael number, and strong pseudoprimes to the bases 2..7 and 2..23.
    for d, factors in [(561, (3, 11, 17)), (3215031751, (151, 751, 28351)),
                       (3825123056546413051, (149491, 747451, 34233211))]:
        assert prod(factors) == d
        assert not _is_prime(d)
    assert _is_prime(2**61 - 1)


def test_budget_guard():
    os.environ["QUANDLEKIT_BUDGET"] = "100"
    try:
        with pytest.raises(BudgetError):
            chain_basis(make_trivial(11), 4, "R")
    finally:
        del os.environ["QUANDLEKIT_BUDGET"]


def test_budget_guard_ignores_warm_cache(monkeypatch, r3):
    cached = (chain_basis, _boundary_invariants, _boundary_mod_rank, _cocycle_verdict)
    calls = [
        (chain_basis, (r3, 6, "Q")),
        (boundary_matrix, (r3, 5, "Q")),
        (homology, (r3, 4, "Q")),
        (homology_mod, (r3, 4, "Q", 3)),
        (is_cocycle, (r3, Cochain(3, 3, THETA_VALUES), "Q")),
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
    assert outcomes()[:5] == [BudgetError] * 5


# --- abelian group values ---------------------------------------------------------------


def test_abelian_group_canonicalization():
    assert AbelianGroup.from_divisors(0, [2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_divisors(1, [4, 2, 3]) == AbelianGroup(1, (2, 12))
    assert elementary_divisors(AbelianGroup(0, (2, 4))) == (2, 4)
    assert elementary_divisors(AbelianGroup(0, (6,))) == (2, 3)
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(-400, 400), max_size=8))
def test_from_divisors_keeps_prime_powers(rank, divisors):
    group = AbelianGroup.from_divisors(rank, divisors)
    powers = sorted(q for d in divisors if d for q in prime_powers(abs(d)))
    assert elementary_divisors(group) == tuple(powers)
    assert group.rank == rank + divisors.count(0)


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


def _mochizuki(p):
    """Mochizuki's 3-cocycle of R_p, p an odd prime, from its closed formula.

    theta_p(x, y, z) = (x - y)((2z^p - y^p - (2z - y)^p) / p) mod p
    (Mochizuki, Some calculations of cohomology groups of finite Alexander
    quandles, JPAA 179, 2003); the numerator is divisible by p by Fermat.
    """
    return Cochain(3, p, {
        (x, y, z): (x - y) * ((2 * z**p - y**p - (2 * z - y) ** p) // p)
        for x, y, z in itertools.product(range(p), repeat=3)
    })


@pytest.mark.parametrize("p", [3, 5, 7, pytest.param(11, marks=pytest.mark.slow)])
def test_mochizuki_cocycles_are_nontrivial_and_sum_alike_on_both_paths(p):
    """Oracle: theta_p is a 3-cocycle of R_p that is not a coboundary.

    H^3_Q(R_p; Z_p) = Z_p, so the prime dimensions differ by 1.  Its shadow
    sums on T(2, q) and T(3, q) agree between the braid engine and the
    search on the closure; T(2, p) has nontrivial R_p colorings for each p.
    """
    X, theta = make_dihedral(p), _mochizuki(p)
    assert is_cocycle(X, theta, "Q").ok
    spaces = cohomology(X, 3, "Q", p)
    assert not spaces.contains_coboundary(theta)
    assert spaces.cocycle_dimension - spaces.coboundary_dimension == 1
    for strands, q in itertools.product((2, 3), sorted({2, 3, 4, 5, p, -p})):
        word = torus_braid(strands, q)
        search = state_sum_shadow(braid_closure(word), X, theta)
        assert tuple(_closure_histogram(word, X, theta)) == search.coeffs, (strands, q)
        assert state_sum_shadow(word, X, theta) == search, (strands, q)
    knot = state_sum_shadow(torus_braid(2, p), X, theta)
    assert knot.coeffs[0] < knot.augmentation()  # some weight is not 0


def test_bundled_theta_is_mochizuki_up_to_a_coboundary(r3, theta):
    assert cohomology(r3, 3, "Q", 3).contains_coboundary(theta + -_mochizuki(3))


def test_first_listed_r5_cocycle_is_mochizuki_up_to_a_coboundary():
    # The benchmark's theta_R5 is the first listed cocycle of R5 mod 5 that is
    # not a coboundary; it differs from Mochizuki's theta_5 by a coboundary.
    spaces = cohomology(make_dihedral(5), 3, "Q", 5)
    theta_r5 = next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))
    assert spaces.contains_coboundary(theta_r5 + -_mochizuki(5))


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_cocycle_witness_is_first_coboundary_value(data):
    X = data.draw(st.sampled_from([make_dihedral(3), make_dihedral(4), make_trivial(2)]))
    theory = data.draw(st.sampled_from(["R", "Q"]))
    degree = data.draw(st.integers(1, 3))
    basis = chain_basis(X, degree, theory).tuples
    values = data.draw(st.dictionaries(st.sampled_from(basis), st.integers(1, 2), max_size=5))
    phi = Cochain(degree, 3, values)
    check = is_cocycle(X, phi, theory)
    delta = coboundary(X, phi, theory)
    assert check.ok == (not delta.values)
    assert list(delta.values) == sorted(delta.values)  # basis order is lexicographic
    if not check.ok:
        assert check.reason == "coboundary is nonzero"
        assert check.witness == next(iter(delta.values))


def _per_tuple_coboundary(X, mu, theory):
    """delta mu mod d on the degree-(n+1) basis, tuple by tuple off ``_boundary_terms``."""
    values = {}
    for t in chain_basis(X, mu.degree + 1, theory).tuples:
        total = sum(c * mu.value(term) for term, c in _boundary_terms(X, t).items())
        if total % mu.modulus:
            values[t] = total % mu.modulus
    return values


def _per_tuple_check(X, phi, theory):
    """(ok, reason, witness) of the cocycle check, tuple by tuple."""
    outside = [t for t in phi.values if not all(0 <= x < X.size for x in t)]
    if outside:
        return False, "entry outside the quandle", outside[0]
    degenerate = [t for t in phi.values if _is_degenerate(t)]
    if theory == "Q" and degenerate:
        return False, "nonzero on degenerate tuple", degenerate[0]
    delta = _per_tuple_coboundary(X, phi, theory)
    return (False, "coboundary is nonzero", next(iter(delta))) if delta else (True, None, None)


_DIFFERENTIAL_RACKS = (
    make_dihedral(3), make_dihedral(4), make_dihedral(5), make_trivial(1), make_trivial(2),
    make_alexander(2, [1, 1, 1], [0, 1]), resolve_rack("alexander:3:1,0,1:2"), _CYCLE_RACK,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cocycle_check_matches_the_per_tuple_boundary(data):
    """The per-tail vectors give the per-tuple verdict, witness and coboundary.

    Cochains may name elements outside X and be nonzero on degenerate
    tuples; they are drawn at random, as coboundaries delta mu, or as a
    coboundary with one basis entry perturbed.  Moduli include composites.
    """
    X = data.draw(st.sampled_from(_DIFFERENTIAL_RACKS))
    theory = "R" if X is _CYCLE_RACK else data.draw(st.sampled_from(THEORIES))
    degree = data.draw(st.integers(1, 3 if X.size <= 5 else 2))
    d = data.draw(st.sampled_from([2, 3, 4, 6, 9]))
    kind = data.draw(st.sampled_from(["random", "coboundary", "perturbed"]))
    if degree == 1:
        kind = "random"

    def cochain(n):
        entries = st.integers(-1, X.size) if kind == "random" else st.integers(0, X.size - 1)
        tuples = st.tuples(*[entries] * n)
        return Cochain(n, d, data.draw(st.dictionaries(tuples, st.integers(1, d - 1),
                                                       max_size=8)))

    if kind == "random":
        phi = cochain(degree)
    else:
        phi = Cochain(degree, d, _per_tuple_coboundary(X, cochain(degree - 1), theory))
        basis = chain_basis(X, degree, theory).tuples
        if kind == "perturbed" and basis:
            t = data.draw(st.sampled_from(basis))
            phi = phi + Cochain(degree, d, {t: 1})
    # The verdict memo is keyed by theory and by the order of the values:
    # the witnesses for entries outside X and for degenerate tuples follow
    # that order.  The second call on phi hits the memo.
    reversed_phi = Cochain(degree, d, dict(reversed(phi.values.items())))
    others = [t for t in ("R",) + (() if X is _CYCLE_RACK else ("D", "Q")) if t != theory]
    for t in [theory] + others:
        for psi in (phi, phi, reversed_phi):
            check = is_cocycle(X, psi, t)
            assert (check.ok, check.reason, check.witness) == _per_tuple_check(X, psi, t)
    want = Cochain(degree + 1, d, _per_tuple_coboundary(X, phi, theory))
    assert list(coboundary(X, phi, theory).values.items()) == list(want.values.items())


def test_cocycle_check_builds_no_basis_and_refuses_as_before(monkeypatch):
    X, theta = make_dihedral(5), _mochizuki(5)
    mu = Cochain(2, 5, {(0, 1): 1, (3, 2): 4, (4, 4): 2})
    monkeypatch.delenv("QUANDLEKIT_BUDGET", raising=False)
    chain_basis.cache_clear()
    _cocycle_verdict.cache_clear()  # so that no check below is a memo hit
    assert is_cocycle(X, theta, "Q").ok
    assert coboundary(X, theta, "Q").values == {}
    assert coboundary(X, mu, "Q").values == _per_tuple_coboundary(X, mu, "Q")
    chain_basis.cache_clear()  # the reference above built C_3
    assert not is_cocycle(X, Cochain(3, 5, {(0, 1, 2): 1}), "Q").ok
    assert coboundary(X, mu, "Q").values
    assert chain_basis.peek(X, 3, "Q") is None and chain_basis.peek(X, 4, "Q") is None
    # The budget still counts the 5^4 tuples of C_4; the message names the work.
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "624")
    for call, work in ((is_cocycle, "cocycle check"), (coboundary, "coboundary")):
        with pytest.raises(BudgetError) as info:
            call(X, theta, "Q")
        assert str(info.value) == (f"{work} over 5^4 tuples exceeds the budget of 624 "
                                   "(override with QUANDLEKIT_BUDGET)")
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "625")
    assert is_cocycle(X, theta, "Q").ok


def test_pullback_of_theta_to_a27_is_a_cocycle(monkeypatch, theta, trefoil):
    """Oracle: a cocycle pulled back along a quandle homomorphism is a cocycle.

    f(i) = i mod 3 maps the 27-element Alexander quandle onto R3; theta . f
    is a 3-cocycle of A27 whose trefoil shadow sum is 6561 + 13122t.  Its
    check covers 27^4 = 531441 tuples, past the default budget.
    """
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "531441")
    _cocycle_verdict.cache_clear()
    a27, r3 = resolve_rack("alexander:3:1,0,0,1:2"), make_dihedral(3)
    assert all(a27.table[x][y] % 3 == r3.table[x % 3][y % 3]
               for x in range(27) for y in range(27))
    pullback = Cochain(3, 3, {
        (x, u, o): theta.value((x % 3, u % 3, o % 3))
        for x, u, o in itertools.product(range(27), repeat=3)
    })
    assert is_cocycle(a27, pullback, "Q").ok
    assert state_sum_shadow(trefoil, a27, pullback).coeffs == (6561, 13122, 0)


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


ORACLE_SPECS = ["dihedral:3", "dihedral:4", "dihedral:5", "alexander:2:1,1,1:0,1",
                "alexander:3:1,0,1:2", "trivial:3"]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_mod_ranks_agree_with_and_without_integral_invariants(spec):
    # homology_mod reads its ranks off cached integral invariants, and runs
    # the direct GF(p) elimination when none are cached: each checks the other.
    X = resolve_rack(spec)
    cached = (chain_basis, _boundary_invariants, _boundary_mod_rank)

    def clear():
        for fn in cached:
            fn.cache_clear()

    for theory in THEORIES:
        for n in range(1, 6):
            if X.size ** (n + 1) > 1024:  # the domain of d_{n+1}: about 2 s in all
                break
            for p in (2, 3, 5):
                clear()
                direct = homology_mod(X, n, theory, p)
                clear()
                for degree in (n, n + 1):
                    _boundary_invariants(X, degree, theory)
                assert homology_mod(X, n, theory, p) == direct, (theory, n, p)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_reduced_boundary_invariants_match_the_full_map(spec):
    # Oracle: each d_n, eliminated on the rows the pivots of d_{n-1} leave,
    # against the elimination of the whole map.
    X = resolve_rack(spec)
    reduced = 0
    for theory in THEORIES:
        _boundary_invariants.cache_clear()
        for n in range(1, 7):
            if X.size ** n > 1024:  # the domain cap of the mod-rank oracle above
                break
            rank, torsion, pivoted = _boundary_invariants(X, n, theory)
            d = boundary_matrix(X, n, theory)
            free, full_torsion = snf.cokernel_invariants(d.columns, d.nrows)
            assert (rank, torsion) == (d.nrows - free, tuple(full_torsion)), (theory, n)
            assert pivoted <= set(range(d.ncols))
            lower = _boundary_invariants.peek(X, n - 1, theory)
            reduced += bool(lower and lower[2])
    assert reduced or spec == "trivial:3"  # every boundary of a trivial quandle is zero


@pytest.mark.parametrize("spec", ["dihedral:3", "dihedral:4", "alexander:2:1,1,1:0,1"])
def test_descending_sweep_matches_ascending(spec):
    # Descending, no map finds the one below it memoized until the sweep reaches it.
    X = resolve_rack(spec)
    top = 6 if X.size == 3 else 4
    for theory in THEORIES:
        _boundary_invariants.cache_clear()
        ascending = [homology(X, n, theory) for n in range(1, top + 1)]
        _boundary_invariants.cache_clear()
        descending = [homology(X, n, theory) for n in range(top, 0, -1)]
        assert descending[::-1] == ascending, theory


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in ORACLE_SPECS for n in (1, 2, 3)])
def test_prime_dimensions_match_dense_generators(spec, n):
    # Oracle: the generator counts, off the sparse GF(p) RREF, against the
    # dimensions read off the integral invariants of d_n and d_{n+1}.
    X = resolve_rack(spec)
    _boundary_mod_rank.cache_clear()
    for degree in (n, n + 1):
        _boundary_invariants(X, degree, "Q")
    for p in (2, 3, 5):
        spaces = cohomology(X, n, "Q", p)
        assert spaces.cocycle_dimension == len(spaces.cocycle_vectors), p
        assert spaces.coboundary_dimension == len(spaces.coboundary_vectors), p


def test_cocycle_generators_are_unchanged():
    # The bench's theta_R5.cochain is read off these vectors.
    vectors = cohomology(make_dihedral(5), 3, "Q", 5).cocycle_vectors
    digest = hashlib.sha256(repr(vectors).encode()).hexdigest()
    assert digest == "fbf2e525aa4caa1962dc510d8800663561c073b790f5a539079c299487f5fd61"


def test_cohomology_checks_the_budget_when_called(monkeypatch):
    monkeypatch.delenv("QUANDLEKIT_BUDGET", raising=False)
    with pytest.raises(BudgetError):  # d_7 has 5^7 counted tuples
        cohomology(make_dihedral(5), 6, "Q", 5)


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


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in ORACLE_SPECS for n in (1, 2, 3)])
def test_composite_cocycle_generators_span_the_kernel(spec, n):
    # Oracle: Z^n(X; Z_d), the x with x.c = 0 mod d for each column c of
    # d_{n+1}, has order d^(dim - r) * prod gcd(e_i, d) for the rank r and
    # invariant factors e_i of d_{n+1}, and needs dim - r + #{gcd(e_i, d) > 1}
    # generators.  The span of generators G has order d^dim over that of
    # Z^dim / (rowspan(G) + dZ^dim) = coker(G) (x) Z_d, which is
    # d^(dim - rank G) * prod gcd(f_i, d) for the invariant factors f_i of G.
    X = resolve_rack(spec)
    dim = len(chain_basis(X, n, "Q"))
    rank, torsion, _ = _boundary_invariants(X, n + 1, "Q")
    for d in (4, 6, 8, 9, 12):
        spaces = cohomology(X, n, "Q", d)
        vectors = spaces.cocycle_vectors
        for phi in spaces.cocycles():
            assert is_cocycle(X, phi, "Q").ok, d
        gcds = [gcd(e, d) for e in torsion]
        assert len(vectors) == dim - rank + sum(1 for g in gcds if g > 1), d
        columns = [{i: v for i, v in enumerate(vec) if v} for vec in vectors]
        free, factors = snf.cokernel_invariants(columns, dim)
        span = d ** (dim - free) // prod(gcd(f, d) for f in factors)
        assert span == d ** (dim - rank) * prod(gcds), d


@pytest.mark.parametrize("spec, n, d", [("trivial:2", 2, 4), ("dihedral:3", 2, 6)])
def test_composite_cocycle_generators_match_brute_force(spec, n, d):
    # Oracle: every x in Z_d^dim with x.c = 0 mod d for each column c of d_{n+1}.
    X = resolve_rack(spec)
    dim = len(chain_basis(X, n, "Q"))
    up = boundary_matrix(X, n + 1, "Q").columns
    kernel = {
        x for x in itertools.product(range(d), repeat=dim)
        if all(sum(v * x[i] for i, v in col.items()) % d == 0 for col in up)
    }
    assert span_mod(cohomology(X, n, "Q", d).cocycle_vectors, dim, d) == kernel


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


def test_cochain_spaces_build_their_boundary_once(monkeypatch, r3, theta):
    # Only answers are memoized, not boundary maps: a CochainSpaces keeps its
    # own d_n for the coboundary generators and every membership test, and
    # reads the invariants of d_n from the memo.  With them memoized, the one
    # build the spy sees is the CochainSpaces' own; on a cold memo the first
    # membership test also builds d_n for the memo, so the spy sees two.  The
    # six membership tests build nothing more either way.
    hom = sys.modules["quandlekit.homology"]  # quandlekit.homology is also a function
    built = []
    real = hom.boundary_matrix

    def counted(X, n, theory="R"):
        built.append(n)
        return real(X, n, theory)

    monkeypatch.setattr(hom, "boundary_matrix", counted)
    for warm in (True, False):
        _boundary_invariants.cache_clear()
        if warm:
            _boundary_invariants(r3, 3, "Q")
        built.clear()
        spaces = cohomology(r3, 3, "Q", 3)
        boundary = spaces.coboundaries()[0]
        for _ in range(3):
            assert not spaces.contains_coboundary(theta)
            assert spaces.contains_coboundary(boundary)
        assert built == ([3] if warm else [3, 3]), warm


def test_coboundary_dimension_reads_the_memo_after_a_membership_test(monkeypatch):
    # contains_coboundary memoizes the invariants of d_3; the coboundary
    # dimension is then rank d_3 minus the factors 5 divides, read off them
    # with no further build of d_3 and no GF(5) reduction.  The oracle is the
    # GF(5) rank of d_3 taken directly, on a cold memo.
    hom = sys.modules["quandlekit.homology"]
    X = make_dihedral(5)
    _boundary_invariants.cache_clear()
    _boundary_mod_rank.cache_clear()
    direct = _boundary_mod_rank(X, 3, "Q", 5)
    _boundary_mod_rank.cache_clear()
    built, reduced = [], []
    real_build, real_rref = hom.boundary_matrix, snf.mod_rref

    def counted_build(X, n, theory="R"):
        built.append(n)
        return real_build(X, n, theory)

    def counted_rref(vectors, p):
        reduced.append(p)
        return real_rref(vectors, p)

    monkeypatch.setattr(hom, "boundary_matrix", counted_build)
    monkeypatch.setattr(snf, "mod_rref", counted_rref)
    spaces = cohomology(X, 3, "Q", 5)
    assert not spaces.contains_coboundary(_mochizuki(5))
    assert built == [3, 3] and reduced == []  # the memo's d_3 and the spaces' own
    built.clear()
    assert spaces.coboundary_dimension == _boundary_mod_rank(X, 3, "Q", 5) == direct
    assert (built, reduced) == ([], [])


def test_membership_then_homology_eliminates_the_boundary_once(monkeypatch, r3, theta):
    # d_3 of R3 in theory Q has 3 * 2 * 2 = 12 columns, as does the matrix a
    # membership test appends theta to; d_4 has 24.  After a cold membership
    # test, homology(R3, 3) reads d_3's invariants from the memo and
    # eliminates only d_4.
    calls = []
    real = snf.cokernel_invariants

    def counted(columns, nrows, *args, **kwargs):
        calls.append(len(columns))
        return real(columns, nrows, *args, **kwargs)

    monkeypatch.setattr(snf, "cokernel_invariants", counted)
    _boundary_invariants.cache_clear()
    assert not cohomology(r3, 3, "Q", 3).contains_coboundary(theta)
    assert calls == [12, 12]  # d_3 for the memo, then the appended matrix
    calls.clear()
    assert homology(r3, 3, "Q") == AbelianGroup(0, (3,) * DELTA_FIB[2])
    assert calls == [24]


@pytest.mark.parametrize("call", [homology, lambda X, n, t: homology_mod(X, n, t, 2)],
                         ids=["homology", "homology_mod"])
def test_refusal_comes_before_any_map_is_built(monkeypatch, call):
    # Under the default budget C_5 of R6 (6^5 tuples) passes and C_6 (6^6)
    # is refused: H_5 needs d_6, so it is refused before d_5 is built.
    monkeypatch.delenv("QUANDLEKIT_BUDGET", raising=False)
    hom = sys.modules["quandlekit.homology"]
    work = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            work.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hom, "boundary_matrix", spy("build", hom.boundary_matrix))
    for name in ("cokernel_invariants", "mod_rref"):
        monkeypatch.setattr(snf, name, spy(name, getattr(snf, name)))
    for fn in (_boundary_invariants, _boundary_mod_rank):
        fn.cache_clear()
    with pytest.raises(BudgetError, match=r"chain basis of size 6\^6 exceeds"):
        call(make_dihedral(6), 5, "Q")
    assert work == []


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


def test_cochain_header_bounds_parse_errors_constructor_domain_errors():
    for degree, modulus in ((0, 3), (2, 0)):
        with pytest.raises(ParseError):
            parse_cochain(f"cochain {degree} {modulus}\n")
        with pytest.raises(DomainError) as info:
            Cochain(degree, modulus, {})
        assert not isinstance(info.value, ParseError)


def test_degree_zero_and_negative(r3):
    # chain groups vanish for n <= 0 by convention
    assert homology(r3, 0, "R") == AbelianGroup(0)
    assert len(chain_basis(r3, -1, "Q")) == 0
    assert boundary_matrix(r3, 1, "R").nrows == 0
