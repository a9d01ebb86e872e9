"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 4 has one unattainable subcase: the stated constant 45 for the
torus link T(3,6).  Shadow colorings of any connected diagram number exactly
|X| per arc coloring (the region monodromy around every crossing is trivial
by the quandle identity S_{a*b} = S_b^-1 S_a S_b, and on the sphere those
crossing cycles generate all dual cycles), and T(3,6) has 27 dihedral
3-colorings, so its shadow state sum has augmentation 81, never 45.  The
subcase is asserted as stated in ``test_criterion_4_t36_stated_value`` and
marked as an expected failure; the analysis lives in the project notes.
"""

import time

import pytest

from quandlekit import (
    Cochain,
    GroupRingElement,
    boundary_matrix,
    coboundary,
    cohomology,
    count_colorings,
    enumerate_colorings,
    enumerate_shadow_colorings,
    enumerate_surface_colorings,
    find_isomorphism,
    homology_mod,
    is_cocycle,
    lift_coloring,
    make_alexander,
    make_dihedral,
    make_trivial,
    shadow_surface_data,
    state_sum_2,
    state_sum_shadow,
    state_sum_surface,
    structure_report,
    torus_diagram,
    uct_mod_dimension,
)
from quandlekit.invariant import coloring_weight

from conftest import brute_force_colorings, composite_image


def _stopwatch(limit):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"{label} took {elapsed:.1f}s, budget {limit}s"
        return elapsed

    return check


def _psi(k):
    """The group-ring value 9 + 18 t^k in Z[t]/(t^3 - 1)."""
    coeffs = [9, 0, 0]
    coeffs[k % 3] += 18
    return GroupRingElement(3, tuple(coeffs))


def test_criterion_1_trefoil_colorings(trefoil, r3):
    done = _stopwatch(1.0)
    cols = enumerate_colorings(trefoil, r3)
    assert len(cols) == 9
    assert sum(1 for c in cols if len(set(c.colors)) == 1) == 3
    elapsed = done("trefoil coloring count")
    print(f"\nacceptance 1: PASS trefoil has 9 colorings, 3 constant ({elapsed:.2f}s)")


def test_criterion_2_knot_table(knot_table, r3, theta):
    done = _stopwatch(5.0)
    values = {
        name: state_sum_shadow(knot_table[name], r3, theta).render()
        for name in ("trefoil", "7_4", "7_7", "6_1")
    }
    assert values["trefoil"] == values["7_4"] == values["7_7"] == "9 + 18t"
    assert values["6_1"] == "27"
    elapsed = done("knot table")
    print(f"\nacceptance 2: PASS psi(3_1)=psi(7_4)=psi(7_7)=9+18t, psi(6_1)=27 ({elapsed:.2f}s)")


def test_criterion_3_torus_t2_family(r3, theta):
    done = _stopwatch(30.0)
    for n in range(1, 13):
        count = count_colorings(torus_diagram(2, n), r3)
        if n % 3 == 0:
            assert count > 3
        else:
            assert count == 3
    for k in range(1, 5):
        value = state_sum_shadow(torus_diagram(2, 3 * k), r3, theta)
        assert value == _psi(k), (k, value.render())
    elapsed = done("T(2,n) family")
    print(f"\nacceptance 3: PASS T(2,n) colorability and psi(T(2,3k))=9+18t^k ({elapsed:.2f}s)")


def test_criterion_4_torus_t3_family(r3, theta):
    done = _stopwatch(60.0)
    for k in (1, 2, 4, 5):
        value = state_sum_shadow(torus_diagram(3, 2 * k), r3, theta)
        assert value == _psi(k), (k, value.render())
    elapsed = done("T(3,2k) family")
    print(
        f"\nacceptance 4: PASS psi(T(3,2k))=9+18t^k for k in {{1,2,4,5}} ({elapsed:.2f}s); "
        "k=3 stated value 45 is unattainable (shadow count is 3x27=81) and is "
        "xfailed separately"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated value 45 is impossible: T(3,6) has 27 three-colorings, every "
        "coloring of a connected diagram extends to exactly |X| shadow "
        "colorings, so the augmentation is 81; the computed value is the "
        "constant 81"
    ),
)
def test_criterion_4_t36_stated_value(r3, theta):
    value = state_sum_shadow(torus_diagram(3, 6), r3, theta)
    print(f"\nacceptance 4 (k=3): FAIL stated 45, computed {value.render()}")
    assert value == GroupRingElement(3, (45, 0, 0))


def test_criterion_4_t36_computed_value(r3, theta):
    # Pin the actual engine output for the disputed case.
    value = state_sum_shadow(torus_diagram(3, 6), r3, theta)
    assert value == GroupRingElement(3, (81, 0, 0))
    assert count_colorings(torus_diagram(3, 6), r3) == 27


def test_criterion_5_chirality(r3, theta):
    done = _stopwatch(1.0)
    right = state_sum_shadow(torus_diagram(2, 3), r3, theta)
    left = state_sum_shadow(torus_diagram(2, -3), r3, theta)
    assert right != left
    assert left == right.conjugate()
    elapsed = done("chirality")
    print(f"\nacceptance 5: PASS psi(T(2,3))={right.render()} != psi(T(2,-3))={left.render()} ({elapsed:.2f}s)")


def test_criterion_6_theta_cocycle(r3, theta):
    done = _stopwatch(1.0)
    assert is_cocycle(r3, theta, "Q").ok
    assert not cohomology(r3, 3, "Q", 3).contains_coboundary(theta)
    elapsed = done("theta verification")
    print(f"\nacceptance 6: PASS theta is a cocycle and not a coboundary ({elapsed:.2f}s)")


def _acceptance_quandles():
    return {
        "R3": make_dihedral(3),
        "R4": make_dihedral(4),
        "R5": make_dihedral(5),
        "trivial:2": make_trivial(2),
        "trivial:3": make_trivial(3),
        "Z2[T]/(T^2+1)": make_alexander(2, [1, 0, 1], [0, 1]),
    }


def test_criterion_7_homology_structure():
    done = _stopwatch(120.0)
    for name, X in _acceptance_quandles().items():
        report = structure_report(X, 3)
        assert report.all_ok, (name, [c for c in report.checks if not c[1]])
        for theory in ("R", "D", "Q"):
            for n in (2, 3, 4):
                lo = boundary_matrix(X, n - 1, theory)
                hi = boundary_matrix(X, n, theory)
                assert composite_image(lo, hi) == {}, (name, theory, n)
    elapsed = done("homology structure")
    print(f"\nacceptance 7: PASS structure formulas and dd=0 for all six quandles ({elapsed:.2f}s)")


def test_criterion_8_uct():
    done = _stopwatch(60.0)
    for name, X in _acceptance_quandles().items():
        for theory in ("R", "D", "Q"):
            for n in (1, 2, 3):
                for p in (2, 3, 5):
                    assert homology_mod(X, n, theory, p) == uct_mod_dimension(
                        X, n, theory, p
                    ), (name, theory, n, p)
    elapsed = done("UCT")
    print(f"\nacceptance 8: PASS mod-p dimensions match the integral prediction ({elapsed:.2f}s)")


def test_criterion_9_r4_isomorphism():
    done = _stopwatch(1.0)
    R4 = make_dihedral(4)
    A = make_alexander(2, [1, 0, 1], [0, 1])
    iso = find_isomorphism(R4, A)
    assert iso is not None
    for a in range(4):
        for b in range(4):
            assert A.op(iso[a], iso[b]) == iso[R4.op(a, b)]
    elapsed = done("R4 isomorphism")
    print(f"\nacceptance 9: PASS R_4 = Z_2[T]/(T^2+1) via {iso} ({elapsed:.2f}s)")


def test_criterion_10_property_suites(small_diagrams, small_quandles, r3, r4, theta):
    done = _stopwatch(300.0)
    # (a) enumeration vs brute force for <= 6 crossings, |X| <= 4
    for D in small_diagrams.values():
        if len(D.crossings) > 6:
            continue
        for X in small_quandles.values():
            assert [c.colors for c in enumerate_colorings(D, X)] == sorted(
                brute_force_colorings(D, X)
            )
    # (b) augmentation equals the relevant coloring count everywhere
    zero2 = Cochain(2, 3, {})
    for D in small_diagrams.values():
        assert state_sum_2(D, r3, zero2).augmentation() == count_colorings(D, r3)
        assert state_sum_shadow(D, r3, theta).augmentation() == len(
            enumerate_shadow_colorings(D, r3)
        )
    sd = shadow_surface_data(small_diagrams["trefoil"])
    assert state_sum_surface(sd, r3, theta).augmentation() == len(
        enumerate_surface_colorings(sd, r3)
    )
    # (c) cohomologous cocycles agree for all three state sums
    mus = [Cochain(2, 3, {(0, 1): 1, (2, 0): 2}), Cochain(2, 3, {(1, 2): 1})]
    for mu in mus:
        shifted = theta + coboundary(r3, mu, "Q")
        for D in small_diagrams.values():
            assert state_sum_shadow(D, r3, shifted) == state_sum_shadow(D, r3, theta)
        assert state_sum_surface(sd, r3, shifted) == state_sum_surface(sd, r3, theta)
    for nu in [Cochain(1, 3, {(0,): 1}), Cochain(1, 3, {(1,): 2, (2,): 1})]:
        phi = coboundary(r3, nu, "Q")
        for D in small_diagrams.values():
            assert state_sum_2(D, r3, phi) == state_sum_2(D, r3, zero2)
    # (d) per-coloring lifting criterion, exhaustively on trefoil and fig8
    for name in ("trefoil", "fig8"):
        D = small_diagrams[name]
        for phi in cohomology(r3, 2, "Q", 3).cocycles():
            for rho in enumerate_colorings(D, r3):
                w = coloring_weight(D, r3, phi, rho)
                assert (w == 0) == bool(lift_coloring(D, r3, rho, 3, phi))
    # the obstruction side needs a quandle with nonvanishing H^2: R4 over Z_2
    spaces = cohomology(r4, 2, "Q", 2)
    phi = next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))
    D = torus_diagram(2, 4)
    outcomes = set()
    for rho in enumerate_colorings(D, r4):
        w = coloring_weight(D, r4, phi, rho)
        assert (w == 0) == bool(lift_coloring(D, r4, rho, 2, phi))
        outcomes.add(w == 0)
    assert outcomes == {True, False}
    elapsed = done("property suites")
    print(f"\nacceptance 10: PASS oracle, augmentation, cohomology and lifting suites ({elapsed:.2f}s)")


def test_criterion_11_surface_exclusion(r3, theta, trefoil):
    # Twist-spun values are excluded (no diagram data exists in scope); the
    # surface engine is accepted through the synthetic-data property suite.
    sd = shadow_surface_data(trefoil)
    assert len(sd.triple_points) >= 1
    assert state_sum_surface(sd, r3, theta) == state_sum_shadow(trefoil, r3, theta)
    print(
        "\nacceptance 11: PASS twist-spun values excluded by design; surface "
        "engine exercised on synthetic data with triple points"
    )
