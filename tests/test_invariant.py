from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    Cochain,
    Coloring,
    DomainError,
    GroupRingElement,
    NonCocycleError,
    braid_closure,
    coboundary,
    cohomology,
    count_colorings,
    enumerate_colorings,
    enumerate_shadow_colorings,
    enumerate_surface_colorings,
    lift_coloring,
    make_dihedral,
    mirror,
    parse_pd,
    parse_surface,
    per_coloring_weight,
    render,
    shadow_surface_data,
    ShadowColoring,
    state_sum_2,
    state_sum_shadow,
    state_sum_surface,
    SurfaceColoring,
    torus_diagram,
)
from quandlekit.diagram import parse_braid_word
from quandlekit.invariant import coloring_weight, shadow_weight, surface_weight
from quandlekit.specs import resolve_rack

from conftest import THETA_VALUES, brute_force_colorings, brute_force_shadows


# --- group ring ---------------------------------------------------------------


def test_render_examples():
    assert GroupRingElement(3, (9, 18, 0)).render() == "9 + 18t"
    assert GroupRingElement(3, (27, 0, 0)).render() == "27"
    assert GroupRingElement(3, (0, 0, 0)).render() == "0"
    assert GroupRingElement(3, (0, 1, 0)).render() == "t"
    assert GroupRingElement(3, (3, 0, 2)).render() == "3 + 2t^2"
    assert GroupRingElement(3, (1, -1, 0)).render() == "1 - t"
    assert render(GroupRingElement(2, (0, 5))) == "5t"


def test_group_ring_arithmetic():
    a = GroupRingElement.monomial(3, 1)
    b = GroupRingElement.monomial(3, 4, 2)  # power reduces mod 3
    assert (a + b).coeffs == (0, 3, 0)
    assert (a + b).augmentation() == 3
    assert GroupRingElement.zero(3).coeffs == (0, 0, 0)
    conj = GroupRingElement(3, (9, 18, 0)).conjugate()
    assert conj.coeffs == (9, 0, 18)
    assert GroupRingElement(3, (5, 0, 0)).is_constant()
    with pytest.raises(DomainError):
        a + GroupRingElement.zero(4)
    with pytest.raises(DomainError):
        GroupRingElement(3, (1, 2))


# --- two-cocycle state sums ------------------------------------------------------


def test_trivial_cocycle_counts_colorings(trefoil, r3):
    phi = Cochain(2, 3, {})
    value = state_sum_2(trefoil, r3, phi)
    assert value.render() == "9"
    assert value.augmentation() == count_colorings(trefoil, r3)


def test_any_r3_two_cocycle_is_constant(trefoil, fig8, r3):
    # H^2_Q(R3; Z_3) vanishes, so every 2-cocycle acts like the trivial one
    spaces = cohomology(r3, 2, "Q", 3)
    assert spaces.cocycle_dimension == spaces.coboundary_dimension
    for phi in spaces.cocycles():
        for D in (trefoil, fig8):
            value = state_sum_2(D, r3, phi)
            assert value.is_constant()
            assert value.augmentation() == count_colorings(D, r3)


def test_state_sum_rejects_non_cocycle(trefoil, r3):
    bad = Cochain(2, 3, {(0, 1): 1})
    with pytest.raises(NonCocycleError):
        state_sum_2(trefoil, r3, bad)
    unsafe = state_sum_2(trefoil, r3, bad, check=False)
    assert unsafe.augmentation() == 9


def test_state_sum_degree_validation(trefoil, r3, theta):
    with pytest.raises(DomainError):
        state_sum_2(trefoil, r3, theta)
    with pytest.raises(DomainError):
        state_sum_shadow(trefoil, r3, Cochain(2, 3, {}))


# --- shadow state sums -------------------------------------------------------------


def test_table_values(knot_table, r3, theta):
    assert state_sum_shadow(knot_table["trefoil"], r3, theta).render() == "9 + 18t"
    assert state_sum_shadow(knot_table["7_4"], r3, theta).render() == "9 + 18t"
    assert state_sum_shadow(knot_table["7_7"], r3, theta).render() == "9 + 18t"
    assert state_sum_shadow(knot_table["6_1"], r3, theta).render() == "27"
    assert state_sum_shadow(knot_table["fig8"], r3, theta).render() == "9"
    assert state_sum_shadow(knot_table["unknot"], r3, theta).render() == "9"


def test_three_trefoil_encodings_agree(trefoil, r3, theta):
    a = state_sum_shadow(trefoil, r3, theta)
    b = state_sum_shadow(braid_closure(parse_braid_word(2, "1 1 1")), r3, theta)
    c = state_sum_shadow(braid_closure(parse_braid_word(3, "1 2 1 2")), r3, theta)
    assert a == b == c
    assert state_sum_shadow(torus_diagram(2, 3), r3, theta) == a
    assert state_sum_shadow(torus_diagram(3, 2), r3, theta) == a


def test_chirality(r3, theta):
    left = state_sum_shadow(torus_diagram(2, -3), r3, theta)
    right = state_sum_shadow(torus_diagram(2, 3), r3, theta)
    assert left != right
    assert left == right.conjugate()


def test_mirror_conjugates_shadow_sums(small_diagrams, r3, theta):
    for D in small_diagrams.values():
        value = state_sum_shadow(D, r3, theta)
        assert state_sum_shadow(mirror(D), r3, theta) == value.conjugate()


def test_cohomologous_cocycles_agree(small_diagrams, r3, theta):
    mus = [
        Cochain(2, 3, {(0, 1): 1}),
        Cochain(2, 3, {(1, 2): 2, (2, 0): 1}),
        Cochain(2, 3, {(0, 2): 1, (2, 1): 1, (1, 0): 2}),
    ]
    for mu in mus:
        shifted = theta + coboundary(r3, mu, "Q")
        for D in small_diagrams.values():
            assert state_sum_shadow(D, r3, shifted) == state_sum_shadow(D, r3, theta)


def test_augmentation_counts_shadows(small_diagrams, r3, theta):
    for D in small_diagrams.values():
        value = state_sum_shadow(D, r3, theta)
        assert value.augmentation() == len(enumerate_shadow_colorings(D, r3))


# --- per-coloring weights -------------------------------------------------------------


def test_constant_shadow_weights_vanish(trefoil, r3, theta):
    for s in enumerate_shadow_colorings(trefoil, r3):
        if len(set(s.colors)) == 1:
            assert shadow_weight(trefoil, r3, theta, s) == 0


def test_trivial_cocycle_weights_vanish(trefoil, r3):
    phi = Cochain(2, 3, {})
    for rho in enumerate_colorings(trefoil, r3):
        assert coloring_weight(trefoil, r3, phi, rho) == 0


def test_weights_reassemble_state_sum(trefoil, r3, theta):
    coeffs = [0, 0, 0]
    for s in enumerate_shadow_colorings(trefoil, r3):
        coeffs[per_coloring_weight(trefoil, r3, theta, s)] += 1
    assert GroupRingElement(3, tuple(coeffs)) == state_sum_shadow(trefoil, r3, theta)


def test_per_coloring_weight_dispatch(trefoil, r3, theta):
    s = enumerate_shadow_colorings(trefoil, r3)[0]
    assert per_coloring_weight(trefoil, r3, theta, s) == shadow_weight(
        trefoil, r3, theta, s
    )
    with pytest.raises(DomainError):
        per_coloring_weight(trefoil, r3, theta, "nonsense")


# --- surface state sums -----------------------------------------------------------------


def test_sphere_surface_sum(r3, theta):
    sphere = parse_surface("surface\nsheets 1\n")
    assert state_sum_surface(sphere, r3, theta).render() == "3"


def test_shadow_surface_data_reproduces_shadow_sum(knot_table, r3, theta):
    for name in ("trefoil", "6_1", "7_4"):
        D = knot_table[name]
        sd = shadow_surface_data(D)
        assert len(sd.triple_points) >= 1
        assert state_sum_surface(sd, r3, theta) == state_sum_shadow(D, r3, theta)


def test_surface_trivial_cocycle_counts(r3, trefoil):
    sd = shadow_surface_data(trefoil)
    value = state_sum_surface(sd, r3, Cochain(3, 3, {}))
    assert value.augmentation() == len(enumerate_surface_colorings(sd, r3))
    assert value.is_constant()


def test_surface_cohomologous_invariance(trefoil, r3, theta):
    sd = shadow_surface_data(trefoil)
    mu = Cochain(2, 3, {(0, 1): 2, (1, 0): 1})
    shifted = theta + coboundary(r3, mu, "Q")
    assert state_sum_surface(sd, r3, shifted) == state_sum_surface(sd, r3, theta)


def test_surface_weight_accumulates(trefoil, r3, theta):
    sd = shadow_surface_data(trefoil)
    coeffs = [0, 0, 0]
    for rho in enumerate_surface_colorings(sd, r3):
        coeffs[surface_weight(sd, theta, rho)] += 1
    assert GroupRingElement(3, tuple(coeffs)) == state_sum_surface(sd, r3, theta)


# --- extension obstruction ------------------------------------------------------------------


def test_lift_criterion_exhaustive_r3(trefoil, fig8, r3):
    # every 2-cocycle on R3 over Z_3 is a coboundary, so nothing obstructs
    spaces = cohomology(r3, 2, "Q", 3)
    for phi in spaces.cocycles():
        for D in (trefoil, fig8):
            for rho in enumerate_colorings(D, r3):
                w = coloring_weight(D, r3, phi, rho)
                lifts = lift_coloring(D, r3, rho, 3, phi)
                assert (w == 0) == bool(lifts)
                assert w == 0


def test_lift_criterion_with_obstruction(r4):
    # R4 carries a non-trivial Z_2 class; T(2,4) has obstructed colorings
    spaces = cohomology(r4, 2, "Q", 2)
    phi = next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))
    D = torus_diagram(2, 4)
    seen = {True: 0, False: 0}
    for rho in enumerate_colorings(D, r4):
        w = coloring_weight(D, r4, phi, rho)
        lifts = lift_coloring(D, r4, rho, 2, phi)
        assert (w == 0) == bool(lifts)
        seen[w == 0] += 1
    assert seen[True] > 0 and seen[False] > 0
    assert not state_sum_2(D, r4, phi).is_constant()


# --- property: random coboundary shifts never change the trefoil value ----------------------


@settings(max_examples=25, deadline=None)
@given(entries=st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 2),
    max_size=6,
))
def test_shadow_sum_invariant_under_random_coboundaries(entries):
    r3 = make_dihedral(3)
    theta = Cochain(3, 3, {
        (0, 1, 2): 1, (0, 2, 1): 1, (1, 0, 1): 1,
        (2, 0, 1): 1, (2, 0, 2): 1, (1, 0, 2): 1,
    })
    D = torus_diagram(2, 3)
    mu = Cochain(2, 3, {k: v for k, v in entries.items() if k[0] != k[1]})
    shifted = theta + coboundary(r3, mu, "Q")
    assert state_sum_shadow(D, r3, shifted) == state_sum_shadow(D, r3, theta)


def test_two_cocycle_sum_reidemeister_robust(trefoil, r3, r4):
    encodings = [
        trefoil,
        braid_closure(parse_braid_word(2, "1 1 1")),
        braid_closure(parse_braid_word(3, "1 2 1 2")),
    ]
    # mirror the extra encodings if their writhe differs in sign from the file
    phi3 = coboundary(r3, Cochain(1, 3, {(1,): 1}), "Q")
    spaces = cohomology(r4, 2, "Q", 2)
    phi4 = next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))
    for X, phi in ((r3, phi3), (r4, phi4)):
        values = {state_sum_2(D, X, phi) for D in encodings}
        counts = {count_colorings(D, X) for D in encodings}
        assert len(values) == 1
        assert len(counts) == 1


# --- differential: streamed folds against per-coloring weights over brute force -------


def _histogram(d, weights):
    coeffs = [0] * d
    for w in weights:
        coeffs[w] += 1
    return GroupRingElement(d, tuple(coeffs))


@lru_cache(maxsize=None)
def _cocycle_pairs():
    """(quandle, cocycle) pairs: R3 with theta, R5 and S4 with non-coboundaries."""

    def nontrivial(X, n, d):
        spaces = cohomology(X, n, "Q", d)
        return next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))

    r5 = make_dihedral(5)
    s4 = resolve_rack("alexander:2:1,1,1:0,1")
    return (
        (make_dihedral(3), Cochain(3, 3, THETA_VALUES)),
        (r5, nontrivial(r5, 3, 5)),
        (s4, nontrivial(s4, 2, 2)),
    )


def _assert_sums_match_oracle(D, X, cochain, check=True):
    """The state sums of D equal histograms of the reference weights."""
    d = cochain.modulus
    if cochain.degree == 2:
        weights = [coloring_weight(D, X, cochain, Coloring(c)) for c in brute_force_colorings(D, X)]
        assert state_sum_2(D, X, cochain, check=check) == _histogram(d, weights)
        return
    shadows = brute_force_shadows(D, X)
    weights = [shadow_weight(D, X, cochain, ShadowColoring(c, r)) for c, r in shadows]
    assert state_sum_shadow(D, X, cochain, check=check) == _histogram(d, weights)
    # Sheets of the shadow surface data are the arcs, then the regions.
    sd = shadow_surface_data(D)
    weights = [surface_weight(sd, cochain, SurfaceColoring(c + r)) for c, r in shadows]
    assert state_sum_surface(sd, X, cochain, check=check) == _histogram(d, weights)


def test_state_sums_match_brute_force_oracle(small_diagrams):
    for name, D in small_diagrams.items():
        for E in (D, mirror(D)):
            for X, cochain in _cocycle_pairs():
                _assert_sums_match_oracle(E, X, cochain)


@settings(max_examples=25, deadline=None)
@given(word=st.lists(st.sampled_from([1, -1, 2, -2]), min_size=2, max_size=6).filter(
    lambda w: {abs(x) for x in w} == {1, 2}
))
def test_state_sums_match_oracle_on_random_braids(word):
    D = braid_closure(parse_braid_word(3, " ".join(map(str, word))))
    for X, cochain in _cocycle_pairs():
        _assert_sums_match_oracle(D, X, cochain)


def test_non_cocycle_sums_match_oracle_unchecked(small_diagrams):
    r3 = make_dihedral(3)
    # Not cocycles; the tuples outside R3 never weigh a coloring.
    bad3 = Cochain(3, 3, {(0, 1, 2): 1, (1, 1, 0): 2, (2, 7, 1): 1, (-1, 0, 1): 2})
    bad2 = Cochain(2, 3, {(0, 1): 1, (2, 2): 1, (0, -2): 1})
    for cochain in (bad3, bad2):
        for D in small_diagrams.values():
            with pytest.raises(NonCocycleError):
                _assert_sums_match_oracle(D, r3, cochain)
            _assert_sums_match_oracle(D, r3, cochain, check=False)
