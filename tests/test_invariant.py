from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from quandlekit import (
    BraidWord,
    Cochain,
    Coloring,
    DomainError,
    GroupRingElement,
    NonCocycleError,
    abelian_extension,
    braid_closure,
    coboundary,
    cohomology,
    count_colorings,
    enumerate_colorings,
    enumerate_shadow_colorings,
    enumerate_surface_colorings,
    is_cocycle,
    lift_coloring,
    make_dihedral,
    make_trivial,
    mirror,
    parse_pd,
    parse_surface,
    shadow_surface_data,
    ShadowColoring,
    state_sum_2,
    state_sum_shadow,
    state_sum_surface,
    SurfaceColoring,
    torus_diagram,
)
from quandlekit.coloring import _closure_histogram
from quandlekit.diagram import parse_braid_word, torus_braid
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
    assert GroupRingElement(2, (0, 5)).render() == "5t"


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
        coeffs[shadow_weight(trefoil, r3, theta, s)] += 1
    assert GroupRingElement(3, tuple(coeffs)) == state_sum_shadow(trefoil, r3, theta)


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


def test_extension_colorings_count_the_weight_zero_colorings(knot_table, monkeypatch):
    # A coloring of a knot lifts to E = Z_d x_phi X exactly when its weight is
    # 0, and then in d ways, so |Col_E(K)| = d [t^0] Phi_phi(K) (Carter,
    # Elhamdadi, Nikiforou and Saito, JKTR 12, 2003).  One-component closures
    # only: a link needs one count per component.
    from quandlekit import algebra

    checked = []
    check_axioms = algebra.check_axioms
    monkeypatch.setattr(algebra, "check_axioms",
                        lambda table: checked.append(len(table)) or check_axioms(table))
    knots = [knot_table[name] for name in ("trefoil", "fig8", "7_4")]
    knots += [torus_diagram(p, q) for p, q in ((2, 5), (3, 4), (3, 5))]
    obstructed = 0
    for spec, d in (("alexander:2:1,1,1:0,1", 2), ("dihedral:4", 2),
                    ("alexander:3:1,0,1:2", 3), ("dihedral:6", 3)):
        X = resolve_rack(spec)
        spaces = cohomology(X, 2, "Q", d)
        phi = next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))
        E = abelian_extension(X, d, phi)
        assert E.is_quandle, spec
        for K in knots:
            hist = state_sum_2(K, X, phi).coeffs
            assert count_colorings(K, E) == d * hist[0], (spec, K.name)
            obstructed += any(hist[1:])
    # S4's class obstructs lifts of the trefoil's and figure-eight's colorings.
    # R6's mod-3 class obstructs none, but a fold reading phi(over, under)
    # would give T(3,4) [t^0] = 12, not 54 / 3, so the order of phi's
    # arguments is pinned too.
    assert obstructed == 2
    # Only the extensions pay the full axiom check; the builtins are affine.
    assert checked == [8, 8, 27, 18]


# --- Markov moves: conjugate and stabilized braids close to one link -------------------------


_LETTER = st.tuples(st.integers(1, 3), st.sampled_from((1, -1)))


@st.composite
def _nonsplit_braids(draw):
    """A braid word on 2-4 strands, at most 10 letters, every generator in it."""
    s = draw(st.integers(2, 4))
    letters = [(i, draw(st.sampled_from((1, -1)))) for i in range(1, s)]
    letters += [(min(i, s - 1), e) for i, e in draw(st.lists(_LETTER, max_size=11 - s))]
    return BraidWord(s, tuple(draw(st.permutations(letters))))


def _link_invariants(word):
    """R3 and S4 counts, the S4 2-cocycle sum mod 2 and the R3 theta shadow sum."""
    (r3, theta), _, (s4, phi) = _cocycle_pairs()
    return (count_colorings(word, r3), count_colorings(word, s4),
            state_sum_2(word, s4, phi), state_sum_shadow(word, r3, theta))


@settings(max_examples=100, deadline=None)
@given(word=_nonsplit_braids(), g=_LETTER, turn=st.integers(0, 9), e=st.sampled_from((1, -1)))
# Stabilized, T(2,9) leaves the engine for the shadow sum and S4, and a
# nine-letter word on three strands leaves it for R3.
@example(word=BraidWord(2, ((1, 1),) * 9), g=(1, 1), turn=0, e=1)
@example(word=BraidWord(3, ((1, 1), (2, -1)) * 4 + ((1, 1),)), g=(2, -1), turn=3, e=-1)
def test_markov_moves_keep_counts_and_sums(word, g, turn, e):
    """Counts and cocycle sums are link invariants, so Markov's moves keep them.

    Conjugation by a letter, cyclic rotation and stabilization (w on s
    strands -> w s_s^(+-1) on s + 1) close up to the same link.
    Stabilization raises the engine's state count |X|^s by a factor |X| and
    the closure's crossings by one, so it moves words across the path rule
    of coloring._histogram.
    """
    s, letters = word.strands, word.letters
    g = (min(g[0], s - 1), g[1])
    turn %= len(letters)
    want = _link_invariants(word)
    for moved in (BraidWord(s, (g,) + letters + ((g[0], -g[1]),)),
                  BraidWord(s, letters[turn:] + letters[:turn]),
                  BraidWord(s + 1, letters + ((s, e),))):
        assert _link_invariants(moved) == want, (word, moved)


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


# --- orbit reduction: checked sums read one fiber per orbit, unchecked sums all ---------


@lru_cache(maxsize=None)
def _orbit_cocycle_pairs():
    """(quandle, cocycle) pairs beyond _cocycle_pairs, with several orbits too.

    A9 takes a non-coboundary 2-cocycle and the pullback of theta along the
    homomorphism i -> i mod 3 onto R3; R4 (orbits {0, 2}, {1, 3}) takes
    non-coboundaries of degrees 2 and 3; on trivial:3 every cochain that
    vanishes on degenerate tuples is a cocycle.
    """

    def nontrivial(X, n, d):
        spaces = cohomology(X, n, "Q", d)
        return next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))

    a9 = resolve_rack("alexander:3:1,0,1:2")
    pullback = Cochain(3, 3, {
        (x, u, o): THETA_VALUES.get((x % 3, u % 3, o % 3), 0)
        for x in range(9) for u in range(9) for o in range(9)
    })
    r4 = make_dihedral(4)
    t3 = make_trivial(3)
    return (
        (a9, nontrivial(a9, 2, 3)),
        (a9, pullback),
        (r4, nontrivial(r4, 2, 2)),
        (r4, nontrivial(r4, 3, 2)),
        (t3, Cochain(2, 3, {(0, 1): 1, (1, 2): 2, (2, 0): 1})),
        (t3, Cochain(3, 3, {(0, 1, 0): 1, (1, 2, 0): 2, (2, 1, 2): 1})),
    )


def test_checked_sums_match_full_search_and_oracle(small_diagrams):
    """The orbit-reduced checked sums equal the full search and brute force."""
    pairs = _cocycle_pairs() + _orbit_cocycle_pairs()
    for name, D in small_diagrams.items():
        if len(D.crossings) > 4:
            continue
        for X, cochain in pairs:
            assert is_cocycle(X, cochain, "Q"), (X.label, cochain.degree)
            _assert_sums_match_oracle(D, X, cochain)
            state_sum = state_sum_2 if cochain.degree == 2 else state_sum_shadow
            assert state_sum(D, X, cochain) == state_sum(D, X, cochain, check=False), name


def test_unchecked_sums_weigh_every_fiber(r3):
    # A non-cocycle's weight is not constant on the orbits: on T(3,2) with R3,
    # the fiber of arc 0 colored 0, times |X|, gives 6 + 3t and 24 + 3t where
    # the true sums are 5 + 4t and 23 + 4t.  So check=False must search all.
    D = torus_diagram(3, 2)
    phi = Cochain(2, 3, {(2, 1): 1})
    theta = Cochain(3, 3, {(1, 0, 2): 1})
    colorings = [Coloring(c) for c in brute_force_colorings(D, r3)]
    shadows = [ShadowColoring(c, r) for c, r in brute_force_shadows(D, r3)]
    cases = (
        (state_sum_2, phi, colorings, coloring_weight, (5, 4, 0), (6, 3, 0)),
        (state_sum_shadow, theta, shadows, shadow_weight, (23, 4, 0), (24, 3, 0)),
    )
    for state_sum, cochain, found, weigh, full, one_fiber in cases:
        assert not is_cocycle(r3, cochain, "Q")
        weights = [weigh(D, r3, cochain, c) for c in found]
        assert _histogram(3, weights).coeffs == full
        fiber = [w for w, c in zip(weights, found) if c.colors[0] == 0]
        assert _histogram(3, fiber * 3).coeffs == one_fiber
        assert state_sum(D, r3, cochain, check=False).coeffs == full


def _mochizuki(p):
    """Mochizuki's 3-cocycle of R_p (JPAA 179, 2003).

    theta_p(x, y, z) = (x - y) ((2z - y)^p + y^p - 2z^p) / p mod p; the
    numerator is divisible by p by Fermat's little theorem.
    """
    values = {}
    for x in range(p):
        for y in range(p):
            for z in range(p):
                v = (x - y) * (((2 * z - y) ** p + y ** p - 2 * z ** p) // p) % p
                if v:
                    values[(x, y, z)] = v
    return Cochain(3, p, values)


def test_mochizuki_cocycle_published_values(trefoil):
    r3, r5 = make_dihedral(3), make_dihedral(5)
    theta3, theta5 = _mochizuki(3), _mochizuki(5)
    assert is_cocycle(r3, theta3, "Q")
    assert is_cocycle(r5, theta5, "Q")
    assert state_sum_shadow(torus_diagram(2, 5), r5, theta5).render() == "25 + 50t + 50t^4"
    assert state_sum_shadow(trefoil, r3, theta3).render() == "9 + 18t^2"
    # The same value as fixed points of the braid action of s1^5.
    hist = _closure_histogram(torus_braid(2, 5), r5, theta5)
    assert GroupRingElement(5, tuple(hist)).render() == "25 + 50t + 50t^4"
