import pytest

from quandlekit import (
    Cochain,
    DomainError,
    NonCocycleError,
    SurfaceDiagramData,
    braid_closure,
    coboundary,
    count_colorings,
    enumerate_colorings,
    enumerate_shadow_colorings,
    enumerate_surface_colorings,
    lift_coloring,
    make_dihedral,
    make_trivial,
    parse_pd,
    parse_surface,
    torus_diagram,
)
from quandlekit.algebra import RackTable
from quandlekit.diagram import BraidWord

from conftest import brute_force_colorings, brute_force_shadows


def test_trefoil_colorings(trefoil, r3):
    cols = enumerate_colorings(trefoil, r3)
    assert len(cols) == 9
    assert sum(1 for c in cols if c.is_constant()) == 3
    assert sum(1 for c in cols if c.is_surjective_onto(r3)) == 6


def test_trivial_quandle_counts(small_diagrams):
    for D in small_diagrams.values():
        for n in (2, 3):
            T = make_trivial(n)
            assert count_colorings(D, T) == n ** len(D.components)


def test_figure_eight_colorings(fig8, r3):
    assert count_colorings(fig8, r3) == 3


def test_torus_counts(r3):
    assert count_colorings(torus_diagram(2, 4), r3) == 3
    assert count_colorings(torus_diagram(2, 6), r3) == 9
    assert count_colorings(parse_pd(""), r3) == 3


def test_count_matches_enumerate(small_diagrams, small_quandles):
    for D in small_diagrams.values():
        for X in small_quandles.values():
            assert count_colorings(D, X) == len(enumerate_colorings(D, X))


def test_deterministic_lexicographic_order(trefoil, r3):
    cols = [c.colors for c in enumerate_colorings(trefoil, r3)]
    assert cols == sorted(cols)


def test_enumeration_matches_brute_force(small_diagrams, small_quandles):
    for dn, D in small_diagrams.items():
        if len(D.crossings) > 6:
            continue
        for qn, X in small_quandles.items():
            expected = brute_force_colorings(D, X)
            got = [c.colors for c in enumerate_colorings(D, X)]
            assert got == sorted(expected), (dn, qn)


def test_rack_colorings_are_framed_data():
    # x*y = x+1 is a rack but not a quandle; a kinked unknot has no colorings
    cyc = RackTable(3, tuple(tuple((a + 1) % 3 for _ in range(3)) for a in range(3)))
    assert cyc.rack_class == "rack"
    kink = braid_closure(BraidWord(2, ((1, 1),)))
    assert count_colorings(kink, cyc) == 0
    assert count_colorings(parse_pd(""), cyc) == 3
    with pytest.raises(DomainError):
        enumerate_shadow_colorings(kink, cyc)


def test_not_a_rack_rejected(trefoil):
    bad = RackTable(2, ((0, 0), (0, 1)))
    with pytest.raises(DomainError):
        enumerate_colorings(trefoil, bad)


# --- shadow colorings ----------------------------------------------------------


def test_unknot_shadow_colorings(r3):
    assert len(enumerate_shadow_colorings(parse_pd(""), r3)) == 9


def test_table_shadow_counts(knot_table, r3):
    assert len(enumerate_shadow_colorings(knot_table["trefoil"], r3)) == 27
    assert len(enumerate_shadow_colorings(knot_table["6_1"], r3)) == 27


def test_shadow_extension_count(small_diagrams, r3):
    # every coloring of a connected diagram extends |X| ways
    for D in small_diagrams.values():
        assert len(enumerate_shadow_colorings(D, r3)) == 3 * count_colorings(D, r3)


def test_shadow_matches_brute_force(small_diagrams, r3):
    for name, D in small_diagrams.items():
        if len(D.crossings) > 4:
            continue
        expected = brute_force_shadows(D, r3)
        got = [(s.colors, s.region_colors) for s in enumerate_shadow_colorings(D, r3)]
        assert sorted(got) == sorted(expected), name


def test_shadow_colorings_satisfy_face_condition(trefoil, r3):
    for s in enumerate_shadow_colorings(trefoil, r3):
        for src, dst, arc in trefoil.face_transitions():
            assert r3.op(s.region_colors[src], s.colors[arc]) == s.region_colors[dst]


# --- surface colorings ------------------------------------------------------------


def test_surface_coloring_examples(r3):
    sphere = parse_surface("surface\nsheets 1\n")
    assert len(enumerate_surface_colorings(sphere, r3)) == 3
    chain = parse_surface("surface\nsheets 3\ndc 1 3 2\n")
    cols = enumerate_surface_colorings(chain, r3)
    assert len(cols) == 9
    for c in cols:
        assert r3.op(c.colors[0], c.colors[1]) == c.colors[2]


def test_surface_trivial_quandle_components():
    # relations degenerate to equalities, so count = n^(connected classes)
    data = parse_surface("surface\nsheets 4\ndc 1 2 3\ndc 2 1 4\n")
    T3 = make_trivial(3)
    assert len(enumerate_surface_colorings(data, T3)) == 27  # {1,2} fused, 3, 4


def test_search_depth_is_not_bounded_by_recursion():
    # one branch point per free sheet, far beyond the interpreter's recursion limit
    cols = enumerate_surface_colorings(SurfaceDiagramData(3000, (), ()), make_trivial(1))
    assert [c.colors for c in cols] == [(0,) * 3000]


# --- lifting to extensions ----------------------------------------------------------


def test_lift_with_trivial_cocycle(trefoil, r3):
    phi = Cochain(2, 3, {})
    for rho in enumerate_colorings(trefoil, r3):
        lifts = lift_coloring(trefoil, r3, rho, 3, phi)
        assert len(lifts) == 3
        for lift in lifts:
            assert [c % 3 for c in lift.colors] == list(rho.colors)


def test_lift_rejects_non_cocycle(trefoil, r3):
    bad = Cochain(2, 3, {(0, 1): 1})
    with pytest.raises(NonCocycleError):
        lift_coloring(trefoil, r3, enumerate_colorings(trefoil, r3)[0], 3, bad)


def test_lift_matches_extension_colorings(trefoil, r3):
    # lifting rho for every rho reproduces the colorings by the extension
    from quandlekit import abelian_extension

    mu = Cochain(1, 3, {(0,): 1, (2,): 2})
    phi = coboundary(r3, mu, "Q")
    E = abelian_extension(r3, 3, phi)
    direct = {c.colors for c in enumerate_colorings(trefoil, E)}
    via_lifts = set()
    for rho in enumerate_colorings(trefoil, r3):
        for lift in lift_coloring(trefoil, r3, rho, 3, phi):
            via_lifts.add(lift.colors)
    assert direct == via_lifts


def test_torus_t3_colorability(r3):
    # T(3, n) is nontrivially 3-colorable exactly for even n
    for n in range(2, 8):
        count = count_colorings(torus_diagram(3, n), r3)
        if n % 2 == 0:
            assert count > 3, n
        else:
            assert count == 3, n
