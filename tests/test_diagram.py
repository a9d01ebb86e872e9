import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    BraidWord,
    DomainError,
    NonplanarError,
    ParseError,
    braid_closure,
    count_colorings,
    make_dihedral,
    make_trivial,
    mirror,
    parse_pd,
    parse_surface,
    presentation,
    regions,
    reverse,
    shadow_surface_data,
    torus_diagram,
)
from quandlekit.coloring import enumerate_surface_colorings
from quandlekit.diagram import Crossing, format_pd, format_surface, parse_braid_word

TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8_PD = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


# --- PD parsing ----------------------------------------------------------------


def test_parse_trefoil():
    D = parse_pd(TREFOIL_PD)
    assert len(D.crossings) == 3
    assert D.n_arcs == 3
    assert D.n_faces == 5
    assert len(D.components) == 1


def test_parse_figure_eight():
    D = parse_pd(FIG8_PD)
    assert len(D.crossings) == 4
    assert D.n_arcs == 4
    assert D.n_faces == 6


def test_parse_duplicate_incidence():
    with pytest.raises(ParseError, match="duplicate incidence"):
        parse_pd("X(1,1,2,2)")


def test_parse_label_errors():
    with pytest.raises(ParseError, match="appears"):
        parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,1)")
    with pytest.raises(ParseError, match="gaps"):
        parse_pd("X(1,4,2,7) X(3,7,4,1) X(0,2,0,3)".replace("0", "9"))
    with pytest.raises(ParseError, match="under-strand"):
        parse_pd("X(2,4,1,5) X(3,6,4,1) X(5,1,6,3)".replace("X(5,1,6,3)", "X(5,2,6,3)"))
    with pytest.raises(ParseError):
        parse_pd("X(1,2,3) stray")


def test_parse_nonplanar_rejected():
    # a quad soup that is label-consistent but has no planar face structure
    bad = "X(1,4,2,5) X(3,8,4,9) X(5,12,6,13) X(7,14,8,1) X(9,2,10,3) X(11,6,12,7) X(13,10,14,11)"
    with pytest.raises(NonplanarError):
        parse_pd(bad)


def test_parse_empty_is_unknot():
    D = parse_pd("pd\n# nothing else\n")
    assert len(D.crossings) == 0
    assert D.n_arcs == 1
    assert D.n_faces == 2


def test_euler_formula_on_parsed_diagrams():
    for text in (TREFOIL_PD, FIG8_PD):
        D = parse_pd(text)
        assert D.n_faces == 2 - len(D.crossings) + D.n_edges


# --- braids ---------------------------------------------------------------------


def test_braid_closure_trefoil(r3):
    D = braid_closure(parse_braid_word(2, "1 1 1"))
    assert count_colorings(D, r3) == 9


def test_braid_closure_unknot(r3):
    D = braid_closure(parse_braid_word(2, "1"))
    assert len(D.crossings) == 1
    assert count_colorings(D, r3) == 3


def test_braid_closure_equivalent_trefoils(r3):
    a = braid_closure(parse_braid_word(2, "1 1 1"))
    b = braid_closure(parse_braid_word(3, "1 2 1 2"))
    assert count_colorings(a, r3) == count_colorings(b, r3) == 9


def test_braid_closure_idle_strand():
    with pytest.raises(DomainError, match="split"):
        braid_closure(BraidWord(3, ((1, 1), (1, 1))))
    with pytest.raises(DomainError, match="split"):
        braid_closure(BraidWord(2, ()))
    assert braid_closure(BraidWord(1, ())).n_arcs == 1


def test_braid_word_validation():
    with pytest.raises(DomainError):
        BraidWord(2, ((2, 1),))
    with pytest.raises(DomainError):
        BraidWord(0, ())
    with pytest.raises(ParseError):
        parse_braid_word(2, "1 0 1")
    with pytest.raises(ParseError):
        parse_braid_word(2, "1 x")


def test_torus_diagrams(r3):
    assert count_colorings(torus_diagram(2, 3), r3) == 9
    t = torus_diagram(2, -3)
    assert t.writhe() == -3
    assert count_colorings(t, r3) == 9
    assert len(torus_diagram(3, 6).components) == 3
    with pytest.raises(DomainError):
        torus_diagram(4, 3)
    with pytest.raises(DomainError):
        torus_diagram(2, 0)


def test_crossing_sign_must_match_the_quad():
    # +1 exactly when the over-edge enters at quad[3]
    assert Crossing((0, 1, 2, 3), 3, 1).sign == 1
    assert Crossing((0, 1, 2, 3), 1, -1).sign == -1
    for over_in, sign in ((3, -1), (1, 1), (3, 0)):
        with pytest.raises(ParseError, match="contradicts the quad"):
            Crossing((0, 1, 2, 3), over_in, sign)


def test_braid_signs():
    pos = braid_closure(parse_braid_word(2, "1 1 1"))
    assert all(c.sign == 1 for c in pos.crossings)
    neg = braid_closure(parse_braid_word(2, "-1 -1 -1"))
    assert all(c.sign == -1 for c in neg.crossings)


@settings(max_examples=60, deadline=None)
@given(
    strands=st.integers(2, 4),
    raw=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), min_size=1, max_size=8),
)
def test_braid_closure_properties(strands, raw):
    letters = tuple((min(i, strands - 1), e) for i, e in raw)
    parent = list(range(strands + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, _ in letters:
        ra, rb = find(i), find(i + 1)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    if len({find(p) for p in range(1, strands + 1)}) != 1:
        with pytest.raises(DomainError):
            braid_closure(BraidWord(strands, letters))
        return
    D = braid_closure(BraidWord(strands, letters))
    assert D.n_faces == 2 - len(D.crossings) + D.n_edges
    assert D.writhe() == sum(e for _, e in letters)
    # colorings by a trivial quandle only see the component structure
    T3 = make_trivial(3)
    assert count_colorings(D, T3) == 3 ** len(D.components)


# --- mirror / reverse --------------------------------------------------------------


def test_mirror_involution(trefoil):
    assert mirror(mirror(trefoil)).crossings == trefoil.crossings
    assert reverse(reverse(trefoil)).crossings == trefoil.crossings


def test_mirror_and_reverse_signs(small_diagrams):
    for D in small_diagrams.values():
        assert [c.sign for c in mirror(D).crossings] == [-c.sign for c in D.crossings]
        assert [c.sign for c in reverse(D).crossings] == [c.sign for c in D.crossings]


def test_reverse_mirror_preserves_colorings(small_diagrams, small_quandles):
    from quandlekit.algebra import make_conjugation, symmetric_group_table

    quandles = dict(small_quandles)
    quandles["conj-S3"] = make_conjugation(symmetric_group_table(3), 1)
    for D in small_diagrams.values():
        for X in quandles.values():
            assert count_colorings(D, X) == count_colorings(reverse(mirror(D)), X)


def test_mirror_preserves_kei_colorings(r3, trefoil):
    assert count_colorings(mirror(trefoil), r3) == 9


# --- presentations ------------------------------------------------------------------


def test_trefoil_presentation():
    D = parse_pd(TREFOIL_PD)
    pres = presentation(D)
    assert len(pres.generators) == 3
    assert len(pres.relations) == 3
    rels = {(r.from_under, r.to_under, r.over) for r in pres.relations}
    # must match x3 = x1*x2, x1 = x2*x3, x2 = x3*x1 up to relabeling
    target = {(0, 2, 1), (1, 0, 2), (2, 1, 0)}
    assert any(
        {(p[i], p[j], p[k]) for i, j, k in rels} == target
        for p in itertools.permutations(range(3))
    )


def test_presentation_counts(fig8):
    pres = presentation(fig8, "kei")
    assert len(pres.generators) == 4
    assert len(pres.relations) == 4
    assert not pres.framed_only
    assert presentation(fig8, "rack").framed_only
    with pytest.raises(DomainError):
        presentation(fig8, "biquandle")
    unknot = parse_pd("")
    pres = presentation(unknot)
    assert len(pres.generators) == 1
    assert len(pres.relations) == 0


def test_regions(trefoil):
    regs = regions(trefoil)
    assert len(regs) == 5
    # every edge contributes one inward and one outward incidence
    inward = sum(1 for r in regs for inc in r if inc.inward)
    outward = sum(1 for r in regs for inc in r if not inc.inward)
    assert inward == outward == trefoil.n_edges
    assert len(regions(parse_pd(""))) == 2


# --- PD round trip -------------------------------------------------------------------


def test_format_pd_roundtrip(small_diagrams, r3):
    for name, D in small_diagrams.items():
        if not D.crossings:
            continue
        again = parse_pd(format_pd(D))
        assert len(again.crossings) == len(D.crossings)
        assert sorted(c.sign for c in again.crossings) == sorted(
            c.sign for c in D.crossings
        )
        assert count_colorings(again, r3) == count_colorings(D, r3)


# --- surface data --------------------------------------------------------------------


def test_parse_surface_examples():
    sphere = parse_surface("surface\nsheets 1\n")
    assert sphere.n_sheets == 1
    data = parse_surface("surface\nsheets 3\ndc 1 3 2\n")
    assert data.relations == ((0, 2, 1),)
    # comments and blank lines are fine
    commented = parse_surface(
        "# a chain\nsurface  # header\n\nsheets 3\n  \ndc 1 3 2 # j = i * k\n# end\n"
    )
    assert commented == data
    with pytest.raises(ParseError, match="undeclared"):
        parse_surface("surface\nsheets 3\ntp 1 2 9 +\n")
    with pytest.raises(ParseError):
        parse_surface("surface\nsheets 2\ndc 1 2\n")
    with pytest.raises(ParseError):
        parse_surface("sheets 2\n")
    with pytest.raises(ParseError):
        parse_surface("surface\nsheets 2\ntp 1 1 2 ?\n")


def test_surface_roundtrip():
    data = parse_surface("surface\nsheets 3\ndc 1 3 2\ntp 1 2 3 -\n")
    assert parse_surface(format_surface(data)) == data


def test_shadow_surface_data_matches_shadows(trefoil, r3):
    from quandlekit.coloring import enumerate_shadow_colorings

    sd = shadow_surface_data(trefoil)
    assert sd.n_sheets == trefoil.n_arcs + trefoil.n_faces
    assert len(sd.triple_points) == len(trefoil.crossings)
    cols = enumerate_surface_colorings(sd, r3)
    shadows = enumerate_shadow_colorings(trefoil, r3)
    assert len(cols) == len(shadows)
    translated = {tuple(s.colors) + tuple(s.region_colors) for s in shadows}
    assert {c.colors for c in cols} == translated


def test_parse_pd_bracket_form():
    D = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert len(D.crossings) == 3


def test_format_pd_roundtrip_seven_crossings(knot_table, r3, theta):
    from quandlekit import state_sum_shadow

    for name in ("7_4", "7_7"):
        D = knot_table[name]
        again = parse_pd(format_pd(D))
        assert state_sum_shadow(again, r3, theta) == state_sum_shadow(D, r3, theta)
