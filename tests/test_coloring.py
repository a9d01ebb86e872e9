import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    Cochain,
    BudgetError,
    Coloring,
    DomainError,
    NonCocycleError,
    SurfaceDiagramData,
    braid_closure,
    coboundary,
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
    reverse,
    shadow_surface_data,
    torus_diagram,
)
from quandlekit.algebra import RackTable
from quandlekit import coloring
from quandlekit.coloring import _histogram, _orbit_fibers, _orbit_maps, _ordered, _searcher
from quandlekit.diagram import BraidWord, parse_braid_word
from quandlekit.specs import read_data_file, resolve_diagram, resolve_rack

from conftest import (
    brute_force_colorings, brute_force_sheets, brute_force_shadows, inner_automorphisms,
)


def _unordered(target, X):
    """The full stream a sum weighs every coloring from, in no set order."""
    return coloring._streamed(X, _searcher(target, X))


def test_trefoil_colorings(trefoil, r3):
    cols = enumerate_colorings(trefoil, r3)
    assert len(cols) == 9
    assert sum(1 for c in cols if len(set(c.colors)) == 1) == 3
    assert sum(1 for c in cols if set(c.colors) == set(range(r3.size))) == 6


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
    """The full stream, fibers mapped off the orbit roots, is the brute force in order.

    The unordered stream holds the same colorings, each once.

    Besides small_quandles: connected quandles (R3, R5, A9, S4), quandles
    with several orbits and two racks that are not quandles (_orbit_cases).
    """
    quandles = {**small_quandles, **{qn: X for qn, (X, _) in _orbit_cases().items()}}
    for dn, D in small_diagrams.items():
        for qn, X in quandles.items():
            if X.size ** D.n_arcs > 10 ** 5:
                continue
            expected = brute_force_colorings(D, X)
            got = [c.colors for c in enumerate_colorings(D, X)]
            assert got == sorted(expected), (dn, qn)
            assert sorted(_unordered(D, X)) == got, (dn, qn)


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


# --- orbit-reduced counts ----------------------------------------------------------


def _orbit_cases():
    """Quandles and racks with their Inn(X) orbit sizes.

    Connected quandles, quandles with several orbits, and two racks that are
    not quandles: x*y = x+1 (one orbit) and x*y = s(x) for the permutation
    s = (0 1)(3 4 5) (three orbits).
    """
    s = (1, 0, 2, 4, 5, 3)
    return {
        "R3": (make_dihedral(3), [3]),
        "R5": (make_dihedral(5), [5]),
        "A9": (resolve_rack("alexander:3:1,0,1:2"), [9]),
        "S4": (resolve_rack("alexander:2:1,1,1:0,1"), [4]),
        "R4": (make_dihedral(4), [2, 2]),
        "alexander-R4": (resolve_rack("alexander:2:1,0,1:0,1"), [2, 2]),
        "trivial:3": (make_trivial(3), [1, 1, 1]),
        "cycle rack": (RackTable(3, tuple(((a + 1) % 3,) * 3 for a in range(3))), [3]),
        "permutation rack": (RackTable(6, tuple((s[a],) * 6 for a in range(6))), [2, 1, 3]),
    }


def test_orbit_fibers_weigh_each_orbit_once():
    for name, (X, sizes) in _orbit_cases().items():
        roots, mult = _orbit_fibers(X)
        assert roots == sorted(min(o) for o in X.orbits), name
        assert [mult[r] for r in roots] == sizes, name
        assert sum(mult) == X.size, name


def test_orbit_reduced_counts_match_full_search_and_brute_force(small_diagrams):
    """Counts from one fiber per orbit equal the full search and the brute force.

    Covers count_colorings and the counts of coloring._histogram that the
    command line prints: classical, --surjective, --shadow (with and without
    --surjective) and surface data.  A listing's rows (_listing), with and
    without --surjective, name the colors of each coloring, in the full
    search's order.
    """
    for dn, D in small_diagrams.items():
        if len(D.crossings) > 4:
            continue
        for qn, (X, _) in _orbit_cases().items():
            full = list(_ordered(D, X))
            assert full == sorted(brute_force_colorings(D, X)), (dn, qn)
            surjective = [c for c in full if len(set(c)) == X.size]
            for onto, want in ((False, full), (True, surjective)):
                count, rows = coloring._listing(D, X, shadow=False, surjective=onto)
                assert count == len(want), (dn, qn, onto)
                assert [tuple(map(int, r.split())) for r in rows] == want, (dn, qn, onto)
            assert count_colorings(D, X) == len(full), (dn, qn)
            assert _histogram(D, X, surjective=True)[0] == len(surjective), (dn, qn)
            if not X.is_quandle:
                continue
            # Sheets of the shadow surface data are the arcs, then the regions.
            sheets = [c + r for c, r in brute_force_shadows(D, X)]
            arcs_onto = [t for t in sheets if len(set(t[:D.n_arcs])) == X.size]
            sheets_onto = [t for t in sheets if len(set(t)) == X.size]
            assert _histogram(D, X, shadow=True)[0] == len(sheets), (dn, qn)
            assert _histogram(D, X, shadow=True, surjective=True)[0] == len(arcs_onto), (dn, qn)
            SD = shadow_surface_data(D)
            assert sorted(_ordered(SD, X)) == sorted(sheets), (dn, qn)
            for onto, want in ((False, sheets), (True, sheets_onto)):
                count, rows = coloring._listing(SD, X, shadow=False, surjective=onto)
                assert count == len(want), (dn, qn, onto)
                assert [tuple(map(int, r.split())) for r in rows] == sorted(want), (dn, qn, onto)
            assert _histogram(SD, X)[0] == len(sheets), (dn, qn)
            assert _histogram(SD, X, surjective=True)[0] == len(sheets_onto), (dn, qn)


def test_root_colors_restrict_arc_zero(trefoil, r4):
    # The fibers of the given roots, in the full search's order.
    full = list(_ordered(trefoil, r4))
    search = _searcher(trefoil, r4)
    assert list(search([1, 2])) == [c for c in full if c[0] in (1, 2)]
    assert list(search([])) == []


# --- transported full enumerations ------------------------------------------------


def test_orbit_maps_take_each_root_onto_its_orbit():
    for name, (X, _) in _orbit_cases().items():
        orbit_of = {x: min(o) for o in X.orbits for x in o}
        maps = _orbit_maps(X)
        for c, (r, g) in enumerate(maps):
            assert r == orbit_of[c], (name, c)
            assert g[r] == c, (name, c)
            assert sorted(g) == list(range(X.size)), (name, c)
            for x in range(X.size):
                for y in range(X.size):
                    assert g[X.table[x][y]] == X.table[g[x]][g[y]], (name, c, x, y)
            if r == c:
                assert list(g) == list(range(X.size)), (name, c)


def test_unordered_stream_keeps_no_fiber(monkeypatch):
    """Each searched solution comes out with all its images before the next."""
    yielded = []
    search = coloring._search

    def spy(X, relations, rels_of, roots):
        for t in search(X, relations, rels_of, roots):
            yielded.append(t)
            yield t

    monkeypatch.setattr(coloring, "_search", spy)
    a9 = resolve_rack("alexander:3:1,0,1:2")
    stream = _unordered(torus_diagram(3, 6), a9)
    first = [next(stream) for _ in range(9)]
    assert len(yielded) == 1
    assert sorted(t[0] for t in first) == list(range(9))


def test_enumerate_surface_colorings_matches_brute_force_in_order():
    surfaces = {name: parse_surface(read_data_file(name))
                for name in ("sphere.surf", "trefoil_shadow.surf")}
    for sn, SD in surfaces.items():
        for qn, (X, _) in _orbit_cases().items():
            if not X.is_quandle or X.size ** SD.n_sheets > 10 ** 5:
                continue
            got = [c.colors for c in enumerate_surface_colorings(SD, X)]
            assert got == sorted(brute_force_sheets(SD, X)), (sn, qn)
            assert sorted(_unordered(SD, X)) == got, (sn, qn)


@settings(max_examples=25, deadline=None)
@given(word=st.lists(st.sampled_from([1, -1, 2, -2]), min_size=2, max_size=6).filter(
    lambda w: {abs(x) for x in w} == {1, 2}
))
def test_full_enumerations_match_brute_force_on_random_braids(word):
    D = braid_closure(parse_braid_word(3, " ".join(map(str, word))))
    for qn in ("R4", "S4", "trivial:3", "cycle rack"):
        X = _orbit_cases()[qn][0]
        got = [c.colors for c in enumerate_colorings(D, X)]
        assert got == sorted(brute_force_colorings(D, X)), qn
        assert sorted(_unordered(D, X)) == got, qn
        if X.is_quandle:
            got = [(s.colors, s.region_colors) for s in enumerate_shadow_colorings(D, X)]
            assert got == sorted(brute_force_shadows(D, X)), qn


def test_full_enumerations_search_only_root_fibers(monkeypatch, capsys):
    """Every full enumeration searches one fiber per orbit, each root once."""
    from quandlekit import cli
    from quandlekit.invariant import state_sum_2, state_sum_shadow, state_sum_surface

    searched = []
    search = coloring._search

    def spy(X, relations, rels_of, roots):
        searched.append(list(roots))
        return search(X, relations, rels_of, roots)

    monkeypatch.setattr(coloring, "_search", spy)

    def roots_of(run):
        searched.clear()
        run()
        return list(searched)

    T36 = torus_diagram(3, 6)
    a9, t3 = resolve_rack("alexander:3:1,0,1:2"), make_trivial(3)
    r3 = make_dihedral(3)
    phi = Cochain(2, 9, {(0, 1): 1})
    theta = Cochain(3, 9, {(0, 1, 2): 1})
    SD = shadow_surface_data(T36)
    runs = {
        "colorings": lambda X: enumerate_colorings(T36, X),
        "shadows": lambda X: enumerate_shadow_colorings(T36, X),
        "sheets": lambda X: enumerate_surface_colorings(SD, X),
        "unchecked 2": lambda X: state_sum_2(T36, X, phi, check=False),
        "unchecked shadow": lambda X: state_sum_shadow(T36, X, theta, check=False),
        "unchecked surface": lambda X: state_sum_surface(SD, X, theta, check=False),
    }
    for name, run in runs.items():
        assert roots_of(lambda: run(a9)) == [[0]], name
        assert roots_of(lambda: run(t3)) == [[0], [1], [2]], name
    assert roots_of(lambda: enumerate_colorings(T36, r3)) == [[0]]
    # A listing by a quandle with one orbit per color runs one search per
    # root and nothing else: no count first, no second pass.
    listing = roots_of(lambda: cli.main(["color", "torus:3:6", "trivial:27", "--list"]))
    assert listing == [[c] for c in range(27)]
    assert "#data colorings 19683" in capsys.readouterr().out


# --- shadow colorings ----------------------------------------------------------


def test_enumerations_close_braid_words(r3):
    # Torus and braid: specs resolve to a braid word; the listings close it.
    A9 = resolve_rack("alexander:3:1,0,1:2")
    for spec, closed in (
        ("torus:3:4", torus_diagram(3, 4)),
        ("braid:3: 1 -2 1 -2", braid_closure(parse_braid_word(3, "1 -2 1 -2"))),
    ):
        word = resolve_diagram(spec)
        assert isinstance(word, BraidWord)
        for X in (r3, A9):
            assert enumerate_colorings(word, X) == enumerate_colorings(closed, X)
            assert enumerate_shadow_colorings(word, X) == enumerate_shadow_colorings(closed, X)


def test_unknot_shadow_colorings(r3):
    assert len(enumerate_shadow_colorings(parse_pd(""), r3)) == 9


def test_table_shadow_counts(knot_table, r3):
    assert len(enumerate_shadow_colorings(knot_table["trefoil"], r3)) == 27
    assert len(enumerate_shadow_colorings(knot_table["6_1"], r3)) == 27


def test_shadow_extension_count(small_diagrams, r3):
    # every coloring of a connected diagram extends |X| ways
    for D in small_diagrams.values():
        assert len(enumerate_shadow_colorings(D, r3)) == 3 * count_colorings(D, r3)


def test_shadow_matches_brute_force(small_diagrams):
    # S4 = GF(4) with t a generator is not involutory: x -> x * c differs from its inverse.
    # R4, its Alexander form and trivial:3 have several orbits.
    quandles = [X for X, _ in _orbit_cases().values() if X.is_quandle]
    for name, D in small_diagrams.items():
        if len(D.crossings) > 4:
            continue
        for X in quandles:
            expected = brute_force_shadows(D, X)
            got = [(s.colors, s.region_colors) for s in enumerate_shadow_colorings(D, X)]
            assert got == sorted(expected), (name, X.label)
            unordered = [(c, regions) for c, at, perms
                         in coloring._region_core(D, X, _unordered(D, X), listing=False)
                         for regions in zip(*[perms[j] for j in at])]
            assert sorted(unordered) == got, (name, X.label)


# Three of these are not involutory, so x -> x * c differs from its inverse:
# a region step read the wrong way round, or a crossing relation that
# describes another knot, shows against the oracle.
_SHADOW_ORACLE_QUANDLES = tuple(resolve_rack(spec) for spec in (
    "dihedral:3", "alexander:2:1,1,1:0,1", "alexander:5:3,1:0,1", "alexander:7:4,1:0,1"))


def _check_shadows_against_oracle(D):
    """|X| shadow colorings per arc coloring, each the oracle's, in its order."""
    for X in _SHADOW_ORACLE_QUANDLES:
        got = [(s.colors, s.region_colors) for s in enumerate_shadow_colorings(D, X)]
        assert got == sorted(brute_force_shadows(D, X)), (D.label, X.label)
        assert len(got) == X.size * count_colorings(D, X), (D.label, X.label)


@st.composite
def _connected_braids(draw):
    """Braid words on 2-4 strands, at most 8 letters, every generator used."""
    strands = draw(st.integers(2, 4))
    sign = st.sampled_from([1, -1])
    needed = [(g, draw(sign)) for g in range(1, strands)]
    extra = draw(st.lists(st.tuples(st.integers(1, strands - 1), sign), max_size=9 - strands))
    return BraidWord(strands, tuple(draw(st.permutations(needed + extra))))


@settings(max_examples=25, deadline=None)
@given(word=_connected_braids())
def test_shadow_extension_fact_on_braid_closures(word):
    D = braid_closure(word)
    for E in (D, mirror(D), reverse(D)):
        _check_shadows_against_oracle(E)


def test_shadow_extension_fact_on_bundled_knots(knot_table):
    for D in knot_table.values():
        _check_shadows_against_oracle(D)


# --- the interned region core ---------------------------------------------------------


_REGION_CORE_QUANDLES = tuple(resolve_rack(spec) for spec in (
    "dihedral:3", "dihedral:5", "alexander:3:1,0,1:2", "alexander:3:1,0,0,1:2",
    "alexander:2:1,1,1:0,1", "dihedral:4"))


def _region_streams(D, X):
    """Each stream a caller hands the region core, by name, made afresh per call.

    A checked shadow sum hands it the root fibers, an unchecked one the
    unordered full stream, and a listing the ordered stream.
    """
    return {
        "root fibers": lambda: _searcher(D, X)(_orbit_fibers(X)[0]),
        "unordered": lambda: _unordered(D, X),
        "ordered": lambda: _ordered(D, X),
    }


def _per_face_regions(D, X, colorings):
    """The region core rebuilt plainly: one new list per tree face per arc coloring."""
    plan = coloring._region_plan(D)
    for colors in colorings:
        perms = [list(range(X.size))] * D.n_faces
        for f, parent, arc, forward in plan:
            c = colors[arc]
            step = (lambda x: X.op(x, c)) if forward else (lambda x: X.op_inv(x, c))
            perms[f] = [step(x) for x in perms[parent]]
        yield colors, [tuple(p) for p in perms]


def _check_region_core(D):
    """The region core equals the per-face rebuild on every stream, under both bounds."""
    for X in _REGION_CORE_QUANDLES:
        for name, stream in _region_streams(D, X).items():
            want = list(_per_face_regions(D, X, stream()))
            for listing in (True, False):
                # Read each yield before the next, as the core's callers do.
                got, tables = [], set()
                for c, at, perms in coloring._region_core(D, X, stream(), listing=listing):
                    got.append((c, [perms[j] for j in at]))
                    tables.add(id(perms))
                assert got == want, (D.label, X.label, name, listing)
                # One table, holding each permutation it interned once.
                assert len(tables) == 1 and len(set(perms)) == len(perms), (D.label, X.label)


@settings(max_examples=20, deadline=None)
@given(word=_connected_braids().filter(lambda w: w.strands <= 3))
def test_region_core_matches_per_face_rebuild_on_braid_closures(word):
    # At most 3 strands keeps the A27 streams at most 27^3 arc colorings.
    D = braid_closure(word)
    for E in (D, mirror(D)):
        _check_region_core(E)


def test_region_core_matches_per_face_rebuild_on_bundled_knots(knot_table):
    for D in knot_table.values():
        _check_region_core(D)


def test_region_core_interns_within_inn_x():
    # Every region permutation is a product of right translations, so the
    # core meets at most |Inn(X)| distinct ones: 54 for A27 = Z_3^3 with T = 2.
    X = _REGION_CORE_QUANDLES[3]
    D = braid_closure(parse_braid_word(3, "1 2 1 2 1 2 1 2"))
    core = coloring._region_core(D, X, _ordered(D, X), listing=True)
    met = {perms[j] for _, at, perms in core for j in at}
    inn = inner_automorphisms(X)
    assert len(inn) == 54
    assert met <= inn


def _transpositions(m):
    """The transpositions of S_m under conjugation: |X| = m(m-1)/2, Inn(X) = S_m."""
    pairs = list(itertools.combinations(range(m), 2))
    pos = {p: k for k, p in enumerate(pairs)}

    def conj(a, b):  # b a b^-1 swaps b's two points inside a
        swap = {b[0]: b[1], b[1]: b[0]}
        return pos[tuple(sorted(swap.get(x, x) for x in a))]

    return RackTable(len(pairs), tuple(tuple(conj(a, b) for b in pairs) for a in pairs),
                     f"transpositions:{m}")


def test_sum_stream_interns_at_most_faces_times_x():
    # Inn(X) = S_6 has 720 elements.  On the closure of s1^2 s2^2 s1 every
    # stream a caller hands the core, the 63 colorings of the root fibers
    # too, meets more than faces x |X| = 105 of them.  For a sum the core
    # interns 105 and builds the others per arc coloring; for a listing it
    # interns all.
    X = _transpositions(6)
    D = braid_closure(parse_braid_word(3, "1 1 2 2 1"))
    limit = D.n_faces * X.size
    for name, stream in _region_streams(D, X).items():
        want = list(_per_face_regions(D, X, stream()))
        for listing in (True, False):
            got, sizes = [], []
            for c, at, perms in coloring._region_core(D, X, stream(), listing=listing):
                got.append((c, [perms[j] for j in at]))
                sizes.append(len(perms))
            assert got == want, (name, listing)
            if listing:
                assert len(perms) == len(set(perms)) > limit, name
            else:
                assert len(perms) == len(set(perms)) == limit, name
                assert limit < max(sizes) < limit + D.n_faces, name


def test_shadow_colorings_are_a_sequence(trefoil):
    X = resolve_rack("alexander:3:1,0,1:2")
    shadows = enumerate_shadow_colorings(trefoil, X)
    items = list(shadows)
    assert len(shadows) == len(items) == X.size * count_colorings(trefoil, X)
    assert [shadows[k] for k in range(-len(items), len(items))] == items + items
    assert shadows == items and items == shadows and shadows != items[:-1]
    for k in (len(items), -len(items) - 1):
        with pytest.raises(IndexError):
            shadows[k]


def test_shadow_colorings_slice_as_lists(trefoil):
    X = resolve_rack("alexander:3:1,0,1:2")
    shadows = enumerate_shadow_colorings(trefoil, X)
    items = list(shadows)
    n = len(items)
    bounds = (None, 0, 1, 2, 8, 9, 10, n - 1, n, n + 5, -1, -2, -9, -10, -n, -n - 3)
    steps = (None, 1, 2, 3, 9, -1, -2, -9, n)
    for start, stop, step in itertools.product(bounds, bounds, steps):
        s = slice(start, stop, step)
        got = shadows[s]
        assert type(got) is list and got == items[s], s
    with pytest.raises(ValueError):
        shadows[::0]


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


def test_lift_checks_each_cochain_once_per_budget(monkeypatch, trefoil, r3):
    # The verdict is cached per cochain and budget; a non-cocycle raises the
    # same NonCocycleError on every call, naming is_cocycle's own witness.
    checked = []

    def counting(X, phi, theory):
        checked.append(phi)
        return is_cocycle(X, phi, theory)

    monkeypatch.setattr(coloring, "is_cocycle", counting)
    monkeypatch.delenv("QUANDLEKIT_BUDGET", raising=False)
    coloring._lift_verdict.cache_clear()
    rhos = enumerate_colorings(trefoil, r3)
    bad = Cochain(2, 3, {(0, 1): 1, (1, 1): 2, (2, 2): 1})
    chk = is_cocycle(r3, bad, "Q")
    want = f"lift needs a 2-cocycle: {chk.reason} at {chk.witness}"
    for rho in rhos:
        with pytest.raises(NonCocycleError) as info:
            lift_coloring(trefoil, r3, rho, 3, bad)
        assert str(info.value) == want
    phi = Cochain(2, 3, {})
    for rho in rhos:
        lift_coloring(trefoil, r3, rho, 3, phi)
    assert len(checked) == 2
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "10")  # under 3^3 tuples of C_3
    with pytest.raises(BudgetError):
        lift_coloring(trefoil, r3, rhos[0], 3, phi)


def test_lift_checks_shape_before_the_cocycle_condition(monkeypatch, trefoil, r3):
    # Degree, modulus and length are checked before the costly cocycle check,
    # so a degree-3 non-cocycle is reported as the wrong degree.
    from quandlekit import coloring

    def refuse(*args):
        raise AssertionError("is_cocycle ran before the cheap checks")

    monkeypatch.setattr(coloring, "is_cocycle", refuse)
    rho = enumerate_colorings(trefoil, r3)[0]
    not_cocycle = Cochain(3, 3, {(0, 1, 0): 1})
    cases = [
        (rho, 3, not_cocycle, "degree-2"),
        (rho, 2, Cochain(2, 3, {(0, 1): 1}), "modulus"),
        (Coloring(rho.colors[:-1]), 3, Cochain(2, 3, {(0, 1): 1}), "does not match the diagram"),
    ]
    for given, d, phi, message in cases:
        with pytest.raises(DomainError, match=message) as info:
            lift_coloring(trefoil, r3, given, d, phi)
        assert not isinstance(info.value, NonCocycleError)


def test_lift_rejects_what_is_not_a_coloring(monkeypatch, r3):
    # Entries outside X and broken crossing relations are refused after the
    # length check and before the cocycle check.
    def refuse(*args):
        raise AssertionError("is_cocycle ran before the coloring was checked")

    monkeypatch.setattr(coloring, "is_cocycle", refuse)
    D = torus_diagram(3, 4)
    assert D.n_arcs == 8
    phi = Cochain(2, 3, {})
    cases = [
        ((5,) * 8, "entry outside 0..2"),
        ((0, 1, 0, 0, 0, 0, 0, 0), "breaks the crossing relation"),
        ((-1,) * 8, "entry outside 0..2"),
    ]
    for colors, message in cases:
        with pytest.raises(DomainError, match=message) as info:
            lift_coloring(D, r3, Coloring(colors), 3, phi)
        assert not isinstance(info.value, NonCocycleError)


def test_lift_closes_braid_words(r3):
    # torus: specs resolve to a braid word; it is lifted on its closure.
    word = resolve_diagram("torus:3:4")
    assert isinstance(word, BraidWord)
    closed = braid_closure(word)
    mu = Cochain(1, 3, {(0,): 1, (2,): 2})
    for phi in (Cochain(2, 3, {}), coboundary(r3, mu, "Q")):
        for rho in enumerate_colorings(word, r3):
            lifts = lift_coloring(word, r3, rho, 3, phi)
            assert lifts and lifts == lift_coloring(closed, r3, rho, 3, phi)


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


def test_lifts_are_the_extension_colorings_over_each_coloring(knot_table):
    # With a 2-cocycle phi that is not a coboundary, some colorings lift and
    # some are obstructed: the lifts of rho are exactly the colorings by
    # E = Z_d x_phi X whose X part is rho, in the same order.
    from quandlekit import abelian_extension, cohomology

    knots = [knot_table[name] for name in ("trefoil", "fig8", "7_4")]
    knots += [torus_diagram(2, 5), torus_diagram(3, 4)]
    seen = obstructed = 0
    for spec, d in (("alexander:2:1,1,1:0,1", 2), ("alexander:3:1,0,1:2", 3), ("dihedral:4", 2)):
        X = resolve_rack(spec)
        spaces = cohomology(X, 2, "Q", d)
        phi = next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))
        E = abelian_extension(X, d, phi)
        for K in knots:
            over = {}
            for c in enumerate_colorings(K, E):
                over.setdefault(tuple(x % X.size for x in c.colors), []).append(c)
            for rho in enumerate_colorings(K, X):
                lifts = lift_coloring(K, X, rho, d, phi)
                assert lifts == over.pop(rho.colors, []), (spec, K.label, rho)
                seen += 1
                obstructed += not lifts
            assert not over, (spec, K.label)
    assert (seen, obstructed) == (337, 24)


def test_torus_t3_colorability(r3):
    # T(3, n) is nontrivially 3-colorable exactly for even n
    for n in range(2, 8):
        count = count_colorings(torus_diagram(3, n), r3)
        if n % 2 == 0:
            assert count > 3, n
        else:
            assert count == 3, n
