"""Counts by affine racks through the linear route, against every other path.

A builtin rack is affine, a*b = Ta + (1-T)b on Z_m^deg, and carries its
module data (m, T, T^-1) as ``RackTable.affine``.  ``coloring._histogram`` sends
its plain counts to ``coloring._affine_count``: the kernel of B^power - I
for a braid word (B the period's Burau matrix at T, ``_burau``), of the
relation matrix for a diagram or surface data.  The oracles here:

- the module data rebuilds the table, its T^-1 inverts T, and a braid's
  matrix moves a coloring vector as the table moves the coloring;
- the engine (``_closure_histogram``, called directly), the search on a
  copy of the table read back from its file format (never affine-marked)
  and, on tiny diagrams, brute force over X^arcs;
- theorems at any size: trivial:n counts n^components, the Chinese
  remainder theorem splits dihedral:ab into dihedral:a and dihedral:b for
  coprime a, b at powers up to 10^9 (no other path reaches them), and Fox's
  count n * gcd(n, p) for the dihedral colorings of a 2-bridge knot of
  determinant p (Przytycki, Banach Center Publ. 42, 1998).
"""

import importlib.util
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    BraidWord,
    braid_closure,
    count_colorings,
    make_dihedral,
    make_trivial,
    parse_rack_table,
)
from quandlekit.coloring import _affine_count, _burau, _closure_histogram, _histogram
from quandlekit.diagram import torus_braid
from quandlekit.specs import resolve_diagram, resolve_rack

from conftest import brute_force_colorings, brute_force_sheets, format_rack_table

# Composite dihedral moduli, trivial racks, A9, A27, S4, a composite-modulus
# Alexander quandle (Z_4[x]/(x^2 + 1), t = x) and three one-element racks.
SPECS = (
    "dihedral:4", "dihedral:6", "dihedral:9", "dihedral:12", "trivial:3", "trivial:4",
    "alexander:3:1,0,1:2", "alexander:3:1,0,0,1:2", "alexander:2:1,1,1:0,1",
    "alexander:4:1,0,1:0,1", "dihedral:1", "trivial:1", "alexander:1:0,1:1",
)
RACKS = {spec: resolve_rack(spec) for spec in SPECS}
# The same tables, read back from the file format: not affine, so counted
# by the engine or the search.
PLAIN = {spec: parse_rack_table(format_rack_table(X)) for spec, X in RACKS.items()}
ENGINE_STATES = 20_000  # the most states the direct engine calls enumerate here


def _vector(X, x):
    """The coefficient vector of element x, constant coefficient first."""
    m, T, _ = X.affine
    return [x // m ** (len(T) - 1 - r) % m for r in range(len(T))]


def test_module_data_rebuilds_the_table():
    specs = [f"{kind}:{n}" for n in range(1, 13) for kind in ("dihedral", "trivial")]
    specs += ["alexander:2:1,0,1:0,1", "alexander:3:-2,1:2", "alexander:5:3,1:0,1",
              "alexander:3:1,0,1:1,1", "alexander:6:1,1,1:0,1"]
    for X in [resolve_rack(spec) for spec in specs] + list(RACKS.values()):
        m, T, T_inv = X.affine
        assert m ** len(T) == X.size and all(len(row) == len(T) for row in T), X.name
        assert [[sum(map(int.__mul__, row, col)) % m for col in zip(*T_inv)] for row in T] == [
            [int(r == c) % m for c in range(len(T))] for r in range(len(T))], X.name
        vectors = [_vector(X, x) for x in range(X.size)]
        index = {tuple(v): x for x, v in enumerate(vectors)}
        for a, va in enumerate(vectors):
            for b, vb in enumerate(vectors):
                want = [(sum(t * (u - w) for t, u, w in zip(row, va, vb)) + vb[r]) % m
                        for r, row in enumerate(T)]
                assert X.table[a][b] == index[tuple(want)], (X.name, a, b)
    assert not PLAIN["dihedral:4"].affine


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), strands=st.integers(1, 4), data=st.data())
def test_braid_matrix_moves_colorings_as_the_table_does(spec, strands, data):
    X = RACKS[spec]
    letters = data.draw(st.lists(
        st.tuples(st.integers(1, max(strands - 1, 1)), st.sampled_from((1, -1))),
        max_size=8 if strands > 1 else 0))
    x = data.draw(st.lists(st.integers(0, X.size - 1), min_size=strands, max_size=strands))
    _check_braid_matrix(X, BraidWord(strands, tuple(letters)), [x])


def test_one_letter_matrices_move_every_coloring():
    # Exhaustive on single letters, which the hypothesis test above samples:
    # every coloring of the two strands a letter touches, at either end of
    # the word's strands, by every rack (only Z_4[x]/(x^2 + 1) has T != T^t).
    for X in RACKS.values():
        pairs = [(a, b) for a in range(X.size) for b in range(X.size)]
        for e in (1, -1):
            _check_braid_matrix(X, BraidWord(2, ((1, e),)), pairs)
            _check_braid_matrix(X, BraidWord(3, ((2, e),)), [(0, a, b) for a, b in pairs])


def _check_braid_matrix(X, word, colorings):
    """_burau(word) moves each coloring's vector as the table moves the coloring."""
    m = X.affine[0]
    P = _burau(word, *X.affine)
    for x in colorings:
        y = list(x)
        for i, e in word.letters:
            a, b = y[i - 1], y[i]
            y[i - 1], y[i] = (b, X.op(a, b)) if e == 1 else (X.op_inv(b, a), a)
        vec = [c for z in x for c in _vector(X, z)]
        assert [sum(map(int.__mul__, row, vec)) % m for row in P] == [
            c for z in y for c in _vector(X, z)], (X.name, word, x)


def _connected(strands, raw, power):
    letters = [(min(i, strands - 1), e) for i, e in raw]
    letters += [(i, 1) for i in range(1, strands) if i not in {g for g, _ in letters}]
    return BraidWord(strands, tuple(letters), power)


def _compare(word, spec):
    """The route against the engine on the plain table and the search on its closure."""
    X, Y = RACKS[spec], PLAIN[spec]
    got = count_colorings(word, X)
    assert got == _affine_count(word, X)
    if Y.size ** word.strands <= ENGINE_STATES:
        assert _closure_histogram(word, Y) == [got], (word, spec)
    D = braid_closure(word)
    assert count_colorings(D, Y) == got == count_colorings(D, X), (word, spec)
    assert _histogram(word, X, shadow=True) == [X.size * got]


@settings(max_examples=60, deadline=None)
@given(
    strands=st.integers(2, 4),
    raw=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=6),
    power=st.integers(1, 6),
    spec=st.sampled_from(SPECS),
)
def test_route_matches_engine_and_search_on_random_braids(strands, raw, power, spec):
    _compare(_connected(strands, raw, power), spec)


@pytest.mark.parametrize("p", [2, 3])
def test_route_matches_engine_and_search_on_torus_families(p):
    for spec in ("dihedral:6", "dihedral:9", "alexander:3:1,0,0,1:2", "alexander:2:1,1,1:0,1",
                 "alexander:4:1,0,1:0,1", "trivial:4"):
        for q in (1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6):
            _compare(torus_braid(p, q), spec)


def test_route_matches_search_and_brute_force_on_bundled_files():
    for name in ("trefoil.pd", "fig8.pd", "6_1.pd", "7_4.pd", "7_7.pd", "unknot.pd",
                 "sphere.surf", "trefoil_shadow.surf"):
        target = resolve_diagram(name)
        surface = name.endswith(".surf")
        for spec, X in RACKS.items():
            got = count_colorings(target, X) if not surface else _histogram(target, X)[0]
            assert got == _histogram(target, PLAIN[spec])[0], (name, spec)
            if X.size <= 9:  # the brute force prunes as it assigns
                brute = brute_force_sheets if surface else brute_force_colorings
                assert got == len(brute(target, X)), (name, spec)


def test_a_word_times_its_inverse_closes_to_the_unlink():
    # w w^-1 is the identity braid, so its closure is the unlink and every
    # rack colors it |X|^strands ways: the letters s_i and s_i^-1 of the
    # route must use T and its inverse.
    for letters in (((1, 1),), ((1, -1), (2, 1)), ((1, 1), (2, 1), (1, -1), (2, 1))):
        strands = 1 + max(i for i, _ in letters)
        inverse = tuple((i, -e) for i, e in reversed(letters))
        for X in RACKS.values():
            word = BraidWord(strands, letters + inverse)
            assert count_colorings(word, X) == X.size ** strands, (X.name, letters)


def test_trivial_racks_count_every_component_freely():
    for word in (torus_braid(2, 4), torus_braid(3, 3), torus_braid(2, 7), torus_braid(3, 9),
                 resolve_diagram("braid:7: 1 -1 2 -2 3 -3 4 -4 5 -5 6 -6")):
        components = len(braid_closure(word).components)
        for n in (1, 2, 5, 10, 12):
            assert count_colorings(word, make_trivial(n)) == n ** components
    # The braid:7 closure has 7 components: 10^7 colorings, no state visited.
    assert count_colorings(resolve_diagram("braid:7: 1 -1 2 -2 3 -3 4 -4 5 -5 6 -6"),
                           make_trivial(10)) == 10**7


def test_one_element_racks_count_one():
    for spec in ("dihedral:1", "trivial:1", "alexander:1:0,1:1"):
        X = RACKS[spec]
        assert X.affine[0] == 1
        for target in (torus_braid(3, 10**9), resolve_diagram("7_4.pd"),
                       resolve_diagram("trefoil_shadow.surf")):
            assert _histogram(target, X) == [1]


_COPRIME = [(a, b) for a in range(2, 16) for b in range(a + 1, 16) if math.gcd(a, b) == 1]


@settings(max_examples=40, deadline=None)
@given(
    strands=st.integers(2, 4),
    raw=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=6),
    power=st.integers(1, 10**9),
    ab=st.sampled_from(_COPRIME),
)
def test_dihedral_counts_split_over_coprime_moduli(strands, raw, power, ab):
    """R_ab = R_a x R_b as quandles for coprime a, b, so colorings multiply."""
    word = _connected(strands, raw, power)
    a, b = ab
    assert count_colorings(word, make_dihedral(a * b)) == (
        count_colorings(word, make_dihedral(a)) * count_colorings(word, make_dihedral(b)))


def test_torus_knot_counts_at_huge_powers():
    # T(3, q) is a knot for q prime to 3, of determinant 3 for even q, and
    # H_1 of its double branched cover is Z_3: Fox's count is n gcd(n, 3).
    for n in (3, 200, 300, 301):
        assert count_colorings(torus_braid(3, 10**9), make_dihedral(n)) == n * math.gcd(n, 3)
    # R_300 = R_4 x R_3 x R_25, so its 900 is the product of their counts.
    word = torus_braid(3, 10**9)
    assert count_colorings(word, make_dihedral(300)) == math.prod(
        count_colorings(word, make_dihedral(n)) for n in (3, 4, 25))


# --- Fox's dihedral count on 2-bridge knots -------------------------------------------


def _twobridge_plat():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "make_knot_data.py")
    spec = importlib.util.spec_from_file_location("make_knot_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.twobridge_plat


def _numerator(fraction):
    """p of [a1, ..., ak] = a1 + 1/(a2 + 1/(... + 1/ak)) = p/q in lowest terms."""
    p, q = 1, 0
    for a in reversed(fraction):
        p, q = a * p + q, p
    return p


def _two_bridge_knots(rng, count, crossings):
    """count 2-bridge knots with crossings in the range, from odd-length fractions."""
    plat = _twobridge_plat()
    out = []
    while len(out) < count:
        terms = rng.randrange(1, 12, 2)
        fraction = [rng.randint(1, 2 * crossings[1] // terms) for _ in range(terms)]
        p = _numerator(fraction)
        if p % 2 == 0 or not crossings[0] <= sum(fraction) <= crossings[1]:
            continue  # a 2-component link, or out of range
        out.append((fraction, p, plat(fraction)))
    return out


def _fox(knots, dihedral, search):
    for fraction, p, D in knots:
        assert len(D.components) == 1 and len(D.crossings) == sum(fraction)
        for n in dihedral:
            want = n * math.gcd(n, p)
            assert count_colorings(D, make_dihedral(n)) == want, (fraction, n)
            if n in search:
                plain = parse_rack_table(format_rack_table(make_dihedral(n)))
                assert count_colorings(D, plain) == want, (fraction, n)


def test_fox_counts_on_bundled_two_bridge_knots():
    for name, p in (("trefoil", 3), ("fig8", 5), ("6_1", 9), ("7_4", 15), ("7_7", 21)):
        D = resolve_diagram(f"{name}.pd")
        for n in range(2, 31):
            assert count_colorings(D, make_dihedral(n)) == n * math.gcd(n, p), (name, n)


def test_fox_counts_on_a_large_two_bridge_knot():
    knots = _two_bridge_knots(random.Random(17), 1, (50, 80))
    _fox(knots, range(2, 31), search=(4, 6, 9, 15))


@pytest.mark.slow
def test_fox_counts_on_large_two_bridge_knots():
    knots = _two_bridge_knots(random.Random(2801), 6, (50, 200))
    _fox(knots, range(2, 31), search=range(2, 31))
