"""The braid-action engine against the coloring search on the closure.

coloring._closure_histogram counts the colorings of a braid closure, and
sums 2- and 3-cochain weights over them, as fixed points of the braid's
permutation.  These tests call it directly, whatever the path rule says,
and compare it with the search (the only path a Diagram takes) on
braid_closure of the expanded word, and the search's sums with the
per-coloring weights.  A shadow count on the engine is |X| times its arc
count; it is compared with the region core on the closure.  Random cochains
that are not cocycles, checked nowhere, pin the sign of each letter and the
region each shadow weight reads: an involutory quandle such as R3 cannot
tell a letter from its inverse.  Some of their tuples lie outside X, which
the engine and the search read through one weight table and the
per-coloring weights never look up.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    BraidWord,
    Cochain,
    braid_closure,
    count_colorings,
    enumerate_colorings,
    enumerate_shadow_colorings,
    make_alexander,
    make_dihedral,
    parse_rack_table,
    state_sum_2,
    state_sum_shadow,
)
from quandlekit.coloring import _closure_histogram, _histogram
from quandlekit.diagram import parse_braid_word, torus_braid
from quandlekit.invariant import coloring_weight, shadow_weight

# S4 is not involutory; the cycle rack is not a quandle.
RACKS = {
    "R3": make_dihedral(3),
    "R4": make_dihedral(4),
    "S4": make_alexander(2, [1, 1, 1], [0, 1]),
    "A9": make_alexander(3, [1, 0, 1], [2]),
    "cycle rack": parse_rack_table("rack 3\n1 1 1\n2 2 2\n0 0 0\n"),
}
MODULUS = 7  # odd, so that a weight and its negative differ


def _random_cochain(rng, degree, n):
    """Random values on up to 2n^2 tuples, about a quarter of them outside X.

    An entry outside X is below 0 (-1 and -n would index a list from its
    end) or at least n; such a tuple weighs no coloring.
    """
    values = {}
    for _ in range(2 * n**2):
        t = [rng.randrange(n) for _ in range(degree)]
        if rng.random() < 0.25:
            t[rng.randrange(degree)] = rng.choice((-1, -n, n, n + 1))
        values[tuple(t)] = rng.randrange(MODULUS)
    return Cochain(degree, MODULUS, values)


def _oracle(D, X, cochain):
    """The state sum from the per-coloring weights, which read the cochain itself."""
    hist = [0] * MODULUS
    if cochain.degree == 2:
        for rho in enumerate_colorings(D, X):
            hist[coloring_weight(D, X, cochain, rho)] += 1
    else:
        for s in enumerate_shadow_colorings(D, X):
            hist[shadow_weight(D, X, cochain, s)] += 1
    return tuple(hist)


def _compare(word, X, rng):
    """Engine against the search on the closure: counts and both sums."""
    D = braid_closure(word)
    assert _closure_histogram(word, X) == [count_colorings(D, X)]
    phi = _random_cochain(rng, 2, X.size)
    want = state_sum_2(D, X, phi, check=False)
    assert want.coeffs == _oracle(D, X, phi)
    assert tuple(_closure_histogram(word, X, phi)) == want.coeffs
    assert state_sum_2(word, X, phi, check=False) == want
    if not X.is_quandle:
        return
    shadows = _histogram(D, X, shadow=True)
    assert [X.size * _closure_histogram(word, X)[0]] == shadows
    assert _histogram(word, X, shadow=True) == shadows
    theta = _random_cochain(rng, 3, X.size)
    want = state_sum_shadow(D, X, theta, check=False)
    assert want.coeffs == _oracle(D, X, theta)
    assert tuple(_closure_histogram(word, X, theta)) == want.coeffs
    assert state_sum_shadow(word, X, theta, check=False) == want


@settings(max_examples=40, deadline=None)
@given(
    strands=st.integers(2, 4),
    raw=st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=5),
    power=st.integers(1, 6),
    rack=st.sampled_from(sorted(RACKS)),
    seed=st.integers(0, 2**16),
)
def test_engine_matches_search_on_random_braids(strands, raw, power, rack, seed):
    X = RACKS[rack]
    if X.size ** (strands + 1) > 10**4:
        strands -= 1  # keep A9 shadow states at most 9^4
    letters = [(min(i, strands - 1), e) for i, e in raw]
    # Every generator occurs, so the closure is connected.
    letters += [(i, 1) for i in range(1, strands) if i not in {g for g, _ in letters}]
    _compare(BraidWord(strands, tuple(letters), power), X, random.Random(seed))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_engine_matches_search_on_torus_families(p, q):
    rng = random.Random(p * 100 + q)
    for X in RACKS.values():
        for signed in (q, -q):
            _compare(torus_braid(p, signed), X, rng)


def test_engine_matches_search_on_braid_inputs():
    """The braid words the command-line tests read from files and --braid."""
    rng = random.Random(1)
    words = [(2, "1 1 1"), (3, "1 2 1 2"), (2, "1 1 1 1 1 1"), (3, "1 -2 1 -2"),
             (4, "1 2 3 -1 2 -3"), (2, "1")]
    for strands, letters in words:
        for X in RACKS.values():
            _compare(parse_braid_word(strands, letters), X, rng)

