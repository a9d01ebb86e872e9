import pytest

from quandlekit import (
    Cochain,
    make_alexander,
    make_dihedral,
    make_trivial,
    parse_pd,
    torus_diagram,
)
from quandlekit.specs import read_data_file

# The standard 3-element dihedral cocycle, built by hand (the bundled file is
# compared against this in the homology tests).
THETA_VALUES = {
    (0, 1, 2): 1,
    (0, 2, 1): 1,
    (1, 0, 1): 1,
    (2, 0, 1): 1,
    (2, 0, 2): 1,
    (1, 0, 2): 1,
}


@pytest.fixture(scope="session")
def r3():
    return make_dihedral(3)


@pytest.fixture(scope="session")
def r4():
    return make_dihedral(4)


@pytest.fixture(scope="session")
def alexander_r4():
    return make_alexander(2, [1, 0, 1], [0, 1])


@pytest.fixture(scope="session")
def theta():
    return Cochain(3, 3, THETA_VALUES)


@pytest.fixture(scope="session")
def trefoil():
    return parse_pd(read_data_file("trefoil.pd"), name="trefoil")


@pytest.fixture(scope="session")
def fig8():
    return parse_pd(read_data_file("fig8.pd"), name="fig8")


@pytest.fixture(scope="session")
def knot_table():
    return {
        name: parse_pd(read_data_file(f"{name}.pd"), name=name)
        for name in ("trefoil", "fig8", "6_1", "7_4", "7_7", "unknot")
    }


@pytest.fixture(scope="session")
def small_diagrams(knot_table):
    """Diagrams with at most six crossings, for brute-force cross-checks."""
    out = dict(knot_table)
    out["T(2,4)"] = torus_diagram(2, 4)
    out["T(2,6)"] = torus_diagram(2, 6)
    out["T(3,2)"] = torus_diagram(3, 2)
    out["T(2,-3)"] = torus_diagram(2, -3)
    del out["7_4"]
    del out["7_7"]
    return out


@pytest.fixture(scope="session")
def small_quandles():
    return {
        "trivial:2": make_trivial(2),
        "trivial:3": make_trivial(3),
        "dihedral:3": make_dihedral(3),
        "dihedral:4": make_dihedral(4),
        "alexander-R4": make_alexander(2, [1, 0, 1], [0, 1]),
    }


def _brute_force(n_vars, relations, X):
    """Every assignment with colors[j] = colors[i] * colors[k] per (i, j, k).

    Variables are assigned in index order, every color in turn, and a partial
    assignment is dropped as soon as a relation among assigned variables
    fails; that prunes the scan without skipping any full assignment.  The
    output is in the order of itertools.product over the variables.
    """
    due = [[] for _ in range(n_vars)]
    for i, j, k in relations:
        due[max(i, j, k)].append((i, j, k))
    out = []
    colors = [0] * n_vars

    def extend(v):
        if v == n_vars:
            out.append(tuple(colors))
            return
        for x in range(X.size):
            colors[v] = x
            if all(X.table[colors[i]][colors[k]] == colors[j] for i, j, k in due[v]):
                extend(v + 1)

    extend(0)
    return out


def brute_force_colorings(D, X):
    """Oracle: scan every arc assignment against every crossing relation."""
    return _brute_force(D.n_arcs, [(r.from_under, r.to_under, r.over) for r in D.relations], X)


def brute_force_sheets(SD, X):
    """Oracle: scan every sheet assignment against every double-curve relation."""
    return _brute_force(SD.n_sheets, SD.relations, X)


def brute_force_shadows(D, X):
    """Oracle: scan every (arc, region) assignment against both conditions.

    Regions are assigned in face order, every color in turn, and a partial
    assignment is dropped as soon as a transition between two assigned faces
    fails; that prunes the scan without skipping any full assignment.  The
    output is in the order of itertools.product over the regions.
    """
    trans = D.face_transitions()
    # Transitions to check once face f is assigned: both ends among faces 0..f.
    due = [[] for _ in range(D.n_faces)]
    for s, t, a in trans:
        due[max(s, t)].append((s, t, a))
    out = []
    for colors in brute_force_colorings(D, X):
        reg = [0] * D.n_faces

        def extend(f):
            if f == D.n_faces:
                out.append((colors, tuple(reg)))
                return
            for x in range(X.size):
                reg[f] = x
                if all(X.table[reg[s]][colors[a]] == reg[t] for s, t, a in due[f]):
                    extend(f + 1)

        extend(0)
    return out
