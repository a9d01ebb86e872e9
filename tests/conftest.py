import itertools
import os
import resource
import subprocess
import sys

import pytest

import quandlekit
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


def format_rack_table(X):
    """A RackTable in the ``rack n`` file format that ``parse_rack_table`` reads."""
    lines = [f"rack {X.size}"]
    for row in X.table:
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def permutation_group_table(generators):
    """Multiplication table of the group the permutations generate.

    Elements are in lexicographic order, and composition acts
    left-to-right: (p . q)(i) = q(p(i)).
    """
    identity = tuple(range(len(generators[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    perms = sorted(elements)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[i] for i in p)] for q in perms] for p in perms]


def symmetric_group_table(m):
    """Multiplication table of S_m; conjugation quandles of S_3 are built from it."""
    swap = (1, 0) + tuple(range(2, m)) if m > 1 else (0,)
    return permutation_group_table([swap, tuple(range(1, m)) + (0,)])


def span_mod(vectors, n, d):
    """Every Z_d-combination of the vectors in Z_d^n, by closure under adding one."""
    seen = frontier = {(0,) * n}
    while frontier:
        frontier = {tuple((a + b) % d for a, b in zip(v, g)) for v in frontier for g in vectors}
        frontier -= seen
        seen = seen | frontier
    return seen


def composite_image(lo, hi):
    """The nonzero entries of lo @ hi, two boundary matrices multiplied by their columns."""
    out = {}
    for j, col in enumerate(hi.columns):
        for k, v in col.items():
            for i, w in lo.columns[k].items():
                out[i, j] = out.get((i, j), 0) + v * w
    return {ij: v for ij, v in out.items() if v}


def prime_powers(n):
    """The prime powers p^e exactly dividing n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append(p**e)
        p += 1
    return out + [n] * (n > 1)


def inner_automorphisms(X):
    """Inn(X) as a set of tuples g (x -> g[x]): the closure of the right translations."""
    inn = {tuple(range(X.size))}
    frontier = list(inn)
    while frontier:
        g = frontier.pop()
        for c in range(X.size):
            h = tuple(X.op(x, c) for x in g)
            if h not in inn:
                inn.add(h)
                frontier.append(h)
    return inn


def elementary_divisors(group):
    """The elementary divisors of an AbelianGroup's torsion, sorted."""
    return tuple(sorted(q for d in group.invariant_factors for q in prime_powers(d)))


def run_cli_guarded(*argv, cpu_s=5, memory_bytes=1 << 30):
    """``python -m quandlekit argv`` in a child process under resource limits.

    RLIMIT_CPU (cpu_s seconds) stops a command that hangs and RLIMIT_AS
    (memory_bytes) one that allocates without bound, so a regression fails
    in seconds.  Asserts that the exit code is one the command line defines
    (0 to 3) and that stderr holds no traceback; returns the completed
    process.
    """

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    src = os.path.dirname(os.path.dirname(quandlekit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, preexec_fn=limit, timeout=10 * cpu_s,
    )
    assert proc.returncode in (0, 1, 2, 3), (argv, proc.returncode, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])
    return proc


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
