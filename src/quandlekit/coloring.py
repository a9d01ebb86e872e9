"""Enumeration of colorings, shadow colorings and surface colorings.

The solver assigns colors to a seed variable, then lets the crossing relations
force everything they can (two known colors at a crossing determine the third
through the operation or its inverse), branching only where nothing is forced.
It streams its solutions in lexicographic order in (arc id, element index), so
invariant computations and golden files are reproducible, and counts and
state sums never hold more than one coloring.

Shadow colorings come from one region core.  Per diagram it plans a spanning
tree of the dual graph from region 0; per arc coloring it carries the region
colors for all |X| choices of the region-0 color at once, one list per region,
each got from its parent's list by one right translation.  The transitions off
the tree are checked as whole lists, which drops exactly the inconsistent
choices.  Listings, counts and the shadow state sum all read that core.

Every search runs one fiber per orbit.  Each right translation x -> x * y
of a rack is an automorphism, so it maps the colorings with arc 0 (or sheet
0) colored x one-to-one onto those colored x * y; fibers over one Inn(X)
orbit are equally large.  count_colorings and the command line's counts
(shadow, surjective and surface counts too) try only the least color of each
orbit for variable 0 and weight each fiber by its orbit size
(_orbit_fibers).  The checked 2- and 3-cocycle state sums do the same, since
a cocycle's weight is constant on those orbits.  Everything that needs every
coloring (the enumerations, every listing, the region core's full stream,
the unchecked sums and the surface state sum) reads the full stream of
_solve_relations: it searches the same root fibers and maps each onto the
other fibers of its orbit by inner automorphisms (_orbit_maps), sorting each
mapped fiber, so the stream keeps its lexicographic order.  The unchecked
sums and the surface sum only add up weights, so they ask for the stream
unordered: each solution of a root's search is followed at once by its
images, and no fiber is kept or sorted.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .algebra import RackTable
from .diagram import Diagram, SurfaceDiagramData
from .errors import DomainError, NonCocycleError
from .homology import Cochain, is_cocycle


@dataclass(frozen=True)
class Coloring:
    """An assignment of rack elements to arcs, arc id -> colors[arc]."""

    colors: tuple[int, ...]

    def is_constant(self) -> bool:
        return len(set(self.colors)) <= 1

    def is_surjective_onto(self, X: RackTable) -> bool:
        return set(self.colors) == set(range(X.size))


@dataclass(frozen=True)
class ShadowColoring:
    colors: tuple[int, ...]
    region_colors: tuple[int, ...]


@dataclass(frozen=True)
class SurfaceColoring:
    colors: tuple[int, ...]  # sheet id -> element


def _solve_relations(
    target: Diagram | SurfaceDiagramData,
    X: RackTable,
    roots: Sequence[int] | None = None,
    *,
    ordered: bool = True,
) -> Iterator[tuple[int, ...]]:
    """Colorings of a diagram's arcs, or of surface data's sheets (by a quandle).

    They are the assignments with colors[j] = colors[i] * colors[k] for every
    relation (i, j, k).  Returns an iterator over the color tuples in
    lexicographic order; the input is checked before it returns.  Given
    roots (increasing), variable 0 tries only those colors: the search
    (_search) covers just their fibers.  Without roots the stream holds every
    coloring, but the search still runs only at the least color of each
    Inn(X) orbit; the other fibers are that fiber mapped by inner
    automorphisms (_transported).  With ordered=False that full stream comes
    in no set order, each solution followed by its images, in O(1) memory
    (for callers that only add up weights).
    """
    if isinstance(target, SurfaceDiagramData):
        X.require_quandle()
        n_vars, relations = target.n_sheets, target.relations
    else:
        X.require_rack()
        n_vars = target.n_arcs
        relations = tuple((r.from_under, r.to_under, r.over) for r in target.relations)
    rels_of: list[list[int]] = [[] for _ in range(n_vars)]
    for idx, (i, j, k) in enumerate(relations):
        for v in {i, j, k}:
            rels_of[v].append(idx)

    search = functools.partial(_search, X, relations, rels_of)
    if roots is not None:
        return search(roots)
    return _transported(X, search) if ordered else _streamed(X, search)


def _search(
    X: RackTable,
    relations: Sequence[tuple[int, int, int]],
    rels_of: list[list[int]],
    roots: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """The solutions with variable 0 in roots, in lexicographic order.

    rels_of[v] lists the relations that mention variable v.  The search
    always branches on the least unassigned variable and tries colors in
    increasing order, so solutions come out sorted and one at a time.  It
    keeps its own stack of branch points, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    n_vars = len(rels_of)
    n = X.size
    table = X.table
    assign: list[int | None] = [None] * n_vars
    trail: list[int] = []

    def set_var(v: int, c: int, work: list[int]) -> None:
        assign[v] = c
        trail.append(v)
        work.extend(rels_of[v])

    def propagate(start: int, color: int) -> bool:
        work: list[int] = []
        set_var(start, color, work)
        qi = 0
        while qi < len(work):
            i, j, k = relations[work[qi]]
            qi += 1
            ci, cj, ck = assign[i], assign[j], assign[k]
            if ck is not None:
                if ci is not None:
                    want = table[ci][ck]
                    if cj is None:
                        set_var(j, want, work)
                    elif cj != want:
                        return False
                elif cj is not None:
                    set_var(i, X.op_inv(cj, ck), work)
            elif ci is not None and cj is not None:
                cands = [b for b in range(n) if table[ci][b] == cj]
                if not cands:
                    return False
                if len(cands) == 1:
                    if assign[k] is None:
                        set_var(k, cands[0], work)
        return True

    all_colors = range(n)
    # Branch points [variable, colors to try, index of the next, trail
    # length on entry].
    stack = [[0, roots, 0, 0]]
    while stack:
        frame = stack[-1]
        var, colors, at, mark = frame
        while len(trail) > mark:
            assign[trail.pop()] = None
        if at == len(colors):
            stack.pop()
            continue
        frame[2] = at + 1
        if not propagate(var, colors[at]):
            continue
        nxt = next((v for v in range(var + 1, n_vars) if assign[v] is None), None)
        if nxt is not None:
            stack.append([nxt, all_colors, 0, len(trail)])
        else:
            yield tuple(assign)  # type: ignore[arg-type]


def _orbit_maps(X: RackTable) -> list[tuple[int, Sequence[int]]]:
    """Per color c, the root r of its Inn(X) orbit and a map g with g[r] = c.

    The roots are those of _orbit_fibers, and g (x -> g[x]) is a product of
    right translations, so it is an automorphism of X; at a root it is the
    identity, range(|X|).  The maps come from a BFS from each root over the
    translations.  Each translation permutes the finite set X, so the
    forward search reaches the whole orbit, for racks that are not quandles
    too.  O(|X|^2) steps, like X.orbits.
    """
    n = X.size
    table = X.table
    identity = range(n)
    maps: list[tuple[int, Sequence[int]] | None] = [None] * n
    for r in _orbit_fibers(X)[0]:
        maps[r] = (r, identity)
        queue = [r]
        for x in queue:
            g = maps[x][1]  # type: ignore[index]
            for y in range(n):
                z = table[x][y]
                if maps[z] is None:
                    maps[z] = (r, [table[v][y] for v in g])
                    queue.append(z)
    return maps  # type: ignore[return-value]


def _transported(
    X: RackTable, search: Callable[[Sequence[int]], Iterator[tuple[int, ...]]]
) -> Iterator[tuple[int, ...]]:
    """Every coloring, in order, from one search per Inn(X) orbit.

    search(colors) yields the solutions with variable 0 in colors.  Colors
    are visited in increasing order.  A root's fiber comes from the search;
    it is kept (while its orbit has colors left) only if the orbit has other
    colors.  The fiber of any other color c is the root's fiber mapped by
    c's automorphism g (see _orbit_maps), which sends colorings to colorings
    one-to-one, and then sorted.  A quandle with one orbit per element runs
    the plain search, one root after the other.
    """
    maps = _orbit_maps(X)
    last = {r: c for c, (r, _) in enumerate(maps)}
    fibers: dict[int, list[tuple[int, ...]]] = {}
    for c, (r, g) in enumerate(maps):
        if r != c:
            fiber = fibers[r] if c < last[r] else fibers.pop(r)
            yield from sorted(tuple(map(g.__getitem__, t)) for t in fiber)
        elif last[c] == c:
            yield from search([c])
        else:
            fibers[c] = list(search([c]))
            yield from fibers[c]


def _streamed(
    X: RackTable, search: Callable[[Sequence[int]], Iterator[tuple[int, ...]]]
) -> Iterator[tuple[int, ...]]:
    """Every coloring, in no set order, from one search per Inn(X) orbit.

    As _transported, but each solution t of a root's search is yielded with
    its images g(t) under the other maps of its orbit straight away, so
    nothing is kept and nothing is sorted.
    """
    others: dict[int, list[Sequence[int]]] = {r: [] for r in _orbit_fibers(X)[0]}
    for c, (r, g) in enumerate(_orbit_maps(X)):
        if r != c:
            others[r].append(g)
    for r, maps in others.items():
        for t in search([r]):
            yield t
            for g in maps:
                yield tuple(map(g.__getitem__, t))


def enumerate_colorings(D: Diagram, X: RackTable) -> list[Coloring]:
    """All colorings of the diagram's arcs by X, in lexicographic order.

    X must be at least a rack; if it is not a quandle the results are data of
    the blackboard-framed diagram only.
    """
    return [Coloring(t) for t in _solve_relations(D, X)]


def _orbit_fibers(X: RackTable) -> tuple[list[int], list[int]]:
    """One root color per Inn(X) orbit, and the weight of each root's fiber.

    Returns (roots, mult): roots holds the least element of each orbit, in
    increasing order; mult[x] is the size of x's orbit when x is a root (0
    otherwise).  Right translations map the fiber of a root one-to-one onto
    the fiber of every other color in its orbit (see the module docstring),
    so the fibers of the roots, each counted mult times, stand for all
    colorings, and for every quantity the translations preserve, such as
    surjectivity or a cocycle's weight.
    """
    mult = [0] * X.size
    for orbit in X.orbits:
        mult[min(orbit)] = len(orbit)
    return [x for x in range(X.size) if mult[x]], mult


def count_colorings(D: Diagram, X: RackTable) -> int:
    """The number of colorings of D by X, from one fiber per Inn(X) orbit."""
    roots, mult = _orbit_fibers(X)
    return sum(mult[colors[0]] for colors in _solve_relations(D, X, roots))


def _region_plan(D: Diagram):
    """A BFS spanning tree of the dual graph from face 0, and the other edges.

    Returns (tree, checks).  tree lists (face, parent, arc, forward) in BFS
    order: across that arc, face = parent * color if forward, else
    parent = face * color.  checks lists the (source, target, arc)
    transitions off the tree.  The diagram is a connected plane graph (the
    face trace checks it), so its dual is connected and the tree spans it.
    """
    transitions = D.face_transitions()
    adj: list[list[tuple[int, int, int, bool]]] = [[] for _ in range(D.n_faces)]
    for e, (src, dst, arc) in enumerate(transitions):
        adj[src].append((dst, arc, e, True))
        adj[dst].append((src, arc, e, False))
    reached = [True] + [False] * (D.n_faces - 1)
    tree: list[tuple[int, int, int, bool]] = []
    on_tree: set[int] = set()
    queue = [0]
    for f in queue:
        for g, arc, e, forward in adj[f]:
            if not reached[g]:
                reached[g] = True
                tree.append((g, f, arc, forward))
                on_tree.add(e)
                queue.append(g)
    assert all(reached), "the dual graph of a plane diagram is connected"
    checks = [t for e, t in enumerate(transitions) if e not in on_tree]
    return tree, checks


def _seeded_regions(
    D: Diagram, X: RackTable, roots: Sequence[int] | None = None, *, ordered: bool = True
) -> Iterator[tuple[tuple[int, ...], list[list[int]], Sequence[int]]]:
    """The region core: every arc coloring with its regions for all seeds.

    Yields (colors, perms, seeds) per arc coloring, in lexicographic order;
    roots, if given, restricts the color of arc 0, and ordered=False drops
    the order, as in _solve_relations.
    perms[f][s] is the color of face f when face 0 has color s (the seed):
    perms[0] is the identity, and each tree face applies one right
    translation x -> x * c, or its inverse, to its parent's list.  Every
    off-tree transition is compared as a whole list; seeds lists, in
    increasing order, the seeds on which all of them hold.
    """
    X.require_quandle()
    tree, checks = _region_plan(D)
    n = X.size
    right = [[X.table[x][c] for x in range(n)] for c in range(n)]
    left = [[X.op_inv(x, c) for x in range(n)] for c in range(n)]
    steps = [(f, parent, arc, right if forward else left) for f, parent, arc, forward in tree]
    identity = list(range(n))
    for colors in _solve_relations(D, X, roots, ordered=ordered):
        perms: list[list[int]] = [identity] * D.n_faces
        for f, parent, arc, cols in steps:
            col = cols[colors[arc]]
            perms[f] = [col[x] for x in perms[parent]]
        seeds: Sequence[int] = identity
        for src, dst, arc in checks:
            col = right[colors[arc]]
            want = [col[x] for x in perms[src]]
            got = perms[dst]
            if want != got:
                seeds = [s for s in seeds if want[s] == got[s]]
        yield colors, perms, seeds


def enumerate_shadow_colorings(D: Diagram, X: RackTable) -> list[ShadowColoring]:
    """All shadow colorings: arc colorings extended over the regions.

    Ordered by arc coloring (lexicographic), then by the color of region 0.
    The region colors for every choice of region 0 come from one pass of
    the region core per arc coloring; a choice survives only if every
    transition between regions holds (for a quandle all of them do, so a
    diagram has |X| shadow colorings per arc coloring).
    """
    out = []
    for colors, perms, seeds in _seeded_regions(D, X):
        regions = list(zip(*perms))
        out.extend(ShadowColoring(colors, regions[s]) for s in seeds)
    return out


def enumerate_surface_colorings(
    SD: SurfaceDiagramData, X: RackTable
) -> list[SurfaceColoring]:
    """All sheet colorings satisfying every double-curve relation."""
    return [SurfaceColoring(t) for t in _solve_relations(SD, X)]


def lift_coloring(
    D: Diagram, X: RackTable, rho: Coloring, d: int, phi: Cochain
) -> list[Coloring]:
    """Colorings of D by the abelian extension E(X, Z_d, phi) lying over rho.

    The lift condition is an affine constraint on the Z_d part along the
    under-strands; it is solvable for all seeds or for none, so the result
    has either 0 or d^(free classes) elements.
    """
    if phi.degree != 2:
        raise DomainError("lift needs a degree-2 cochain")
    if phi.modulus != d:
        raise DomainError("cochain modulus does not match the extension modulus")
    if len(rho.colors) != D.n_arcs:
        raise DomainError("coloring does not match the diagram")
    check = is_cocycle(X, phi, "Q")
    if not check:
        raise NonCocycleError(f"lift needs a 2-cocycle: {check.reason} at {check.witness}")
    n = X.size
    offsets: list[list[tuple[int, int]]] = [[] for _ in range(D.n_arcs)]
    for rel in D.relations:
        off = phi.value((rho.colors[rel.from_under], rho.colors[rel.over]))
        offsets[rel.from_under].append((rel.to_under, off))
        offsets[rel.to_under].append((rel.from_under, -off))

    base: list[int | None] = [None] * D.n_arcs
    classes: list[list[int]] = []
    for start in range(D.n_arcs):
        if base[start] is not None:
            continue
        members = [start]
        base[start] = 0
        stack = [start]
        ok = True
        while stack:
            a = stack.pop()
            for b, off in offsets[a]:
                want = (base[a] + off) % d
                if base[b] is None:
                    base[b] = want
                    members.append(b)
                    stack.append(b)
                elif base[b] != want:
                    ok = False
        if not ok:
            return []
        classes.append(members)

    class_of = [0] * D.n_arcs
    for ci, members in enumerate(classes):
        for a in members:
            class_of[a] = ci
    lifts = [
        Coloring(tuple(
            (base[a] + shift[class_of[a]]) % d * n + rho.colors[a]  # type: ignore[operator]
            for a in range(D.n_arcs)
        ))
        for shift in itertools.product(range(d), repeat=len(classes))
    ]
    lifts.sort(key=lambda c: c.colors)
    return lifts
