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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

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
    target: Diagram | SurfaceDiagramData, X: RackTable, *, count_only: bool = False
):
    """Colorings of a diagram's arcs, or of surface data's sheets (by a quandle).

    They are the assignments with colors[j] = colors[i] * colors[k] for every
    relation (i, j, k).  Returns an iterator over the color tuples in
    lexicographic order, or their number when count_only is set.  The search
    always branches on the least unassigned variable and tries colors in
    increasing order, so solutions come out sorted and one at a time.  It
    keeps its own stack of branch points, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    if isinstance(target, SurfaceDiagramData):
        X.require_quandle()
        n_vars, relations = target.n_sheets, target.relations
    else:
        X.require_rack()
        n_vars = target.n_arcs
        relations = tuple((r.from_under, r.to_under, r.over) for r in target.relations)
    n = X.size
    if n_vars == 0:
        return 1 if count_only else iter([()])
    table = X.table
    rels_of: list[list[int]] = [[] for _ in range(n_vars)]
    for idx, (i, j, k) in enumerate(relations):
        for v in {i, j, k}:
            rels_of[v].append(idx)

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

    def solutions() -> Iterator[tuple[int, ...]]:
        # Branch points [variable, next color to try, trail length on entry].
        stack = [[0, 0, 0]]
        while stack:
            frame = stack[-1]
            var, color, mark = frame
            while len(trail) > mark:
                assign[trail.pop()] = None
            if color == n:
                stack.pop()
                continue
            frame[1] = color + 1
            if not propagate(var, color):
                continue
            nxt = next((v for v in range(var + 1, n_vars) if assign[v] is None), None)
            if nxt is not None:
                stack.append([nxt, 0, len(trail)])
            else:
                yield tuple(assign)  # type: ignore[arg-type]

    return sum(1 for _ in solutions()) if count_only else solutions()


def enumerate_colorings(D: Diagram, X: RackTable) -> list[Coloring]:
    """All colorings of the diagram's arcs by X, in lexicographic order.

    X must be at least a rack; if it is not a quandle the results are data of
    the blackboard-framed diagram only.
    """
    return [Coloring(t) for t in _solve_relations(D, X)]


def count_colorings(D: Diagram, X: RackTable) -> int:
    return _solve_relations(D, X, count_only=True)


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
    D: Diagram, X: RackTable
) -> Iterator[tuple[tuple[int, ...], list[list[int]], Sequence[int]]]:
    """The region core: every arc coloring with its regions for all seeds.

    Yields (colors, perms, seeds) per arc coloring, in lexicographic order.
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
    for colors in _solve_relations(D, X):
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
    check = is_cocycle(X, phi, "Q")
    if not check:
        raise NonCocycleError(f"lift needs a 2-cocycle: {check.reason} at {check.witness}")
    if phi.degree != 2:
        raise DomainError("lift needs a degree-2 cochain")
    if phi.modulus != d:
        raise DomainError("cochain modulus does not match the extension modulus")
    if len(rho.colors) != D.n_arcs:
        raise DomainError("coloring does not match the diagram")
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
