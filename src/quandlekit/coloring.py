"""Enumeration of colorings, shadow colorings and surface colorings.

The solver assigns colors to a seed variable, then lets the crossing relations
force everything they can (two known colors at a crossing determine the third
through the operation or its inverse), branching only where nothing is forced.
Output order is always lexicographic in (arc id, element index) so invariant
computations and golden files are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

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
    n_vars: int,
    relations: Sequence[tuple[int, int, int]],
    X: RackTable,
    *,
    count_only: bool = False,
):
    """All assignments with colors[j] = colors[i] * colors[k] per relation.

    Returns a list of tuples in lexicographic order, or a count when
    count_only is set.  The search always branches on the least unassigned
    variable and tries colors in increasing order, so solutions come out
    sorted.  It keeps its own stack of branch points, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    X.require_rack()
    n = X.size
    if n_vars == 0:
        return 1 if count_only else [()]
    table = X.table
    rels_of: list[list[int]] = [[] for _ in range(n_vars)]
    for idx, (i, j, k) in enumerate(relations):
        for v in {i, j, k}:
            rels_of[v].append(idx)

    found: list[tuple[int, ...]] = []
    count = 0
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
        elif count_only:
            count += 1
        else:
            found.append(tuple(assign))  # type: ignore[arg-type]
    return count if count_only else found


def _diagram_relations(D: Diagram) -> list[tuple[int, int, int]]:
    return [(r.from_under, r.to_under, r.over) for r in D.relations]


def enumerate_colorings(D: Diagram, X: RackTable) -> list[Coloring]:
    """All colorings of the diagram's arcs by X, in lexicographic order.

    X must be at least a rack; if it is not a quandle the results are data of
    the blackboard-framed diagram only.
    """
    sols = _solve_relations(D.n_arcs, _diagram_relations(D), X)
    return [Coloring(t) for t in sols]


def count_colorings(D: Diagram, X: RackTable) -> int:
    return _solve_relations(D.n_arcs, _diagram_relations(D), X, count_only=True)


def _region_adjacency(D: Diagram) -> list[list[tuple[int, int, bool]]]:
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(D.n_faces)]
    for src, dst, arc in D.face_transitions():
        adj[src].append((dst, arc, True))
        adj[dst].append((src, arc, False))
    return adj


def _fill_regions(
    D: Diagram, X: RackTable, colors: Sequence[int], seed: int,
    adj: list[list[tuple[int, int, bool]]],
) -> tuple[int, ...] | None:
    region: list[int | None] = [None] * D.n_faces
    region[0] = seed
    stack = [0]
    while stack:
        f = stack.pop()
        rf = region[f]
        assert rf is not None
        for g, arc, forward in adj[f]:
            val = X.table[rf][colors[arc]] if forward else X.op_inv(rf, colors[arc])
            if region[g] is None:
                region[g] = val
                stack.append(g)
            elif region[g] != val:
                return None
    if any(v is None for v in region):
        return None
    return tuple(region)  # type: ignore[return-value]


def enumerate_shadow_colorings(D: Diagram, X: RackTable) -> list[ShadowColoring]:
    """All shadow colorings: arc colorings extended over the regions.

    For each coloring every element of X is tried as the color of region 0
    and propagated across arcs by the face condition; inconsistent seeds are
    dropped.
    """
    X.require_quandle()
    adj = _region_adjacency(D)
    out = []
    for col in enumerate_colorings(D, X):
        for seed in range(X.size):
            filled = _fill_regions(D, X, col.colors, seed, adj)
            if filled is not None:
                out.append(ShadowColoring(col.colors, filled))
    return out


def enumerate_surface_colorings(
    SD: SurfaceDiagramData, X: RackTable
) -> list[SurfaceColoring]:
    """All sheet colorings satisfying every double-curve relation."""
    X.require_quandle()
    sols = _solve_relations(SD.n_sheets, SD.relations, X)
    return [SurfaceColoring(t) for t in sols]


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
