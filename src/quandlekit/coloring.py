"""Enumeration of colorings, shadow colorings and surface colorings.

The solver assigns colors to a seed variable, then lets the crossing relations
force everything they can (two known colors at a crossing determine the third
through the operation or its inverse), branching only where nothing is forced.
It streams its solutions in lexicographic order in (arc id, element index), so
invariant computations and golden files are reproducible, and counts and
state sums never hold more than one coloring.

Shadow colorings rest on one fact: by a quandle, an arc coloring of a
connected diagram extends over the regions in exactly one way once the color
of one region is chosen (Carter, Kamada and Saito, Geometric interpretations
of quandle homology, JKTR 10, 2001), so a diagram has |X| shadow colorings
per arc coloring.  The region core builds the extensions: per diagram it
plans a spanning tree of the dual graph from region 0; per arc coloring it
carries the region colors for all |X| choices of the region-0 color at
once, one list per region, each got from its parent's list by one right
translation.  Listings and the shadow state sum read that core.

Every search runs one fiber per orbit.  Each right translation x -> x * y
of a rack is an automorphism, so it maps the colorings with arc 0 (or sheet
0) colored x one-to-one onto those colored x * y; fibers over one Inn(X)
orbit are equally large (_orbit_fibers), and the translations preserve
surjectivity and a cocycle's weight.  Everything that needs every coloring
reads the full stream of _solve_relations: it searches the same root
fibers and maps each onto the other fibers of its orbit by inner
automorphisms (_orbit_maps), sorting each mapped fiber, so the stream keeps
its lexicographic order.  Callers that only add up weights ask for it
unordered: each solution of a root's search is followed at once by its
images, and no fiber is kept or sorted.

Braid closures have a second engine.  The colorings of the closure of a
braid are the fixed points of the braid's permutation of X^s, and a shadow
coloring adds the color of the region left of the first strand, so it is a
fixed point in X^(s+1).  _closure_histogram applies one period of the word
to every state at once and walks the cycles of the resulting permutation:
the closure's colorings, with their 2- or 3-cochain weights, follow for any
power of the period at no extra cost, so torus:3:q takes the same time for
every q.

Every count and state sum is one histogram of weights (a count has d = 1),
taken by _histogram, which alone decides the path:

- A shadow count is |X| times the arc count, on both paths below.
- A braid word takes the engine when its states number at most |X| times
  the crossings of its closure, the closure the search would build
  instead; the rule reads input sizes only.  Counts have the states X^s,
  a shadow state sum X^(s+1).  --surjective counts never take the engine.
- Otherwise a braid word is closed (braid_closure) and searched.  Counts,
  surjective and surface counts too, and the checked 2-cocycle and shadow
  sums read one fiber per orbit, each weighted by its orbit size.
  Unchecked sums and every surface sum (surface data is not checked to
  close up) weigh the unordered full stream.
- Listings always read the ordered full stream.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .algebra import RackTable
from .diagram import BraidWord, Diagram, SurfaceDiagramData, braid_closure
from .errors import DomainError, NonCocycleError
from .homology import Cochain, CocycleCheck, _budget_cache, is_cocycle


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


def count_colorings(D: Diagram | BraidWord, X: RackTable) -> int:
    """The number of colorings of D by X, from one fiber per Inn(X) orbit.

    D may be a braid word: its closure's colorings are then counted as the
    fixed points of the braid's permutation when the path rule admits it
    (see the module docstring), else on the closure.
    """
    return _histogram(D, X)[0]


def _histogram(
    target: Diagram | BraidWord | SurfaceDiagramData,
    X: RackTable,
    cochain: Cochain | None = None,
    *,
    shadow: bool = False,
    surjective: bool = False,
    check: bool = True,
) -> list[int]:
    """Per k in Z_d, the (shadow or surface) colorings of target of weight k.

    The one entry behind every count and state sum; it takes the path the
    module docstring describes.  Without a cochain d = 1 and every coloring
    counts.  A 2-cochain phi weighs each crossing phi(under, over); with
    shadow, a 3-cochain theta weighs it theta(region, under, over); on
    surface data theta weighs each triple point theta(lower, middle, upper).
    Weights are signed.  surjective keeps the colorings that use every
    element; check says that the cochain passed the cocycle check, so a sum
    on a diagram may read one fiber per orbit.
    """
    n = X.size
    if shadow and cochain is None:
        X.require_quandle()
        return [n * _histogram(target, X, surjective=surjective)[0]]
    if isinstance(target, BraidWord):
        k = target.strands + shadow
        limit = n * len(target.letters) * target.power
        if not surjective and k <= limit.bit_length() and n**k <= limit:
            return _closure_histogram(target, X, cochain)
        target = braid_closure(target)
    surface = isinstance(target, SurfaceDiagramData)
    if cochain is None or (check and not surface):
        roots, mult = _orbit_fibers(X)
    else:
        roots, mult = None, [1] * n
    if shadow:
        found = _seeded_regions(target, X, roots, ordered=False)
    else:
        found = _solve_relations(target, X, roots, ordered=False)
    if surjective:
        found = (f for f in found if len(set(f[0] if shadow else f)) == n)
    d = 1 if cochain is None else cochain.modulus
    hist = [0] * d
    if cochain is None:
        for colors in found:
            hist[0] += mult[colors[0]]
    elif surface:
        value = cochain.value
        for colors in found:
            total = 0
            for lo, mid, up, sign in target.triple_points:
                total += sign * value((colors[lo], colors[mid], colors[up]))
            hist[total % d] += 1
    elif shadow:
        # Per arc coloring each crossing adds the vector theta(perms[region][s],
        # under, over) over the colors s of region 0: the theta row of its
        # (under, over) colors, read through the region's list.
        rows: dict[tuple[int, int], list[int]] = {}  # (under, over) -> theta(., under, over)
        for (x, u, o), v in cochain.values.items():
            if 0 <= min(x, u, o) and max(x, u, o) < n:
                rows.setdefault((u, o), [0] * n)[x] = v
        crossings = [(y, rel.from_under, rel.over, rel.sign)
                     for rel, y in zip(target.relations, target.shadow_weight_regions)]
        for colors, perms in found:
            totals = [0] * n
            for y, under, over, sign in crossings:
                row = rows.get((colors[under], colors[over]))
                if row is not None:
                    totals = [t + sign * row[x] for t, x in zip(totals, perms[y])]
            weight = mult[colors[0]]
            for t in totals:
                hist[t % d] += weight
    else:
        weight = [[cochain.value((u, o)) for o in range(n)] for u in range(n)]
        crossings = [(rel.from_under, rel.over, rel.sign) for rel in target.relations]
        for colors in found:
            total = 0
            for under, over, sign in crossings:
                total += sign * weight[colors[under]][colors[over]]
            hist[total % d] += mult[colors[0]]
    return hist


# --- braid closures as fixed points -------------------------------------------


def _closure_histogram(
    word: BraidWord, X: RackTable, cochain: Cochain | None = None
) -> list[int]:
    """Per k in Z_d, the colorings of the closure of word of weight k.

    A braid acts on X^s by s_i: (a, b) -> (b, a * b) on strands i, i+1, and
    s_i^-1: (a, b) -> (c, a) with c = b *^-1 a; the colorings of its closure
    are the fixed points (Fenn and Rourke, JKTR 1, 1992).  The period
    (word.letters) is applied once to every state at once, one list per
    strand, which gives its permutation P and a weight per state; each cycle
    of P of length L is fixed by P^power exactly when L divides power, and
    then each of its L states has weight (power / L) times the cycle's
    weight sum.  So the cost does not depend on the power.

    A 3-cochain means the shadow sum: the states are then (y0, x) in
    X^(s+1), y0 the color of the region left of strand 1; the region left
    of strand i is r_(i-1) = r_(i-2) * x_(i-1), and a letter on strands
    i, i+1 changes only r_i.  The weight of s_i is phi(a, b) for a
    2-cochain, theta(r_(i-1), a, b) for a 3-cochain, of modulus d; that of
    s_i^-1 is -phi(c, a), or -theta(r_(i-1), c, a) (the source under-arc,
    then the over-arc, as in the crossing relations of braid_closure).
    Without a cochain every coloring counts, in position 0 (d = 1).
    """
    shadow = cochain is not None and cochain.degree == 3
    if shadow:
        X.require_quandle()
    else:
        X.require_rack()
    n, table = X.size, X.table
    d = 1 if cochain is None else cochain.modulus
    weight = None
    if shadow:
        weight = [[[cochain.value((y, u, o)) for o in range(n)] for u in range(n)]
                  for y in range(n)]
    elif cochain is not None:
        weight = [[cochain.value((u, o)) for o in range(n)] for u in range(n)]
    under_of = [[X.op_inv(b, a) for b in range(n)] for a in range(n)]  # c * a = b
    k = word.strands + shadow
    size = n**k
    # Column p lists digit p of every state, states numbered base n.
    cols = [[c for c in range(n) for _ in range(n ** (k - 1 - p))] * n**p for p in range(k)]
    strands = cols[shadow:]
    regions = None
    if shadow:
        regions = cols[:1]
        for x in strands[:-1]:
            regions.append([table[r][c] for r, c in zip(regions[-1], x)])
    totals = [0] * size
    for i, sign in word.letters:
        a, b = strands[i - 1], strands[i]
        if sign == 1:
            under, over = a, b
            strands[i - 1], strands[i] = b, [table[u][v] for u, v in zip(a, b)]
        else:
            under, over = [under_of[u][v] for u, v in zip(a, b)], a
            strands[i - 1], strands[i] = under, a
        if regions is not None:
            left = regions[i - 1]
            totals = [t + sign * weight[r][u][v]
                      for t, r, u, v in zip(totals, left, under, over)]
            regions[i] = [table[r][c] for r, c in zip(left, strands[i - 1])]
        elif weight is not None:
            totals = [t + sign * weight[u][v] for t, u, v in zip(totals, under, over)]
    image = [0] * size
    for col in cols[:shadow] + strands:
        image = [m * n + c for m, c in zip(image, col)]
    hist = [0] * d
    seen = bytearray(size)
    for start in range(size):
        if seen[start]:
            continue
        length = total = 0
        j = start
        while not seen[j]:
            seen[j] = 1
            length += 1
            total += totals[j]
            j = image[j]
        if word.power % length == 0:
            hist[word.power // length * total % d] += length
    return hist


def _region_plan(D: Diagram) -> list[tuple[int, int, int, bool]]:
    """A BFS spanning tree of the dual graph from face 0.

    Lists (face, parent, arc, forward) in BFS order: across that arc,
    face = parent * color if forward, else parent = face * color.  The
    diagram is a connected plane graph (the face trace checks it), so its
    dual is connected and the tree spans it.
    """
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(D.n_faces)]
    for src, dst, arc in D.face_transitions():
        adj[src].append((dst, arc, True))
        adj[dst].append((src, arc, False))
    reached = [True] + [False] * (D.n_faces - 1)
    tree: list[tuple[int, int, int, bool]] = []
    queue = [0]
    for f in queue:
        for g, arc, forward in adj[f]:
            if not reached[g]:
                reached[g] = True
                tree.append((g, f, arc, forward))
                queue.append(g)
    assert all(reached), "the dual graph of a plane diagram is connected"
    return tree


def _seeded_regions(
    D: Diagram, X: RackTable, roots: Sequence[int] | None = None, *, ordered: bool = True
) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """The region core: every arc coloring with its regions for all seeds.

    Yields (colors, perms) per arc coloring, in lexicographic order; roots,
    if given, restricts the color of arc 0, and ordered=False drops the
    order, as in _solve_relations.  perms[f][s] is the color of face f when
    face 0 has color s (the seed): perms[0] is the identity, and each tree
    face applies one right translation x -> x * c, or its inverse, to its
    parent's list.  By the extension fact (module docstring) every column
    of perms is a shadow coloring.
    """
    X.require_quandle()
    n = X.size
    right = [[X.table[x][c] for x in range(n)] for c in range(n)]
    left = [[X.op_inv(x, c) for x in range(n)] for c in range(n)]
    tree = _region_plan(D)
    steps = [(f, parent, arc, right if forward else left) for f, parent, arc, forward in tree]
    identity = list(range(n))
    for colors in _solve_relations(D, X, roots, ordered=ordered):
        perms: list[list[int]] = [identity] * D.n_faces
        for f, parent, arc, cols in steps:
            col = cols[colors[arc]]
            perms[f] = [col[x] for x in perms[parent]]
        yield colors, perms


def enumerate_shadow_colorings(D: Diagram, X: RackTable) -> list[ShadowColoring]:
    """All shadow colorings: arc colorings extended over the regions.

    Ordered by arc coloring (lexicographic), then by the color of region 0.
    The region colors for every choice of region 0 come from one pass of
    the region core per arc coloring, so a diagram has |X| shadow colorings
    per arc coloring.
    """
    return [ShadowColoring(colors, regions)
            for colors, perms in _seeded_regions(D, X) for regions in zip(*perms)]


def enumerate_surface_colorings(
    SD: SurfaceDiagramData, X: RackTable
) -> list[SurfaceColoring]:
    """All sheet colorings satisfying every double-curve relation."""
    return [SurfaceColoring(t) for t in _solve_relations(SD, X)]


@_budget_cache
def _lift_verdict(
    X: RackTable, degree: int, modulus: int, items: tuple[tuple[tuple[int, ...], int], ...]
) -> CocycleCheck:
    """``is_cocycle`` in theory Q of the cochain with these values, once per cochain.

    ``items`` is ``tuple(phi.values.items())``: hashable, and in phi's own
    order, so the witness is the one ``is_cocycle(X, phi)`` reports.
    """
    return is_cocycle(X, Cochain(degree, modulus, dict(items)), "Q")


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
    check = _lift_verdict(X, phi.degree, phi.modulus, tuple(phi.values.items()))
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
