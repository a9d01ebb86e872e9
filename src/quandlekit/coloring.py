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
plans a spanning tree of the dual graph from region 0.  A region's colors
for all |X| choices of the region-0 color form a permutation of X, its
parent's followed by one right translation or its inverse, so an element of
Inn(X).  The core interns these permutations in a table, with a successor
table from (permutation, translation) to permutation filled on first use:
an arc coloring costs one lookup per tree face, and a tuple is built only on
a miss.  A listing keeps one table, of at most |Inn(X)| permutations (54 for
the 27-element Alexander kei), and reads each face's permutation by its
index; a sum interns the first faces x |X| permutations only and builds any
other for the one arc coloring that needs it, so its memory stays bounded
by its inputs.

Every search runs one fiber per orbit.  Each right translation x -> x * y
of a rack is an automorphism, so it maps the colorings with arc 0 (or sheet
0) colored x one-to-one onto those colored x * y; fibers over one Inn(X)
orbit are equally large (_orbit_fibers), and the translations preserve
surjectivity and a cocycle's weight.  Everything that needs every coloring
in order reads one store of the root fibers (_root_fibers) through
_transported, which maps each onto the other fibers of its orbit by inner
automorphisms (_orbit_maps).  This ordered stream carries each coloring
as a word, a str whose code point i is the color of variable i: a fiber
is mapped with one str.translate per word and sorted as strs, so the
per-color work runs in C, and the stream keeps its lexicographic order
(all its words are equally long).  A root fiber is kept as a list only if
its orbit has other colors; a one-color orbit's fiber is its lazy search.
The enumerators read the words back as tuples (_ordered, the one place
words are decoded).  Sums that weigh every coloring read the full stream
unordered (_streamed): each solution of a root's search is followed at
once by its images, and no fiber is kept or sorted.  The region core runs
no search: it extends the arc colorings of the stream it is handed.

Braid closures have a second engine.  The colorings of the closure of a
braid are the fixed points of the braid's permutation of X^s, and a shadow
coloring adds the color of the region left of the first strand, so it is a
fixed point in X^(s+1).  _closure_histogram applies one period of the word
to every state at once and walks the cycles of the resulting permutation:
the closure's colorings, with their 2- or 3-cochain weights, follow for any
power of the period at no extra cost, so torus:3:q takes the same time for
every q.

Counts by an affine rack have a third path, with no search and no state.
A builtin rack is affine, a*b = Ta + (1-T)b on M = Z_m^deg (Joyce, JPAA 23,
1982), and carries its module data (m, T, T^-1) (RackTable.affine).  So its
colorings are the kernel of a linear map over Z_m: for a braid word, of
B^power - I, B the Burau matrix of the period at T, built letter by letter
and powered by squaring; for a diagram or surface data, of the relations
T x_i + (1 - T) x_k - x_j = 0.  The kernel's size comes off the Smith
diagonal of the one elimination core (_affine_count), so a count costs a
few products of N x N matrices, N = strands x deg, at any power.

Every count and state sum is one histogram of weights (a count has d = 1),
read off one table of the cochain's values on either path (_weights, off
homology's tail rows) and taken by _histogram, which alone decides the path:

- A shadow count is |X| times the arc count, on every path below.
- A count by an affine rack, not --surjective, takes the linear route, on
  any target.  Sums, --surjective counts and listings keep the paths
  below, and so does every count by a rack file or a conjugation quandle.
- A braid word takes the engine when its states number at most |X| times
  the crossings of its closure, the closure the search would build
  instead; the rule reads input sizes only, through the comparison the
  chain-basis budget uses (_budget.within).  Counts have the states X^s,
  a shadow state sum X^(s+1).  --surjective counts never take the engine.
- Otherwise a braid word is closed (braid_closure) and searched.  Counts,
  surjective and surface counts too, and the checked 2-cocycle and shadow
  sums read one fiber per orbit, each weighted by its orbit size.
  Unchecked sums and every surface sum (surface data is not checked to
  close up) weigh the unordered full stream.  A shadow sum hands its
  stream to the region core.

Every listing is taken by _listing, so no other module knows how a
coloring is encoded: arc and sheet rows from the ordered stream's words,
shadow rows from the region core's table over that stream.  An arc or
sheet listing keeps the root fibers and no other row: it counts from them
(each fiber times its orbit size) and streams the transported words.
Every listing counts before it formats a row, and formats each row only
as it is read.
"""

from __future__ import annotations

import functools
import itertools
from collections import abc
from math import gcd
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, overload

from . import _budget
from ._util import Record
from .algebra import RackTable
from .diagram import BraidWord, Diagram, SurfaceDiagramData, braid_closure
from .errors import DomainError, NonCocycleError
from .homology import Cochain, _tail_rows, is_cocycle
from .snf import cokernel_invariants


class Coloring(Record):
    """An assignment of rack elements to arcs, arc id -> colors[arc]."""

    colors: tuple[int, ...]


class ShadowColoring(Record):
    colors: tuple[int, ...]
    region_colors: tuple[int, ...]


class ShadowColorings(abc.Sequence[ShadowColoring]):
    """The shadow colorings of a diagram, held as the region core gives them.

    rows lists (colors, at) per arc coloring and perms is the core's table:
    with region 0 colored s, face f has color perms[at[f]][s].  The items
    are ShadowColoring objects, built on access, ordered by arc coloring,
    then by s; a slice gives a list of them.
    """

    def __init__(self, size: int, perms: list[tuple[int, ...]],
                 rows: list[tuple[tuple[int, ...], list[int]]]) -> None:
        self.size, self.perms, self.rows = size, perms, rows

    def __len__(self) -> int:
        return self.size * len(self.rows)

    @overload
    def __getitem__(self, k: int) -> ShadowColoring: ...

    @overload
    def __getitem__(self, k: slice) -> list[ShadowColoring]: ...

    def __getitem__(self, k: int | slice) -> ShadowColoring | list[ShadowColoring]:
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        colors, at = self.rows[k // self.size]  # floor division: k < 0 counts from the end
        s = k % self.size
        return ShadowColoring(colors, tuple([self.perms[j][s] for j in at]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, abc.Sequence) and list(self) == list(other)


class SurfaceColoring(Record):
    colors: tuple[int, ...]  # sheet id -> element


def _searcher(
    target: Diagram | SurfaceDiagramData, X: RackTable
) -> Callable[[Sequence[int]], Iterator[tuple[int, ...]]]:
    """_search bound to target's relations, once X passes the axiom check.

    Arcs need a rack, the sheets of surface data a quandle.
    """
    if isinstance(target, SurfaceDiagramData):
        X.require_quandle()
    else:
        X.require_rack()
    n_vars, relations = _relations(target)
    rels_of: list[list[int]] = [[] for _ in range(n_vars)]
    for idx, (i, j, k) in enumerate(relations):
        for v in {i, j, k}:
            rels_of[v].append(idx)

    return functools.partial(_search, X, relations, rels_of)


def _relations(
    target: Diagram | SurfaceDiagramData,
) -> tuple[int, Sequence[tuple[int, int, int]]]:
    """The variables (arcs or sheets) and the relations (i, j, k): x_j = x_i * x_k."""
    if isinstance(target, SurfaceDiagramData):
        return target.n_sheets, target.relations
    return target.n_arcs, tuple((r.from_under, r.to_under, r.over) for r in target.relations)


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
    too.  O(|X|^2) steps, one per table entry, even where X.orbits reads
    one row per orbit (affine X).
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


def _root_fibers(
    X: RackTable, search: Callable[[Sequence[int]], Iterator[tuple[int, ...]]]
) -> dict[int, list[str] | Iterator[str]]:
    """Per Inn(X) orbit root r (see _orbit_fibers), its fiber as words, in order.

    A word is a str whose code point i is the color of variable i.  The
    words of one stream are equally long, so code-point order is the
    lexicographic order of the colorings.  search(colors) yields the
    solutions with variable 0 in colors, as tuples; each root is searched
    once, and each solution encoded once.  The fiber of a root whose orbit
    has other colors is a list, searched here, since _transported reads it
    again for each of them; that of a one-color orbit is the lazy search,
    read once, so a quandle with one orbit per element keeps no fiber.
    """
    def words(r: int) -> Iterator[str]:  # searches on first read
        for t in search([r]):
            yield "".join(map(chr, t))

    roots, mult = _orbit_fibers(X)
    return {r: words(r) if mult[r] == 1 else list(words(r)) for r in roots}


def _transported(X: RackTable, fibers: Mapping[int, Iterable[str]]) -> Iterator[str]:
    """Every coloring in fibers' orbits as a word, in order, from the root fibers.

    fibers maps each Inn(X) orbit root to its fiber, as _root_fibers gives
    it (a listing may have filtered it).  Colors are visited in increasing
    order: a root yields its own words; any other color c yields the root's
    fiber mapped by c's automorphism g (see _orbit_maps), which sends
    colorings to colorings one-to-one: one str.translate per word, through
    the table x -> chr(g[x]), and then sorted.
    """
    for c, (r, g) in enumerate(_orbit_maps(X)):
        if r == c:
            yield from fibers[r]
        else:
            tab = [chr(x) for x in g]
            yield from sorted([w.translate(tab) for w in fibers[r]])


def _streamed(
    X: RackTable, search: Callable[[Sequence[int]], Iterator[tuple[int, ...]]]
) -> Iterator[tuple[int, ...]]:
    """Every coloring, in no set order, from one search per Inn(X) orbit.

    As _root_fibers and _transported, but each solution t of a root's
    search is yielded with its images g(t) under the other maps of its
    orbit straight away, so nothing is kept and nothing is sorted.
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


def _ordered(
    target: Diagram | SurfaceDiagramData, X: RackTable
) -> Iterator[tuple[int, ...]]:
    """Every coloring of target's arcs (or sheets), as tuples, in order.

    The words of _transported over _root_fibers, read back as tuples: the
    one place words are decoded.  X passes the axiom check, and the fibers
    of roots whose orbit has other colors are searched, before it returns.
    """
    words = _transported(X, _root_fibers(X, _searcher(target, X)))
    return (tuple(map(ord, w)) for w in words)


def enumerate_colorings(D: Diagram | BraidWord, X: RackTable) -> list[Coloring]:
    """All colorings of the diagram's arcs by X, in lexicographic order.

    X must be at least a rack; if it is not a quandle the results are data of
    the blackboard-framed diagram only.  A braid word is listed on its closure.
    """
    if isinstance(D, BraidWord):
        D = braid_closure(D)
    return [Coloring(t) for t in _ordered(D, X)]


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
    """The number of colorings of D by X, by the path rule of the module docstring.

    By an affine (builtin) rack the count is the size of a kernel over Z_m,
    for a braid word that of B^power - I.  Otherwise it comes from one
    fiber per Inn(X) orbit, and a braid word's closure is counted as the
    fixed points of the braid's permutation when the rule admits it, else
    on the closure.
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
    module docstring describes: a shadow count is |X| times the count, a
    count by an affine X (not surjective) goes to _affine_count, a braid
    word goes to the engine when its states are few enough, and everything
    else to the search.  Without a cochain d = 1 and every coloring
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
    if cochain is None and not surjective and X.affine:
        return [_affine_count(target, X)]
    if isinstance(target, BraidWord):
        k = target.strands + shadow
        limit = n * len(target.letters) * target.power
        if not surjective and _budget.within(n, k, limit):
            return _closure_histogram(target, X, cochain)
        target = braid_closure(target)
    surface = isinstance(target, SurfaceDiagramData)
    search = _searcher(target, X)
    if cochain is None or (check and not surface):
        roots, mult = _orbit_fibers(X)
        found = search(roots)
    else:
        mult = [1] * n
        found = _streamed(X, search)
    if shadow:
        found = _region_core(target, X, found, listing=False)
    if surjective:  # shadow counts returned above, and sums are never surjective
        found = (f for f in found if len(set(f)) == n)
    d = 1 if cochain is None else cochain.modulus
    hist = [0] * d
    if cochain is None:
        for colors in found:
            hist[0] += mult[colors[0]]
        return hist
    w, zero = _weights(cochain, n)
    if surface:
        for colors in found:
            total = 0
            for lo, mid, up, sign in target.triple_points:
                total += sign * w[colors[mid]][colors[up]][colors[lo]]
            hist[total % d] += 1
    elif shadow:
        # Per arc coloring each crossing adds theta(region, under, over) for
        # every color of region 0: its theta row read through the region's
        # permutation.
        crossings = [(y, rel.from_under, rel.over, rel.sign)
                     for rel, y in zip(target.relations, target.shadow_weight_regions)]
        for colors, at, perms in found:
            totals = [0] * n
            for y, under, over, sign in crossings:
                row = w[colors[under]][colors[over]]
                if row is not zero:
                    totals = [t + sign * row[x] for t, x in zip(totals, perms[at[y]])]
            weight = mult[colors[0]]
            for t in totals:
                hist[t % d] += weight
    else:
        crossings = [(rel.from_under, rel.over, rel.sign) for rel in target.relations]
        for colors in found:
            total = 0
            for under, over, sign in crossings:
                total += sign * w[colors[under]][colors[over]]
            hist[total % d] += mult[colors[0]]
    return hist


def _weights(cochain: Cochain, n: int) -> tuple[list, object]:
    """(w, zero): w[u][o] = phi(u, o) and zero = 0, or rows w[u][o][x] = theta(x, u, o).

    Read off ``_tail_rows``, which drops tuples with an entry outside X =
    range(n).  Every vanishing row is the one list zero, which a fold skips
    by identity.  O(nnz + n^2).
    """
    rows, zero = _tail_rows(cochain, n), [0] * n
    if cochain.degree == 2:
        return [list(w_u) for w_u in zip(*[rows.get((o,), zero) for o in range(n)])], 0
    return [[rows.get((u, o), zero) for o in range(n)] for u in range(n)], zero


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
    weight = None if cochain is None else _weights(cochain, n)[0]
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
            totals = [t + sign * weight[u][v][r]
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


# --- affine racks: counts by linear algebra -------------------------------------


def _affine_count(target: Diagram | BraidWord | SurfaceDiagramData, X: RackTable) -> int:
    """The colorings of target by an affine X, counted as the kernel of a linear map.

    With X.affine = (m, T, T^-1), a coloring is a vector over Z_m, deg = len(T)
    coordinates per variable.  A braid word's colorings are the fixed
    points of B^power on the strands, B the matrix of its period (_burau),
    so the kernel of B^power - I; B^power takes O(log power) products.
    Those of a diagram or surface data solve T x_i + (1 - T) x_k - x_j = 0
    at each relation (i, j, k) of _relations.  An N-column matrix A over
    Z_m has m^(N - r) times the product of gcd(e, m) over its invariant
    factors e in its kernel, r the rank of an integer lift of A; the one
    elimination core gives both (snf.cokernel_invariants).
    """
    m, T, T_inv = X.affine
    deg = len(T)
    if isinstance(target, BraidWord):
        B = _matrix_power(_burau(target, m, T, T_inv), target.power, m)
        n_vars = len(B)
        equations = [{j: w for j, v in enumerate(row) if (w := v - (i == j))}
                     for i, row in enumerate(B)]
    else:
        arcs, relations = _relations(target)
        n_vars = arcs * deg
        equations = []
        for i, j, k in relations:
            for r, row in enumerate(T):
                eq: dict[int, int] = {}
                for c, t in enumerate(row):
                    eq[i * deg + c] = eq.get(i * deg + c, 0) + t
                    eq[k * deg + c] = eq.get(k * deg + c, 0) + (r == c) - t
                eq[j * deg + r] = eq.get(j * deg + r, 0) - 1
                equations.append({x: w for x, v in eq.items() if (w := v % m)})
    free, torsion = cokernel_invariants(equations, n_vars)
    count = m**free
    for e in torsion:
        count *= gcd(e, m)
    return count


def _burau(word: BraidWord, m: int, T: Sequence[Sequence[int]],
           T_inv: Sequence[Sequence[int]]) -> list[list[int]]:
    """The matrix of word's period on the strands' colors, mod m: its Burau matrix at T.

    Strand p holds rows p deg ... (p + 1) deg - 1.  As _closure_histogram,
    s_i sends the colors (a, b) of strands i, i+1 to (b, Ta + (1 - T)b),
    and s_i^-1 sends them to (c, a) with c = (1 - T^-1)a + T^-1 b.  The
    product is built letter by letter from the identity: a letter replaces
    the 2 deg rows of its two strands by combinations of them, one pass
    over their columns, so no letter costs an N x N product.
    """
    deg = len(T)

    def one_minus(A: Sequence[Sequence[int]]) -> list[list[int]]:
        return [[int(r == c) - v for c, v in enumerate(row)] for r, row in enumerate(A)]

    # The coefficient rows of a letter's new block, read against the rows (a, b).
    up = [tuple(x) + tuple(y) for x, y in zip(T, one_minus(T))]
    down = [tuple(x) + tuple(y) for x, y in zip(one_minus(T_inv), T_inv)]
    n = word.strands * deg
    P = [[int(r == c) for c in range(n)] for r in range(n)]
    for i, sign in word.letters:
        lo, mid, hi = (i - 1) * deg, i * deg, (i + 1) * deg
        a, b = P[lo:mid], P[mid:hi]
        cols = list(zip(*a, *b))
        new = [[sum(map(mul, coef, col)) % m for col in cols]
               for coef in (up if sign == 1 else down)]
        P[lo:hi] = b + new if sign == 1 else new + a
    return P


def _product(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], m: int) -> list[list[int]]:
    """AB mod m."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) % m for col in cols] for row in A]


def _matrix_power(B: list[list[int]], q: int, m: int) -> list[list[int]]:
    """B^q mod m for q >= 1, by repeated squaring."""
    out = None
    while True:
        if q & 1:
            out = B if out is None else _product(out, B, m)
        q >>= 1
        if not q:
            return out
        B = _product(B, B, m)


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


def _region_core(
    D: Diagram, X: RackTable, colorings: Iterable[tuple[int, ...]], *, listing: bool
) -> Iterator[tuple[tuple[int, ...], list[int], list[tuple[int, ...]]]]:
    """The region core: each arc coloring handed in, with its regions for all seeds.

    Yields (colors, at, perms) per coloring of D's arcs in colorings, in
    their order; it runs no search.  X is checked to be a quandle when the
    first is read, before the stream is.  perms is a table of permutations
    and face f has color perms[at[f]][s] when face 0 has color s (the
    seed): perms[0] is the identity, at[0] = 0, and each tree face applies
    one right translation x -> x * c, or its inverse, to its parent's
    permutation, so every permutation lies in Inn(X).  By the extension fact (module
    docstring) every seed gives a shadow coloring.

    The permutations are interned: the table keeps each distinct one the
    core meets, up to the limit below, and a successor table, filled on
    first use, maps (index, translation) to an index, the translation being
    c for x -> x * c and |X| + c for its inverse.  So an arc coloring costs
    one lookup per tree face, and a tuple is built only on a miss.  A
    listing (listing=True) holds every shadow coloring anyway: its table
    keeps every permutation, at most min(|Inn(X)|, faces x arc colorings),
    and only grows, so a yielded index stays valid.  For a sum
    (listing=False) the table interns the first faces x |X| permutations
    only.  A permutation missing from a full table is appended for the one
    arc coloring and dropped after the yield, so the caller reads it before
    the next.  Callers must not mutate the table.
    """
    X.require_quandle()
    n = X.size
    moves = ([[X.table[x][c] for x in range(n)] for c in range(n)]
             + [[X.op_inv(x, c) for x in range(n)] for c in range(n)])
    steps = [(f, parent, arc, 0 if forward else n)
             for f, parent, arc, forward in _region_plan(D)]
    n_faces = D.n_faces
    limit = float("inf") if listing else n_faces * n  # interned permutations
    perms = [tuple(range(n))]  # permutation index -> tuple
    index = {perms[0]: 0}  # interned tuple -> index
    succ = [[-1] * (2 * n)]  # succ[i][t]: index of perms[i] followed by translation t
    unknown = [-1] * (2 * n)  # the successors of an appended permutation, never written
    for colors in colorings:
        at = [0] * n_faces
        for f, parent, arc, shift in steps:
            i = at[parent]
            t = colors[arc] + shift
            j = succ[i][t]
            if j < 0:
                move = moves[t]
                p = tuple([move[x] for x in perms[i]])
                j = index.get(p, -1)
                if j < 0:
                    j = len(perms)
                    perms.append(p)
                    if j < limit:
                        index[p] = j
                        succ.append([-1] * (2 * n))
                    else:
                        succ.append(unknown)
                if j < limit and i < limit:
                    succ[i][t] = j
            at[f] = j
        yield colors, at, perms
        if len(perms) > limit:
            del perms[limit:], succ[limit:]


def enumerate_shadow_colorings(
    D: Diagram | BraidWord, X: RackTable
) -> ShadowColorings:
    """All shadow colorings: arc colorings extended over the regions.

    Ordered by arc coloring (lexicographic), then by the color of region 0.
    The region colors for every choice of region 0 come from one pass of
    the region core per arc coloring, so a diagram has |X| shadow colorings
    per arc coloring; they are kept as the core's table and one index per
    face per arc coloring.  A braid word is listed on its closure.
    """
    if isinstance(D, BraidWord):
        D = braid_closure(D)
    X.require_quandle()  # before the ordered stream searches
    rows: list[tuple[tuple[int, ...], list[int]]] = []
    perms: list[tuple[int, ...]] = []
    for colors, at, perms in _region_core(D, X, _ordered(D, X), listing=True):
        rows.append((colors, at))
    return ShadowColorings(X.size, perms, rows)


def enumerate_surface_colorings(
    SD: SurfaceDiagramData, X: RackTable
) -> list[SurfaceColoring]:
    """All sheet colorings satisfying every double-curve relation."""
    return [SurfaceColoring(t) for t in _ordered(SD, X)]


def _listing(target: Diagram | BraidWord | SurfaceDiagramData, X: RackTable, *,
             shadow: bool, surjective: bool) -> tuple[int, Iterator[str]]:
    """The count and the lazily formatted rows of a listing (module docstring).

    An arc or sheet listing keeps the root fibers (_root_fibers), each as a
    list, and no other row: the count is the sum of each root's fiber times
    its orbit size, and the rows are the words of _transported, mapped in C
    through one str.translate to the colors' names, each row formatted as
    it is read.  Shadow rows are read off the table that
    enumerate_shadow_colorings keeps, each permutation named once.
    surjective keeps the colorings whose arcs (or sheets) use every
    element; automorphisms preserve that, so arc and sheet listings filter
    the root fibers only.
    """
    if isinstance(target, BraidWord):
        target = braid_closure(target)
    n = X.size
    if not shadow:
        mult = _orbit_fibers(X)[1]
        fibers = {r: [w for w in fiber if not surjective or len(set(w)) == n]
                  for r, fiber in _root_fibers(X, _searcher(target, X)).items()}
        count = sum(mult[r] * len(fiber) for r, fiber in fibers.items())
        spaced = [str(x) + " " for x in range(n)]  # rstrip drops the last space
        words = _transported(X, fibers)
        return count, map(str.rstrip, map(str.translate, words, itertools.repeat(spaced)))
    shadows = enumerate_shadow_colorings(target, X)
    kept = [(c, at) for c, at in shadows.rows if not surjective or len(set(c)) == n]
    name = [str(x) for x in range(n)]
    named = [[name[x] for x in p] for p in shadows.perms]
    heads = ((" ".join([name[c] for c in colors]) + " | ", at) for colors, at in kept)
    return n * len(kept), (head + " ".join(col)
                           for head, at in heads for col in zip(*[named[j] for j in at]))


def lift_coloring(
    D: Diagram | BraidWord, X: RackTable, rho: Coloring, d: int, phi: Cochain
) -> list[Coloring]:
    """Colorings of D by the abelian extension E(X, Z_d, phi) lying over rho.

    The lift condition is an affine constraint on the Z_d part along the
    under-strands; it is solvable for all seeds or for none, so the result
    has either 0 or d^(free classes) elements.  A braid word is lifted on
    its closure.
    """
    if isinstance(D, BraidWord):
        D = braid_closure(D)
    if phi.degree != 2:
        raise DomainError("lift needs a degree-2 cochain")
    if phi.modulus != d:
        raise DomainError("cochain modulus does not match the extension modulus")
    if len(rho.colors) != D.n_arcs:
        raise DomainError("coloring does not match the diagram")
    if not all(0 <= c < X.size for c in rho.colors):
        raise DomainError(f"coloring has an entry outside 0..{X.size - 1}")
    for rel in D.relations:
        under, over = rho.colors[rel.from_under], rho.colors[rel.over]
        if X.table[under][over] != rho.colors[rel.to_under]:
            raise DomainError(f"coloring breaks the crossing relation at arc {rel.to_under}")
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
