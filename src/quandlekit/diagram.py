"""Oriented knot/link diagrams and declarative knotted-surface data.

A diagram is a list of crossings.  Each crossing stores the four incident
edge-ends counterclockwise starting at the incoming under-edge, which edge
enters on top, and the crossing sign.  That is enough to recover arcs,
components, crossing relations, and the face structure (via rotation-system
face tracing), and it makes mirror/reverse pure quad rotations.

Sign convention: a crossing is positive when the under-strand direction is
the over-strand direction rotated a quarter turn counterclockwise.  For PD
input this reproduces the usual table convention (over-strand from the d-end
to the b-end means positive).  With the quad listed counterclockwise from the
incoming under-edge, the sign is therefore +1 exactly when the over-edge
enters at quad[3] and -1 when it enters at quad[1]; Crossing refuses a sign
that contradicts its quad, since the crossing relations of such a diagram
would describe another knot.

Co-orientation convention: the normal of an arc is its direction rotated a
quarter turn counterclockwise.  This sense makes the shadow state sum of the
right-handed trefoil 9 + 18t rather than its conjugate.

Braid words carry a power: torus_braid gives T(p, q) as one period word to
the power |q|, and braid_closure expands the power when it builds the
closure.  The word itself is what the coloring engine for braid closures
reads, and BraidWord.require_nonsplit refuses a split closure without
building it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from ._util import content_lines, union_classes
from .errors import DomainError, NonplanarError, ParseError


@dataclass(frozen=True)
class Crossing:
    """One crossing: edge ids counterclockwise from the incoming under-edge."""

    quad: tuple[int, int, int, int]
    over_in: int  # quad[1] or quad[3]
    sign: int

    def __post_init__(self) -> None:
        if self.over_in not in (self.quad[1], self.quad[3]):
            raise ParseError("over-edge must sit at position 1 or 3 of the quad")
        if self.sign != (1 if self.over_in == self.quad[3] else -1):
            raise ParseError(
                f"crossing sign {self.sign} contradicts the quad: it is +1 exactly "
                "when the over-edge enters at position 3, else -1"
            )

    @property
    def under_in(self) -> int:
        return self.quad[0]

    @property
    def under_out(self) -> int:
        return self.quad[2]

    @property
    def over_out(self) -> int:
        return self.quad[3] if self.over_in == self.quad[1] else self.quad[1]

    @property
    def over_in_position(self) -> int:
        return 1 if self.over_in == self.quad[1] else 3


@dataclass(frozen=True)
class CrossingRelation:
    """The crossing relation to_under = from_under * over, on arc ids."""

    over: int
    from_under: int
    to_under: int
    sign: int


@dataclass(frozen=True)
class Diagram:
    """An oriented link diagram; edges are 0..n_edges-1.

    A diagram with no crossings is the round unknot (one edge, one circle).
    Split diagrams (disconnected projections) are not supported.
    """

    n_edges: int
    crossings: tuple[Crossing, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.crossings:
            if self.n_edges != 1:
                raise ParseError("a crossing-free diagram must be the single unknot")
            return
        heads = [0] * self.n_edges
        tails = [0] * self.n_edges
        for c in self.crossings:
            for e in c.quad:
                if not 0 <= e < self.n_edges:
                    raise ParseError(f"edge id {e} out of range")
            heads[c.under_in] += 1
            heads[c.over_in] += 1
            tails[c.under_out] += 1
            tails[c.over_out] += 1
        for e in range(self.n_edges):
            if heads[e] != 1 or tails[e] != 1:
                raise ParseError(
                    f"edge {e} must enter one crossing and leave one crossing"
                )
        # Reject split projections: all edges must be connected via crossings.
        links = ((c.quad[0], e) for c in self.crossings for e in c.quad[1:])
        if len(union_classes(self.n_edges, links)) != 1:
            raise ParseError("split diagrams (disconnected projections) are unsupported")

    @property
    def label(self) -> str:
        return self.name or f"diagram({len(self.crossings)} crossings)"

    # -- strand structure ------------------------------------------------

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Partition of edges into link components."""
        if not self.crossings:
            return ((0,),)
        strands = [(c.under_in, c.under_out) for c in self.crossings]
        strands += [(c.over_in, c.over_out) for c in self.crossings]
        return union_classes(self.n_edges, strands)

    @cached_property
    def arcs(self) -> tuple[tuple[int, ...], ...]:
        """Arcs: maximal runs of edges joined through over-passages."""
        if not self.crossings:
            return ((0,),)
        return union_classes(
            self.n_edges, ((c.over_in, c.over_out) for c in self.crossings)
        )

    @cached_property
    def arc_of_edge(self) -> tuple[int, ...]:
        out = [0] * self.n_edges
        for i, arc in enumerate(self.arcs):
            for e in arc:
                out[e] = i
        return tuple(out)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    # -- face structure ----------------------------------------------------

    @cached_property
    def _face_data(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], dict]:
        """Faces as dart cycles plus the dart -> face index map.

        Darts are (edge, +1/-1).  Faces are traced with the rotation system
        given by the counterclockwise quads, so each face lies to the left of
        every dart on its boundary.
        """
        if not self.crossings:
            faces = (((0, 1),), ((0, -1),))
            return faces, {(0, 1): 0, (0, -1): 1}
        incoming_at: dict[tuple[int, int], tuple[int, int]] = {}
        outgoing: dict[tuple[int, int], tuple[int, int]] = {}
        for ci, c in enumerate(self.crossings):
            oi = c.over_in_position
            incoming_at[(c.under_in, 1)] = (ci, 0)
            incoming_at[(c.over_in, 1)] = (ci, oi)
            incoming_at[(c.under_out, -1)] = (ci, 2)
            incoming_at[(c.over_out, -1)] = (ci, 4 - oi)
            outgoing[(ci, 0)] = (c.under_in, -1)
            outgoing[(ci, oi)] = (c.over_in, -1)
            outgoing[(ci, 2)] = (c.under_out, 1)
            outgoing[(ci, 4 - oi)] = (c.over_out, 1)

        def next_dart(d: tuple[int, int]) -> tuple[int, int]:
            ci, p = incoming_at[d]
            return outgoing[(ci, (p - 1) % 4)]

        all_darts = [(e, s) for e in range(self.n_edges) for s in (1, -1)]
        face_of: dict[tuple[int, int], int] = {}
        faces: list[tuple[tuple[int, int], ...]] = []
        for start in all_darts:
            if start in face_of:
                continue
            cycle = []
            d = start
            while True:
                face_of[d] = len(faces)
                cycle.append(d)
                d = next_dart(d)
                if d == start:
                    break
            faces.append(tuple(cycle))
        expected = self.n_edges - len(self.crossings) + 2
        if len(faces) != expected:
            raise NonplanarError(
                f"face trace found {len(faces)} regions, expected {expected}; "
                "the diagram data is not planar"
            )
        return tuple(faces), face_of

    @property
    def faces(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._face_data[0]

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_of_dart(self, edge: int, direction: int) -> int:
        return self._face_data[1][(edge, direction)]

    def left_face(self, edge: int) -> int:
        return self.face_of_dart(edge, 1)

    def right_face(self, edge: int) -> int:
        return self.face_of_dart(edge, -1)

    # -- relations and conventions -----------------------------------------

    @cached_property
    def relations(self) -> tuple[CrossingRelation, ...]:
        """One crossing relation per crossing, on arc ids.

        The source under-arc of a positive crossing is the incoming one, of
        a negative crossing the outgoing one.
        """
        arc = self.arc_of_edge
        out = []
        for c in self.crossings:
            into, outof = arc[c.under_in], arc[c.under_out]
            src, dst = (into, outof) if c.sign == 1 else (outof, into)
            out.append(CrossingRelation(arc[c.over_in], src, dst, c.sign))
        return tuple(out)

    @cached_property
    def shadow_weight_regions(self) -> tuple[int, ...]:
        """Per crossing, the face on the source side of both co-orientations."""
        return tuple(
            self.face_of_dart(c.under_in if c.sign == 1 else c.over_in, -1)
            for c in self.crossings
        )

    def face_transitions(self) -> tuple[tuple[int, int, int], ...]:
        """Per edge: (source face, target face, arc) across that edge.

        The co-orientation points from the source face into the target face,
        so region colors satisfy target = source * arc-color.
        """
        return tuple(
            (self.right_face(e), self.left_face(e), self.arc_of_edge[e])
            for e in range(self.n_edges)
        )

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)


# --- presentations ------------------------------------------------------------


@dataclass(frozen=True)
class DiagramPresentation:
    """Generators (arcs) and crossing relations, tagged with the flavor."""

    flavor: str
    generators: tuple[str, ...]
    relations: tuple[CrossingRelation, ...]

    @property
    def framed_only(self) -> bool:
        return self.flavor == "rack"


def presentation(D: Diagram, flavor: str = "quandle") -> DiagramPresentation:
    """The kei/quandle/rack presentation read off the diagram.

    The flavor only tags downstream semantics: rack colorings are invariants
    of the blackboard-framed diagram, kei presentations forget orientations.
    """
    if flavor not in ("kei", "quandle", "rack"):
        raise DomainError(f"unknown presentation flavor {flavor!r}")
    gens = tuple(f"a{i}" for i in range(D.n_arcs))
    return DiagramPresentation(flavor, gens, D.relations)


@dataclass(frozen=True)
class RegionIncidence:
    region: int
    arc: int
    inward: bool  # co-orientation points into the region


def regions(D: Diagram) -> tuple[tuple[RegionIncidence, ...], ...]:
    """Per region, its arc incidences with the co-orientation side."""
    out: list[list[RegionIncidence]] = [[] for _ in range(D.n_faces)]
    for src, dst, arc in D.face_transitions():
        out[dst].append(RegionIncidence(dst, arc, True))
        out[src].append(RegionIncidence(src, arc, False))
    return tuple(tuple(incs) for incs in out)


# --- mirror / reverse ----------------------------------------------------------


def mirror(D: Diagram) -> Diagram:
    """Switch over/under at every crossing; every sign flips."""
    new = []
    for c in D.crossings:
        a, b, cc, d = c.quad
        if c.over_in == b:
            quad = (b, cc, d, a)
        else:
            quad = (d, a, b, cc)
        new.append(Crossing(quad, a, -c.sign))
    return Diagram(D.n_edges, tuple(new), name=f"mirror({D.label})")


def reverse(D: Diagram) -> Diagram:
    """Reverse every strand orientation; signs are preserved."""
    new = []
    for c in D.crossings:
        a, b, cc, d = c.quad
        quad = (cc, d, a, b)
        new.append(Crossing(quad, c.over_out, c.sign))
    return Diagram(D.n_edges, tuple(new), name=f"reverse({D.label})")


# --- PD parsing -----------------------------------------------------------------


_PD_TERM = re.compile(r"X\s*[\(\[]\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*[\)\]]")


def parse_pd(text: str, name: str | None = None) -> Diagram:
    """Parse a PD code: whitespace/comma separated X(a,b,c,d) terms.

    Edges are numbered 1..2m along the orientation of each component; the
    quadruple lists the edge-ends counterclockwise starting at the incoming
    under-edge, so the under-strand runs a -> c and the over-strand direction
    follows from the edge numbering.
    """
    body = "\n".join(content_lines(text))
    quads = [tuple(int(g) for g in m.groups()) for m in _PD_TERM.finditer(body)]
    leftover = _PD_TERM.sub("", body)
    leftover = re.sub(r"\bpd\b", "", leftover)
    if leftover.strip(" \t\n,;"):
        raise ParseError(f"unrecognized PD content: {leftover.strip()!r}")
    if not quads:
        return Diagram(1, (), name=name or "unknot")
    m = len(quads)
    n_edges = 2 * m
    counts: dict[int, int] = {}
    for quad in quads:
        for e in quad:
            counts[e] = counts.get(e, 0) + 1
    for e, cnt in sorted(counts.items()):
        if cnt != 2:
            raise ParseError(
                f"edge label {e} appears {cnt} times; every label must appear twice"
            )
    if sorted(counts) != list(range(1, n_edges + 1)):
        raise ParseError(f"edge labels must be exactly 1..{n_edges} with no gaps")

    # Components from the strand structure; labels must be contiguous per
    # component so the successor along the orientation is well defined.
    strands = [(a - 1, c - 1) for a, _, c, _ in quads]
    strands += [(b - 1, d - 1) for _, b, _, d in quads]
    succ: dict[int, int] = {}
    for group in union_classes(n_edges, strands):
        lo, hi = group[0] + 1, group[-1] + 1
        if hi - lo + 1 != len(group):
            raise ParseError(
                "component edge labels are not contiguous; renumber each "
                "component 1..2m along its orientation"
            )
        for e in range(lo, hi + 1):
            succ[e] = lo if e == hi else e + 1

    crossings = []
    for a, b, c, d in quads:
        if len({a, b, c, d}) != 4:
            raise ParseError(
                f"X({a},{b},{c},{d}): an edge label appears twice in one "
                "crossing (duplicate incidence)"
            )
        if succ[a] != c:
            raise ParseError(
                f"X({a},{b},{c},{d}): under-strand must run {a} -> {succ[a]}"
            )
        if succ[d] == b:
            over_in, sign = d, 1
        elif succ[b] == d:
            over_in, sign = b, -1
        else:
            raise ParseError(
                f"X({a},{b},{c},{d}): over-strand edges {b},{d} are not consecutive"
            )
        crossings.append(
            Crossing((a - 1, b - 1, c - 1, d - 1), over_in - 1, sign)
        )
    diagram = Diagram(n_edges, tuple(crossings), name=name)
    diagram.faces  # force the planarity check now
    return diagram


def format_pd(D: Diagram, name: str | None = None) -> str:
    """Serialize a diagram back to PD text, renumbering edges 1..2m along the
    orientation of each component."""
    if not D.crossings:
        return "pd\n"
    succ_of: dict[int, int] = {}
    for c in D.crossings:
        succ_of[c.under_in] = c.under_out
        succ_of[c.over_in] = c.over_out
    label: dict[int, int] = {}
    next_label = 1
    for comp in D.components:
        start = comp[0]
        e = start
        while e not in label:
            label[e] = next_label
            next_label += 1
            e = succ_of[e]
    lines = ["pd"]
    for c in D.crossings:
        a, b, cc, d = (label[e] for e in c.quad)
        lines.append(f"X({a},{b},{cc},{d})")
    return "\n".join(lines) + "\n"


# --- braids ---------------------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    """A braid word to a power: (generator index, +-1) letters on a fixed
    strand count, repeated power times (the braid is letters^power)."""

    strands: int
    letters: tuple[tuple[int, int], ...]
    power: int = 1

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise DomainError("a braid needs at least one strand")
        for i, e in self.letters:
            if not 1 <= i < self.strands:
                raise DomainError(f"generator index {i} out of range 1..{self.strands - 1}")
            if e not in (1, -1):
                raise DomainError("letter exponents must be +1 or -1")
        if self.power < 1:
            raise DomainError("a braid power must be positive")

    def require_nonsplit(self) -> None:
        """Raise DomainError unless the closure is a connected diagram.

        Every strand must meet at least one crossing, except on the empty
        one-strand braid, which closes to the round unknot; idle strands
        would close to split diagrams, which are unsupported.
        """
        if not self.letters:
            if self.strands == 1:
                return
            raise DomainError("closure of an empty braid on several strands is split")
        if len(union_classes(self.strands, ((i - 1, i) for i, _ in self.letters))) != 1:
            raise DomainError(
                "some strands never cross the others; the closure would be a "
                "split diagram, which is unsupported"
            )


def parse_braid_word(strands: int, word: str) -> BraidWord:
    """Braid letters as signed integers: '1 -2 1' means s1 s2^-1 s1.

    Malformed input raises ParseError, a strand count below 1 and a
    generator index out of range too.
    """
    letters = []
    for tok in word.replace(",", " ").split():
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad braid letter {tok!r}") from None
        if v == 0:
            raise ParseError("braid letters are nonzero signed generator indices")
        letters.append((abs(v), 1 if v > 0 else -1))
    try:
        return BraidWord(strands, tuple(letters))
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def braid_closure(braid: BraidWord, name: str | None = None) -> Diagram:
    """The standard (trace) closure of a braid word, its power expanded.

    A positive generator gives a positive crossing: the strand entering from
    the right passes over.  The closure must be connected
    (BraidWord.require_nonsplit); the empty one-strand braid closes to the
    round unknot.
    """
    braid.require_nonsplit()
    s = braid.strands
    if not braid.letters:
        return Diagram(1, (), name=name or "unknot")
    letters = braid.letters * braid.power
    cur = list(range(s))  # cur[p] = edge currently at position p+1
    next_id = s
    raw: list[tuple[tuple[int, int, int, int], int, int]] = []
    for i, eps in letters:
        left, right = cur[i - 1], cur[i]
        out_left, out_right = next_id, next_id + 1
        next_id += 2
        if eps == 1:
            quad = (left, out_left, out_right, right)
            over_in = right
        else:
            quad = (right, left, out_left, out_right)
            over_in = left
        raw.append((quad, over_in, eps))
        cur[i - 1], cur[i] = out_left, out_right
    # Close up: the final edge at each position is the initial one.
    alias = {cur[p]: p for p in range(s)}

    def resolve(e: int) -> int:
        return alias.get(e, e)

    used = sorted({resolve(e) for quad, _, _ in raw for e in quad})
    compact = {e: i for i, e in enumerate(used)}
    crossings = tuple(
        Crossing(
            tuple(compact[resolve(e)] for e in quad),
            compact[resolve(over_in)],
            sign,
        )
        for quad, over_in, sign in raw
    )
    diagram = Diagram(2 * len(letters), crossings, name=name)
    diagram.faces  # planarity sanity check; closure should always pass
    return diagram


def torus_braid(p: int, q: int) -> BraidWord:
    """T(p, q) for p in {2, 3} as one period word to the power |q|.

    T(2, q) is (s1^+-1)^|q|; T(3, q) is (s1 s2)^q, or (s2^-1 s1^-1)^|q|
    when q < 0.
    """
    if p not in (2, 3):
        raise DomainError("only T(2, q) and T(3, q) are generated here")
    if q == 0:
        raise DomainError("q must be nonzero")
    if p == 2:
        period = ((1, 1 if q > 0 else -1),)
    elif q > 0:
        period = ((1, 1), (2, 1))
    else:
        period = ((2, -1), (1, -1))
    return BraidWord(p, period, abs(q))


def torus_diagram(p: int, q: int) -> Diagram:
    """The torus knot/link T(p, q) for p in {2, 3}, as a braid closure."""
    return braid_closure(torus_braid(p, q), name=f"T({p},{q})")


# --- knotted-surface data --------------------------------------------------------


@dataclass(frozen=True)
class SurfaceDiagramData:
    """Declarative knotted-surface diagram data: sheets, double-curve
    relations (from_under, to_under, over), and signed triple points
    (lower, middle, upper, sign).  Inputs are trusted; no move verification."""

    n_sheets: int
    relations: tuple[tuple[int, int, int], ...]
    triple_points: tuple[tuple[int, int, int, int], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n_sheets < 1:
            raise ParseError("surface data needs at least one sheet")
        for i, j, k in self.relations:
            for x in (i, j, k):
                if not 0 <= x < self.n_sheets:
                    raise ParseError(f"relation references undeclared sheet {x + 1}")
        for lo, mid, up, sign in self.triple_points:
            for x in (lo, mid, up):
                if not 0 <= x < self.n_sheets:
                    raise ParseError(f"triple point references undeclared sheet {x + 1}")
            if sign not in (1, -1):
                raise ParseError("triple point sign must be +1 or -1")

    @property
    def label(self) -> str:
        return self.name or f"surface({self.n_sheets} sheets)"


def parse_surface(text: str, name: str | None = None) -> SurfaceDiagramData:
    """Parse the surface format: 'surface', 'sheets <n>', 'dc i j k', 'tp i j k s'."""
    lines = content_lines(text)
    if not lines or lines[0].split() != ["surface"]:
        raise ParseError("expected 'surface' header")
    if len(lines) < 2 or lines[1].split()[0] != "sheets":
        raise ParseError("expected 'sheets <n>' after the surface header")
    try:
        n = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise ParseError("bad sheet count") from None
    relations = []
    triples = []
    for line in lines[2:]:
        toks = line.split()
        if toks[0] == "dc" and len(toks) == 4:
            try:
                i, j, k = (int(t) for t in toks[1:])
            except ValueError:
                raise ParseError(f"bad double-curve line {line!r}") from None
            relations.append((i - 1, j - 1, k - 1))
        elif toks[0] == "tp" and len(toks) == 5:
            try:
                i, j, k = (int(t) for t in toks[1:4])
            except ValueError:
                raise ParseError(f"bad triple-point line {line!r}") from None
            if toks[4] in ("+", "+1"):
                sign = 1
            elif toks[4] in ("-", "-1"):
                sign = -1
            else:
                raise ParseError(f"bad triple-point sign {toks[4]!r}")
            triples.append((i - 1, j - 1, k - 1, sign))
        else:
            raise ParseError(f"unrecognized surface line {line!r}")
    return SurfaceDiagramData(n, tuple(relations), tuple(triples), name=name)


def format_surface(data: SurfaceDiagramData) -> str:
    lines = ["surface", f"sheets {data.n_sheets}"]
    for i, j, k in data.relations:
        lines.append(f"dc {i + 1} {j + 1} {k + 1}")
    for lo, mid, up, sign in data.triple_points:
        lines.append(f"tp {lo + 1} {mid + 1} {up + 1} {'+' if sign == 1 else '-'}")
    return "\n".join(lines) + "\n"


def shadow_surface_data(D: Diagram) -> SurfaceDiagramData:
    """Surface-style data whose colorings are the shadow colorings of D.

    Sheets are the arcs of D followed by its regions; double-curve relations
    carry both the crossing relations and the face transitions, and each
    crossing becomes a triple point (source region, source under-arc,
    over-arc).  Colorings of the result match shadow colorings of D, so its
    triple-point state sum reproduces the shadow state sum.
    """
    a = D.n_arcs
    relations: list[tuple[int, int, int]] = []
    for rel in D.relations:
        relations.append((rel.from_under, rel.to_under, rel.over))
    seen = set()
    for src, dst, arc in D.face_transitions():
        t = (a + src, a + dst, arc)
        if t not in seen:
            seen.add(t)
            relations.append(t)
    triples = tuple(
        (a + y, rel.from_under, rel.over, rel.sign)
        for rel, y in zip(D.relations, D.shadow_weight_regions)
    )
    return SurfaceDiagramData(
        a + D.n_faces, tuple(relations), triples, name=f"shadow({D.label})"
    )
