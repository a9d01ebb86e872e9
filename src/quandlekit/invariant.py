"""State-sum invariants from quandle cocycles.

Weights accumulate additively in Z_d per (shadow) coloring and are folded
into the group ring Z[t]/(t^d - 1) once per coloring.  The state sums fold
straight from the coloring search as it streams solutions, without building
coloring objects; a shadow sum folds one weight per region-0 seed at once.
Once the cocycle check has passed, the 2-cocycle and shadow sums read one
fiber of arc 0 per Inn(X) orbit, weighted by the orbit size.  Unchecked sums
and the surface sum weigh every coloring; the search still runs one fiber
per orbit, and each solution is mapped at once onto the other fibers by
inner automorphisms (the unordered full stream of coloring._solve_relations),
so no fiber is held in memory.
The per-coloring weights below are the reference they are tested against.
Cocycle validity is enforced before any sum is taken: without it the result
is not an invariant (an explicit escape hatch exists for experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import RackTable
from .coloring import (
    Coloring,
    ShadowColoring,
    SurfaceColoring,
    _orbit_fibers,
    _seeded_regions,
    _solve_relations,
)
from .diagram import Diagram, SurfaceDiagramData
from .errors import DomainError, NonCocycleError
from .homology import Cochain, is_cocycle


@dataclass(frozen=True)
class GroupRingElement:
    """An element of Z[Z_d]: coefficient of t^k at index k."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise DomainError("group ring modulus must be positive")
        if len(self.coeffs) != self.modulus:
            raise DomainError("coefficient vector length must equal the modulus")

    @classmethod
    def zero(cls, d: int) -> "GroupRingElement":
        return cls(d, (0,) * d)

    @classmethod
    def monomial(cls, d: int, power: int, coeff: int = 1) -> "GroupRingElement":
        v = [0] * d
        v[power % d] = coeff
        return cls(d, tuple(v))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.modulus != other.modulus:
            raise DomainError("group ring modulus mismatch")
        return GroupRingElement(
            self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def augmentation(self) -> int:
        """Sum of coefficients; for a state sum, the number of colorings."""
        return sum(self.coeffs)

    def conjugate(self) -> "GroupRingElement":
        """The substitution t -> t^-1."""
        d = self.modulus
        return GroupRingElement(d, tuple(self.coeffs[(-k) % d] for k in range(d)))

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def render(self) -> str:
        """Canonical string: ascending powers, zero terms skipped, t^1 as t."""
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                power = "t" if k == 1 else f"t^{k}"
                body = power if abs(c) == 1 else f"{abs(c)}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()


def render(e: GroupRingElement) -> str:
    return e.render()


def _require_cocycle(X: RackTable, phi: Cochain, degree: int, check: bool) -> None:
    if phi.degree != degree:
        raise DomainError(f"expected a degree-{degree} cochain, got degree {phi.degree}")
    if not check:
        return
    result = is_cocycle(X, phi, "Q")
    if not result:
        raise NonCocycleError(
            f"cochain fails the quandle cocycle condition ({result.reason} at "
            f"{result.witness}); pass check=False to compute a non-invariant"
        )


# --- per-coloring weights -------------------------------------------------------


def coloring_weight(D: Diagram, X: RackTable, phi: Cochain, rho: Coloring) -> int:
    """Signed sum of 2-cocycle weights over all crossings, in Z_d."""
    total = 0
    for rel in D.relations:
        total += rel.sign * phi.value((rho.colors[rel.from_under], rho.colors[rel.over]))
    return total % phi.modulus


def shadow_weight(
    D: Diagram, X: RackTable, theta: Cochain, shadow: ShadowColoring
) -> int:
    """Signed sum of 3-cocycle weights theta(region, under, over), in Z_d."""
    total = 0
    for rel, y in zip(D.relations, D.shadow_weight_regions):
        total += rel.sign * theta.value(
            (
                shadow.region_colors[y],
                shadow.colors[rel.from_under],
                shadow.colors[rel.over],
            )
        )
    return total % theta.modulus


def surface_weight(
    SD: SurfaceDiagramData, theta: Cochain, rho: SurfaceColoring
) -> int:
    """Signed sum of triple-point weights theta(lower, middle, upper), in Z_d."""
    total = 0
    for lo, mid, up, sign in SD.triple_points:
        total += sign * theta.value((rho.colors[lo], rho.colors[mid], rho.colors[up]))
    return total % theta.modulus


def per_coloring_weight(target, X: RackTable, cochain: Cochain, coloring) -> int:
    """Weight of one (shadow/surface) coloring, dispatched on the input types."""
    if isinstance(coloring, ShadowColoring):
        return shadow_weight(target, X, cochain, coloring)
    if isinstance(coloring, SurfaceColoring):
        return surface_weight(target, cochain, coloring)
    if isinstance(coloring, Coloring):
        return coloring_weight(target, X, cochain, coloring)
    raise DomainError(f"cannot weight a {type(coloring).__name__}")


# --- state sums -------------------------------------------------------------------


def state_sum_2(
    D: Diagram, X: RackTable, phi: Cochain, *, check: bool = True
) -> GroupRingElement:
    """The 2-cocycle state sum over all colorings of D by X.

    Once phi has passed the cocycle check, a coloring and its image under a
    right translation have the same weight: the cocycle condition at
    (under, over, y) turns the change at each crossing into a difference
    that telescopes along each component.  So the sum reads one fiber of
    arc 0 per Inn(X) orbit, weighted by the orbit size.  With check=False
    that argument does not hold and every coloring is weighed, read from the
    unordered full stream of _solve_relations (each searched solution
    mapped onto the other fibers at once).
    """
    _require_cocycle(X, phi, 2, check)
    d = phi.modulus
    n = X.size
    roots, mult = _orbit_fibers(X) if check else (None, [1] * n)
    weight = [[phi.value((u, o)) for o in range(n)] for u in range(n)]
    crossings = [(rel.from_under, rel.over, rel.sign) for rel in D.relations]
    coeffs = [0] * d
    for colors in _solve_relations(D, X, roots, ordered=False):
        total = 0
        for under, over, sign in crossings:
            total += sign * weight[colors[under]][colors[over]]
        coeffs[total % d] += mult[colors[0]]
    return GroupRingElement(d, tuple(coeffs))


def state_sum_shadow(
    D: Diagram, X: RackTable, theta: Cochain, *, check: bool = True
) -> GroupRingElement:
    """The 3-cocycle state sum over all shadow colorings of D by X.

    Per arc coloring each crossing adds the vector theta(perms[region][s],
    under, over) over the seeds s, the theta row for its (under, over) colors
    read through the region's seed list; the consistent seeds' totals are
    then counted into the histogram.

    Once theta has passed the cocycle check, the weight is constant on the
    orbits of Inn(X) acting on shadow colorings, so, as in state_sum_2, the
    sum reads one fiber of arc 0 per orbit, weighted by the orbit size.
    With check=False every arc coloring is weighed, read from the unordered
    full stream (each searched solution mapped onto the other fibers).
    """
    _require_cocycle(X, theta, 3, check)
    d = theta.modulus
    n = X.size
    roots, mult = _orbit_fibers(X) if check else (None, [1] * n)
    rows: dict[tuple[int, int], list[int]] = {}  # (under, over) -> theta(., under, over)
    for (x, u, o), v in theta.values.items():
        if 0 <= min(x, u, o) and max(x, u, o) < n:
            rows.setdefault((u, o), [0] * n)[x] = v
    crossings = [
        (y, rel.from_under, rel.over, rel.sign)
        for rel, y in zip(D.relations, D.shadow_weight_regions)
    ]
    coeffs = [0] * d
    for colors, perms, seeds in _seeded_regions(D, X, roots, ordered=False):
        totals = [0] * n
        for y, under, over, sign in crossings:
            row = rows.get((colors[under], colors[over]))
            if row is not None:
                totals = [t + sign * row[x] for t, x in zip(totals, perms[y])]
        weight = mult[colors[0]]
        for s in seeds:
            coeffs[totals[s] % d] += weight
    return GroupRingElement(d, tuple(coeffs))


def state_sum_surface(
    SD: SurfaceDiagramData, X: RackTable, theta: Cochain, *, check: bool = True
) -> GroupRingElement:
    """The triple-point state sum over all colorings of the surface data.

    Every coloring is weighed, even after the cocycle check: surface data is
    not checked to close up into a surface, so the orbit argument of
    state_sum_2 and state_sum_shadow does not cover arbitrary input.  The
    colorings come from the unordered full stream, whose mapped solutions
    need only the relations to be colorings.
    """
    _require_cocycle(X, theta, 3, check)
    d = theta.modulus
    value = theta.value
    coeffs = [0] * d
    for colors in _solve_relations(SD, X, ordered=False):
        total = 0
        for lo, mid, up, sign in SD.triple_points:
            total += sign * value((colors[lo], colors[mid], colors[up]))
        coeffs[total % d] += 1
    return GroupRingElement(d, tuple(coeffs))
