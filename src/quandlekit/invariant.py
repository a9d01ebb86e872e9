"""State-sum invariants from quandle cocycles.

Weights accumulate additively in Z_d per (shadow) coloring and are folded
into the group ring Z[t]/(t^d - 1) once per coloring.  Each state sum is
the weight histogram of coloring._histogram, which takes it off the braid
engine or folds it from the coloring search without building coloring
objects; the coloring module's docstring says which path a sum takes.
The per-coloring weights below, the survey's definition, read the cochain
itself: they are the reference the folds are tested against.
Cocycle validity is enforced before any sum is taken: without it the result
is not an invariant (an explicit escape hatch exists for experiments).  The
verdict is homology's, kept once per budget and cochain.
"""

from __future__ import annotations

from ._util import Record
from .algebra import RackTable
from .coloring import Coloring, ShadowColoring, SurfaceColoring, _histogram
from .diagram import BraidWord, Diagram, SurfaceDiagramData
from .errors import DomainError, NonCocycleError
from .homology import Cochain, is_cocycle


class GroupRingElement(Record):
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


# --- state sums -------------------------------------------------------------------


def state_sum_2(
    D: Diagram | BraidWord, X: RackTable, phi: Cochain, *, check: bool = True
) -> GroupRingElement:
    """The 2-cocycle state sum over all colorings of D by X.

    Once phi has passed the cocycle check, a coloring and its image under a
    right translation have the same weight: the cocycle condition at
    (under, over, y) turns the change at each crossing into a difference
    that telescopes along each component.  So the sum reads one fiber of
    arc 0 per Inn(X) orbit, weighted by the orbit size; with check=False
    every coloring is weighed.  D may be a braid word, whose sum the path
    rule may read off the fixed points of its permutation.
    """
    _require_cocycle(X, phi, 2, check)
    return GroupRingElement(phi.modulus, tuple(_histogram(D, X, phi, check=check)))


def state_sum_shadow(
    D: Diagram | BraidWord, X: RackTable, theta: Cochain, *, check: bool = True
) -> GroupRingElement:
    """The 3-cocycle state sum over all shadow colorings of D by X.

    Per arc coloring each crossing adds theta(region, under, over) for all
    region-0 colors at once.  Once theta has passed the cocycle check, the
    weight is constant on the Inn(X) orbits of shadow colorings, so, as in
    state_sum_2, the sum reads one fiber of arc 0 per orbit; with
    check=False every shadow coloring is weighed.  D may be a braid word, as
    in state_sum_2.
    """
    _require_cocycle(X, theta, 3, check)
    return GroupRingElement(
        theta.modulus, tuple(_histogram(D, X, theta, shadow=True, check=check))
    )


def state_sum_surface(
    SD: SurfaceDiagramData, X: RackTable, theta: Cochain, *, check: bool = True
) -> GroupRingElement:
    """The triple-point state sum over all colorings of the surface data.

    Every coloring is weighed, even after the cocycle check: surface data is
    not checked to close up into a surface, so the orbit argument of
    state_sum_2 and state_sum_shadow does not cover arbitrary input.
    """
    _require_cocycle(X, theta, 3, check)
    return GroupRingElement(theta.modulus, tuple(_histogram(SD, X, theta, check=check)))
