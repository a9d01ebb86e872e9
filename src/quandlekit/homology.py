"""Chain complexes of finite racks/quandles and their (co)homology.

Three theories share one boundary formula: R uses all n-tuples, D the
degenerate ones (some adjacent repeat), and Q the quotient R/D, realized here
on the complement basis of non-degenerate tuples with degenerate terms
projected away.  Boundary maps are built as sparse columns straight from the
boundary formula.  Integral homology is read off the Smith diagonals of the
two boundary maps at each degree: ker d_n is a direct summand of C_n, so H_n
has the torsion of coker d_{n+1} and free rank dim C_n - rank d_n -
rank d_{n+1}.  Those diagonals, the GF(p) ranks of ``homology_mod`` and
coboundary membership mod d (which compares the orders of two cokernels
tensored with Z_d, for every d) all go through the one sparse elimination in
``snf``.  Cocycle and coboundary generators with coefficients in Z_d come
from dense prime-field elimination when d is prime and from integer lifts
otherwise.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from math import gcd, prod
from typing import Iterable, Mapping, Sequence

from . import snf
from ._util import content_lines
from .algebra import RackTable
from .errors import BudgetError, DomainError, ParseError

THEORIES = ("R", "D", "Q")

DEFAULT_BASIS_BUDGET = 20_000
_BUDGET_ENV = "QUANDLEKIT_BUDGET"


def basis_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_BASIS_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad {_BUDGET_ENV} value {raw!r}") from None


def _budget_cache(fn):
    """Cache ``fn`` per value of the budget variable as well as per argument.

    A result stored under one budget is never handed out under another, so
    every call raises BudgetError exactly when a call on an empty cache
    would.  The key is the raw string, so the lookup cannot raise; ``fn``
    parses it after its theory check.
    """
    cached = lru_cache(maxsize=None)(
        lambda budget, *args, **kwargs: fn(*args, **kwargs)
    )

    @wraps(fn)
    def wrapper(*args, **kwargs):
        return cached(os.environ.get(_BUDGET_ENV), *args, **kwargs)

    wrapper.cache_clear = cached.cache_clear
    wrapper.cache_info = cached.cache_info
    return wrapper


def _is_degenerate(t: tuple[int, ...]) -> bool:
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


@dataclass(frozen=True)
class ChainBasis:
    degree: int
    theory: str
    tuples: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)


def _check_theory(X: RackTable, theory: str) -> None:
    if theory not in THEORIES:
        raise DomainError(f"unknown theory {theory!r}; expected one of {THEORIES}")
    X.require_rack()
    if theory in ("D", "Q") and not X.is_quandle:
        raise DomainError(f"theory {theory} needs a quandle; {X.label} is only a rack")


@_budget_cache
def chain_basis(X: RackTable, n: int, theory: str) -> ChainBasis:
    """Canonical (lexicographic) basis of C_n for the given theory."""
    _check_theory(X, theory)
    if n <= 0:
        return ChainBasis(n, theory, ())
    _check_budget(X.size**n)
    all_tuples = itertools.product(range(X.size), repeat=n)
    if theory == "R":
        tuples = tuple(all_tuples)
    elif theory == "D":
        tuples = tuple(t for t in all_tuples if _is_degenerate(t))
    else:
        tuples = tuple(t for t in all_tuples if not _is_degenerate(t))
    return ChainBasis(n, theory, tuples)


def _boundary_terms(X: RackTable, t: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The chain boundary of one tuple as a sparse coefficient map."""
    n = len(t)
    out: dict[tuple[int, ...], int] = {}
    # The i=1 term drops out: both bracketed tuples coincide.
    for i in range(2, n + 1):
        sign = -1 if i % 2 else 1
        xi = t[i - 1]
        dropped = t[: i - 1] + t[i:]
        acted = tuple(X.table[x][xi] for x in t[: i - 1]) + t[i:]
        out[dropped] = out.get(dropped, 0) + sign
        out[acted] = out.get(acted, 0) - sign
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the degree-n boundary in canonical bases, kept by columns.

    Rows are indexed by the degree-(n-1) basis, columns by the degree-n basis;
    column j maps row indices to the nonzero coefficients of d(domain tuple j).
    """

    X: RackTable = field(repr=False)
    degree: int
    theory: str
    columns: tuple[dict[int, int], ...] = field(compare=False)  # fixed by the rest
    domain: ChainBasis
    codomain: ChainBasis

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, derived from the columns on first use."""
        return tuple(map(tuple, snf.dense_rows(self.columns, self.nrows)))

    @property
    def nrows(self) -> int:
        return len(self.codomain)

    @property
    def ncols(self) -> int:
        return len(self.domain)


@_budget_cache
def boundary_matrix(X: RackTable, n: int, theory: str = "R") -> BoundaryMatrix:
    """The boundary C_n -> C_{n-1}; zero for n <= 1 by convention."""
    _check_theory(X, theory)
    domain = chain_basis(X, n, theory)
    codomain = chain_basis(X, n - 1, theory)
    _check_budget(len(domain), len(codomain))
    row_index = codomain.index
    columns: list[dict[int, int]] = []
    for t in domain.tuples:
        col: dict[int, int] = {}
        for term, coeff in _boundary_terms(X, t).items():
            idx = row_index.get(term)
            if idx is None:
                # Theory Q projects degenerate terms away; theory D must
                # never produce non-degenerate residue for a quandle.
                if theory == "D" and not _is_degenerate(term):
                    raise DomainError("degenerate subcomplex is not closed; not a quandle?")
                continue
            col[idx] = coeff
        columns.append(col)
    return BoundaryMatrix(X, n, theory, tuple(columns), domain, codomain)


def _check_budget(*sizes: int) -> None:
    budget = basis_budget()
    for s in sizes:
        if s > budget:
            raise BudgetError(
                f"chain basis of size {s} exceeds the budget of {budget} "
                f"(override with {_BUDGET_ENV})"
            )


# --- abelian group values ------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus invariant factors.

    Invariant factors are kept canonical: each > 1 and d1 | d2 | ... .
    """

    rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d <= 1 for d in self.invariant_factors):
            raise ValueError("invariant factors must exceed 1")

    @classmethod
    def from_divisors(cls, rank: int, divisors: Iterable[int]) -> "AbelianGroup":
        """Build from any list of cyclic orders, recombining canonically."""
        primary: dict[int, list[int]] = {}
        for d in divisors:
            if d in (0,):
                rank += 1
                continue
            d = abs(d)
            if d <= 1:
                continue
            for p, e in _factorint(d).items():
                primary.setdefault(p, []).append(e)
        items = sorted((p, sorted(es, reverse=True)) for p, es in primary.items())
        width = max((len(es) for _, es in items), default=0)
        factors = []
        for i in range(width):
            factors.append(prod(p ** es[i] for p, es in items if i < len(es)))
        factors.sort()
        return cls(rank, tuple(factors))

    def elementary_divisors(self) -> tuple[int, ...]:
        out: list[int] = []
        for d in self.invariant_factors:
            for p, e in _factorint(d).items():
                out.append(p**e)
        return tuple(sorted(out))

    def direct_sum(self, *others: "AbelianGroup") -> "AbelianGroup":
        rank = self.rank + sum(o.rank for o in others)
        divisors = list(self.invariant_factors)
        for o in others:
            divisors.extend(o.invariant_factors)
        return AbelianGroup.from_divisors(rank, divisors)

    @property
    def order(self) -> int:
        """Group order; 0 stands for infinite."""
        if self.rank:
            return 0
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# --- homology -------------------------------------------------------------------


@_budget_cache
def _boundary_invariants(X: RackTable, n: int, theory: str) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion (invariant factors > 1) of d_n, eliminated once.

    A degree sweep shares it: d_{n+1} serves H_n and H_{n+1}.
    """
    d = boundary_matrix(X, n, theory)
    free, torsion = snf.cokernel_invariants(d.columns, d.nrows)
    return d.nrows - free, tuple(torsion)


@_budget_cache
def _boundary_mod_rank(X: RackTable, n: int, theory: str, p: int) -> int:
    """Rank of d_n over GF(p), eliminated once per degree sweep."""
    d = boundary_matrix(X, n, theory)
    return snf.mod_rank(d.columns, d.nrows, p)


@_budget_cache
def homology(X: RackTable, n: int, theory: str = "R") -> AbelianGroup:
    """Integral homology H_n = ker d_n / im d_{n+1} from two Smith diagonals.

    C_n / ker d_n is isomorphic to im d_n, which is free, so ker d_n is a
    direct summand of C_n.  Hence H_n has the torsion of coker d_{n+1} and
    free rank dim C_n - rank d_n - rank d_{n+1}; no kernel basis is built.
    """
    _check_theory(X, theory)
    dim = len(chain_basis(X, n, theory))
    if dim == 0:
        return AbelianGroup(0)
    rank_lower, _ = _boundary_invariants(X, n, theory)
    rank_upper, torsion = _boundary_invariants(X, n + 1, theory)
    return AbelianGroup(dim - rank_lower - rank_upper, torsion)


@_budget_cache
def homology_mod(X: RackTable, n: int, theory: str, p: int) -> int:
    """Direct dimension of H_n(X; Z_p) for prime p, via GF(p) ranks."""
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime; use homology_with_coefficients")
    _check_theory(X, theory)
    dim = len(chain_basis(X, n, theory))
    if dim == 0:
        return 0
    return dim - _boundary_mod_rank(X, n, theory, p) - _boundary_mod_rank(X, n + 1, theory, p)


def homology_with_coefficients(X: RackTable, n: int, theory: str, d: int) -> AbelianGroup:
    """H_n(X; Z_d) assembled from integral homology via universal coefficients."""
    if d < 2:
        raise DomainError("coefficient modulus must be at least 2")
    hn = homology(X, n, theory)
    hprev = homology(X, n - 1, theory)
    divisors = [d] * hn.rank
    divisors += [gcd(f, d) for f in hn.invariant_factors]
    divisors += [gcd(f, d) for f in hprev.invariant_factors]
    return AbelianGroup.from_divisors(0, divisors)


def uct_mod_dimension(X: RackTable, n: int, theory: str, p: int) -> int:
    """dim H_n(X; Z_p) predicted from the integral invariant factors."""
    hn = homology(X, n, theory)
    hprev = homology(X, n - 1, theory)
    return (
        hn.rank
        + sum(1 for f in hn.invariant_factors if f % p == 0)
        + sum(1 for f in hprev.invariant_factors if f % p == 0)
    )


# --- cochains --------------------------------------------------------------------


@dataclass(frozen=True)
class Cochain:
    """A Z_d-valued function on n-tuples, stored sparsely.

    Tuples absent from ``values`` evaluate to zero.  The additive value v
    renders multiplicatively as t^v in the group-ring layer.
    """

    degree: int
    modulus: int
    values: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise DomainError("cochain degree must be at least 1")
        if self.modulus < 1:
            raise DomainError("cochain modulus must be at least 1")
        cleaned = {}
        for t, v in self.values.items():
            t = tuple(int(x) for x in t)
            if len(t) != self.degree:
                raise DomainError(f"tuple {t} does not match degree {self.degree}")
            v %= self.modulus
            if v:
                cleaned[t] = v
        object.__setattr__(self, "values", cleaned)

    def value(self, t: Sequence[int]) -> int:
        return self.values.get(tuple(t), 0)

    def vanishes_on_degenerate(self) -> tuple[int, ...] | None:
        """A degenerate tuple with nonzero value, or None if there is none."""
        for t, v in self.values.items():
            if v and _is_degenerate(t):
                return t
        return None

    def vector(self, basis: ChainBasis) -> list[int]:
        return [self.value(t) for t in basis.tuples]

    @classmethod
    def from_vector(
        cls, degree: int, modulus: int, basis: ChainBasis, vec: Sequence[int]
    ) -> "Cochain":
        return cls(degree, modulus, dict(zip(basis.tuples, vec)))

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.degree, self.modulus) != (other.degree, other.modulus):
            raise DomainError("cochain degree/modulus mismatch")
        keys = set(self.values) | set(other.values)
        return Cochain(
            self.degree,
            self.modulus,
            {t: self.value(t) + other.value(t) for t in keys},
        )

    def __neg__(self) -> "Cochain":
        return Cochain(self.degree, self.modulus, {t: -v for t, v in self.values.items()})


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    reason: str | None = None
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_cocycle(X: RackTable, phi: Cochain, theory: str = "Q") -> CocycleCheck:
    """Does phi vanish on boundaries (and, for theory Q, on degenerate tuples)?

    A cochain with a nonzero value on a tuple that names an element outside
    X is not a cochain of X, so it is rejected before any other check.
    """
    _check_theory(X, theory)
    for t in phi.values:
        if not all(0 <= x < X.size for x in t):
            return CocycleCheck(False, "entry outside the quandle", t)
    if theory == "Q":
        bad = phi.vanishes_on_degenerate()
        if bad is not None:
            return CocycleCheck(False, "nonzero on degenerate tuple", bad)
    upper = chain_basis(X, phi.degree + 1, theory)
    for t in upper.tuples:
        total = 0
        for term, coeff in _boundary_terms(X, t).items():
            total += coeff * phi.value(term)
        if total % phi.modulus:
            return CocycleCheck(False, "coboundary is nonzero", t)
    return CocycleCheck(True)


def coboundary(X: RackTable, mu: Cochain, theory: str = "Q") -> Cochain:
    """The degree-(n+1) cochain (delta mu)(w) = mu(boundary w)."""
    _check_theory(X, theory)
    upper = chain_basis(X, mu.degree + 1, theory)
    values = {}
    for t in upper.tuples:
        total = sum(c * mu.value(term) for term, c in _boundary_terms(X, t).items())
        if total % mu.modulus:
            values[t] = total
    return Cochain(mu.degree + 1, mu.modulus, values)


@dataclass(frozen=True)
class CochainSpaces:
    """Cocycles and coboundaries of degree n over Z_d in one basis.

    For prime d the generator lists are honest bases and the dimensions are
    meaningful; for composite d they are generating sets obtained from integer
    lifts.
    """

    X: RackTable = field(repr=False)
    degree: int
    modulus: int
    theory: str
    basis: ChainBasis
    cocycle_vectors: tuple[tuple[int, ...], ...]
    coboundary_vectors: tuple[tuple[int, ...], ...]
    prime: bool

    @property
    def cocycle_dimension(self) -> int:
        if not self.prime:
            raise DomainError("dimensions need a prime modulus")
        return len(self.cocycle_vectors)

    @property
    def coboundary_dimension(self) -> int:
        if not self.prime:
            raise DomainError("dimensions need a prime modulus")
        return len(self.coboundary_vectors)

    def cocycles(self) -> list[Cochain]:
        return [
            Cochain.from_vector(self.degree, self.modulus, self.basis, v)
            for v in self.cocycle_vectors
        ]

    def coboundaries(self) -> list[Cochain]:
        return [
            Cochain.from_vector(self.degree, self.modulus, self.basis, v)
            for v in self.coboundary_vectors
        ]

    def contains_coboundary(self, phi: Cochain) -> bool:
        """Is phi a coboundary mod d?  Exact for every modulus.

        The coboundaries are rowspan(d_n) mod d.  With rank r and invariant
        factors e_i of d_n, (Z^dim / rowspan(d_n)) (x) Z_d has order
        d^(dim - r) * prod gcd(e_i, d); phi lies in rowspan(d_n) + d Z^dim
        exactly when appending phi as a row leaves that order unchanged.
        A phi of another degree or modulus, or nonzero off the basis (outside
        the quandle, or degenerate in theory Q), raises DomainError.
        """
        if (phi.degree, phi.modulus) != (self.degree, self.modulus):
            raise DomainError(f"expected a cochain of degree {self.degree} mod {self.modulus}")
        index = self.basis.index
        outside = next((t for t in phi.values if t not in index), None)
        if outside is not None:
            raise DomainError(f"cochain is nonzero on {outside}, outside the chain basis")
        down = boundary_matrix(self.X, self.degree, self.theory)
        dim, d, m = len(self.basis), self.modulus, down.nrows
        appended = list(down.columns)
        for t, v in phi.values.items():
            appended[index[t]] = {**appended[index[t]], m: v}
        orders = []
        for columns, nrows in ((down.columns, m), (appended, m + 1)):
            free, torsion = snf.cokernel_invariants(columns, nrows)
            rank = nrows - free
            orders.append(d ** (dim - rank) * prod(gcd(e, d) for e in torsion))
        return orders[0] == orders[1]


def _is_prime(d: int) -> bool:
    return d >= 2 and _factorint(d) == {d: 1}


def _distinct_nonzero(vectors: Iterable[Sequence[int]], d: int) -> list[tuple[int, ...]]:
    """The distinct nonzero reductions mod d of the vectors, in first-seen order."""
    reduced = (tuple(v % d for v in vec) for vec in vectors)
    return list(dict.fromkeys(vec for vec in reduced if any(vec)))


def cohomology(X: RackTable, n: int, theory: str, d: int) -> CochainSpaces:
    """Cocycle and coboundary generators of degree n with coefficients in Z_d."""
    if d < 2:
        raise DomainError("coefficient modulus must be at least 2")
    _check_theory(X, theory)
    basis = chain_basis(X, n, theory)
    up = boundary_matrix(X, n + 1, theory)
    down = boundary_matrix(X, n, theory)
    dim = len(basis)
    prime = _is_prime(d)
    # delta_n is the transpose of d_{n+1}: row j of delta_n is column j of d_{n+1}.
    delta = [[col.get(i, 0) for i in range(dim)] for col in up.columns]
    if prime:
        # The kernel of delta_n mod d is the cocycle space, and the row space
        # of d_n is the coboundary space.
        cocycles = snf.mod_nullspace(delta, dim, d) if dim else []
        _, _, rref = snf.mod_rref(snf.dense_rows(down.columns, down.nrows), dim, d)
        coboundaries = [row for row in rref if any(row)]
    else:
        # Integer lift: kernel of [delta | d*I] projected to cochain coords.
        m = len(delta)
        aug = [row + [d if j == i else 0 for j in range(m)] for i, row in enumerate(delta)]
        kernel, _ = snf.kernel_complement(aug, m, dim + m)
        cocycles = _distinct_nonzero((vec[:dim] for vec in kernel), d)
        coboundaries = _distinct_nonzero(snf.dense_rows(down.columns, down.nrows), d)
    return CochainSpaces(
        X, n, d, theory, basis, tuple(map(tuple, cocycles)), tuple(map(tuple, coboundaries)), prime
    )


# --- structure report -------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    X: RackTable
    n_max: int
    groups: Mapping[tuple[str, int], AbelianGroup]
    checks: tuple[tuple[str, bool], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.checks)


def structure_report(X: RackTable, n_max: int) -> StructureReport:
    """Homology for n <= n_max in all theories, with the splitting checks.

    Verifies numerically, degree by degree, that the rack theory decomposes as
    degenerate + quandle, and the known low-degree orbit formulas.
    """
    X.require_quandle()
    groups = {
        (theory, n): homology(X, n, theory)
        for theory in THEORIES
        for n in range(1, n_max + 1)
    }
    o = len(X.orbits)
    checks: list[tuple[str, bool]] = []
    checks.append(("H1_D = 0", groups[("D", 1)] == AbelianGroup(0)))
    checks.append(("H1_R = Z^orbits", groups[("R", 1)] == AbelianGroup(o)))
    checks.append(("H1_Q = Z^orbits", groups[("Q", 1)] == AbelianGroup(o)))
    if n_max >= 2:
        checks.append(("H2_D = Z^orbits", groups[("D", 2)] == AbelianGroup(o)))
    for n in range(1, n_max + 1):
        expected = groups[("D", n)].direct_sum(groups[("Q", n)])
        checks.append(
            (f"H{n}_R = H{n}_D + H{n}_Q", groups[("R", n)] == expected)
        )
    if n_max >= 2:
        expected = groups[("Q", 2)].direct_sum(AbelianGroup(o))
        checks.append(("H2_R = H2_Q + Z^orbits", groups[("R", 2)] == expected))
    if n_max >= 3:
        expected = groups[("Q", 3)].direct_sum(groups[("Q", 2)], AbelianGroup(o * o))
        checks.append(("H3_R = H3_Q + H2_Q + Z^(orbits^2)", groups[("R", 3)] == expected))
    return StructureReport(X, n_max, groups, tuple(checks))


# --- cochain text format ------------------------------------------------------------


def parse_cochain(text: str) -> Cochain:
    """Parse the cochain format: 'cochain <degree> <modulus>' then value lines."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty cochain file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "cochain":
        raise ParseError("expected header 'cochain <degree> <modulus>'")
    try:
        degree, modulus = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError("non-integer degree/modulus in cochain header") from None
    values: dict[tuple[int, ...], int] = {}
    for line in lines[1:]:
        toks = line.split()
        if len(toks) != degree + 1:
            raise ParseError(
                f"cochain line {line!r} needs {degree} tuple entries and a value"
            )
        try:
            nums = [int(t) for t in toks]
        except ValueError:
            raise ParseError(f"non-integer entry in cochain line {line!r}") from None
        values[tuple(nums[:-1])] = nums[-1]
    return Cochain(degree, modulus, values)


def format_cochain(phi: Cochain) -> str:
    lines = [f"cochain {phi.degree} {phi.modulus}"]
    for t in sorted(phi.values):
        lines.append(" ".join(map(str, t)) + f" {phi.values[t]}")
    return "\n".join(lines) + "\n"
