"""Chain complexes of finite racks/quandles and their (co)homology.

Three theories share one boundary formula: R uses all n-tuples, D the
degenerate ones (some adjacent repeat), and Q the quotient R/D, realized here
on the complement basis of non-degenerate tuples with degenerate terms
projected away.  The Q basis is built directly, never forming a degenerate
tuple; the budget still counts all |X|^n tuples.  Boundary maps are built as
sparse columns tail by tail: the faces of each tail (x2 ... xn) are walked
once (``_faces``, the one face walk the cocycle check reads too), and each
face gives the codomain rows of its term for every first coordinate x1 at
once.  Each column equals the boundary of its tuple taken term by term
on the basis, key order included, so it is eliminated alike; the tests
keep that per-tuple definition as the reference.  Integral homology is read
off the Smith diagonals of the two boundary maps at each degree: ker d_n is a
direct summand of C_n, so H_n has the torsion of coker d_{n+1} and free rank
dim C_n - rank d_n - rank d_{n+1}.  Those diagonals and coboundary
membership mod d (which compares the orders of two cokernels tensored with
Z_d, for every d) go through the sparse Z elimination in ``snf``.  Each
unit pivot of that elimination is an elementary reduction of the chain
complex (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35, 1998), so
once d_{n-1} is eliminated, d_n is eliminated without the rows d_{n-1}
pivoted on (``snf``'s ``drop``): its rank and torsion are unchanged, and an
ascending sweep reduces each map by the one below it.  Only answers are
memoized (``_budget.memo``, per budget): bases, invariants with their pivot
columns, ranks and cocycle verdicts.  ``_boundary_invariants`` is the one
place a boundary map is eliminated over Z for its invariants, so each map
is eliminated at most once per budget, but a map is rebuilt when read
again; a CochainSpaces keeps d_n's columns only, for its generators and
membership tests, and reads d_n's invariants and ranks from the memo.  The
GF(p) ranks behind ``homology_mod`` and the prime cocycle and coboundary
dimensions are read off the cached Smith diagonal of d_n when there is
one: the reductions and every step of the Z elimination are unimodular, so
invertible mod every p, and rank_p d_n = rank d_n minus the number of
invariant factors that p divides.  Otherwise the rank is the number of rows
of the sparse GF(p) RREF of the columns of d_n.  Neither route is faster on
every input: the RREF spares a Z elimination of a map that the one below
has not reduced (a cocycle dimension reads d_{n+1} before d_n), while a Z
sweep whose maps reduce one another wins on some ``homology_mod`` inputs.
Cocycle and coboundary generators with coefficients in Z_d are built only
when read: off the same RREF when d is prime.  Otherwise the cocycle
generators are the fewest that span Z^n(X; Z_d), read off the sparse Z
elimination of d_{n+1} (``snf.mod_kernel``), and the coboundary generators
are the distinct nonzero rows of d_n mod d.

The cocycle check and ``coboundary`` build no chain basis and no boundary
map.  A cochain mu of degree n is laid out once as length-|X| rows keyed by
its tail, row[(x2 ... xn)][x1] = mu(x1, x2, ..., xn) (``_tail_rows``, the
layout the state-sum folds read too).  For each tail s of C_{n+1}, in
lexicographic order, delta mu(x1, s) comes out as one vector over every x1:
each face of the boundary adds or subtracts one row, the acted faces read
through the right-translation column x -> x * s_i.  The budget still counts
the |X|^(n+1) tuples of C_{n+1}.  ``is_cocycle`` keeps one verdict per
budget and cochain, which the checked state sums, lifts and
``cocycles --verify`` all read.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, prod
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from . import _budget, snf
from ._util import Record, content_lines, field
from .algebra import RackTable
from .errors import DomainError, ParseError

THEORIES = ("R", "D", "Q")

def _is_degenerate(t: tuple[int, ...]) -> bool:
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


class ChainBasis(Record):
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


@_budget.memo
def chain_basis(X: RackTable, n: int, theory: str) -> ChainBasis:
    """Canonical (lexicographic) basis of C_n for the given theory."""
    _check_theory(X, theory)
    if n <= 0:
        return ChainBasis(n, theory, ())
    _budget.check_chain(X.size, n)
    if theory == "Q":
        return ChainBasis(n, theory, _nondegenerate_tuples(X.size, n))
    all_tuples = itertools.product(range(X.size), repeat=n)
    if theory == "R":
        tuples = tuple(all_tuples)
    else:
        tuples = tuple(t for t in all_tuples if _is_degenerate(t))
    return ChainBasis(n, theory, tuples)


def _nondegenerate_tuples(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The n-tuples over range(m) with no adjacent repeat, in lexicographic order.

    Built one coordinate at a time, each tuple extended by every entry except
    its last, so no degenerate tuple is ever formed.
    """
    tails = [tuple((y,) for y in range(m) if y != x) for x in range(m)]
    tuples = [(x,) for x in range(m)] if n else [()]
    for _ in range(n - 1):
        tuples = [t + tail for t in tuples for tail in tails[t[-1]]]
    return tuple(tuples)


_Face = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def _faces(table: Sequence[Sequence[int]], s: tuple[int, ...]) -> list[_Face]:
    """The faces i = 2 ... n of (x1, s) for every x1 at once, s = (x2 ... xn).

    The boundary of a tuple is the sum over i = 2 ... n of (-1)^i times
    (x1 ... xn without xi) minus (x1 * xi, ..., x(i-1) * xi, x(i+1) ...
    xn).  Face i is (sign, s_i, dropped, acted): the sign (-1)^i, which
    the dropped term carries and the acted term negates; the tail of s
    without s_i, under x1; and the tail (s_1 * s_i, ..., s_{i-1} * s_i,
    s_{i+1}, ...), under x1 * s_i.  The i = 1 face drops
    out.  This is the boundary formula in tail form, read by
    ``boundary_matrix`` and the cocycle check alike.
    """
    faces = []
    for j, y in enumerate(s):
        rest = s[j + 1:]
        # Face 2 acts on x1 alone, so its two tails are one.
        acted = tuple([table[z][y] for z in s[:j]]) + rest if j else rest
        faces.append((-1 if j % 2 else 1, y, s[:j] + rest, acted))
    return faces


def _right_translations(X: RackTable) -> list:
    """right[y](row) is the row read at x * y for every x; on one element, the row."""
    m, table = X.size, X.table
    if m == 1:
        return [lambda row: row]
    return [itemgetter(*[table[x][y] for x in range(m)]) for y in range(m)]


class BoundaryMatrix(Record):
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
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                rows[i][j] = v
        return tuple(map(tuple, rows))

    @property
    def nrows(self) -> int:
        return len(self.codomain)

    @property
    def ncols(self) -> int:
        return len(self.domain)


def boundary_matrix(X: RackTable, n: int, theory: str = "R") -> BoundaryMatrix:
    """The boundary C_n -> C_{n-1}; zero for n <= 1 by convention.

    Built tail by tail.  The codomain basis is laid out once as at[r][y],
    the row of (y,) + r, None off the basis (degenerate terms in theory Q).
    For each tail s of the domain, each face of ``_faces`` gives one vector
    of rows over every x1: the dropped face reads at[dropped] at x1, the
    acted face reads at[acted] at x1 * s_i through the right-translation
    column of s_i.  A column (x1, s) then sums its 2(n - 1) rows in face
    order, each dropped term before its acted term, and drops the zeros,
    so it equals the per-tuple boundary on the basis, key order included.
    """
    _check_theory(X, theory)
    domain = chain_basis(X, n, theory)
    codomain = chain_basis(X, n - 1, theory)
    m, table = X.size, X.table
    at: dict[tuple[int, ...], list[int | None]] = {}
    for i, t in enumerate(codomain.tuples):
        at.setdefault(t[1:], [None] * m)[t[0]] = i
    right = _right_translations(X)
    # The domain by tail: each tail's columns, x1 ascending.
    tuples = domain.tuples
    slots: dict[tuple[int, ...], list[int]] = {}
    for j, t in enumerate(tuples):
        slots.setdefault(t[1:], []).append(j)
    columns: list = [None] * len(tuples)
    for s, js in slots.items():
        reads, signs = [], []
        for sign, y, dropped, acted in _faces(table, s):
            if (row := at.get(dropped)) is not None:
                reads.append(row)
                signs.append(sign)
            if (row := at.get(acted)) is not None:
                reads.append(right[y](row))
                signs.append(-sign)
        by_first = list(zip(*reads)) if reads else [()] * m
        for j in js:
            col: dict[int, int] = {}
            for r, c in zip(by_first[tuples[j][0]], signs):
                if r is not None:
                    col[r] = col.get(r, 0) + c
            columns[j] = {r: c for r, c in col.items() if c} if 0 in col.values() else col
    return BoundaryMatrix(X, n, theory, tuple(columns), domain, codomain)


# --- abelian group values ------------------------------------------------------


class AbelianGroup(Record):
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
        """Build from any list of cyclic orders (0 for Z), recombining canonically."""
        orders = [abs(d) for d in divisors]
        factors = snf.invariant_factors([d for d in orders if d])
        return cls(rank + orders.count(0), tuple(d for d in factors if d > 1))

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


# --- homology -------------------------------------------------------------------


# Rank of d_n, torsion of coker d_n (invariant factors > 1), columns pivoted on.
_Invariants = tuple[int, tuple[int, ...], frozenset[int]]


@_budget.memo
def _boundary_invariants(X: RackTable, n: int, theory: str) -> _Invariants:
    """The invariants of d_n, once per budget, eliminated on the rows d_{n-1} leaves.

    Each unit pivot of ``snf._eliminate`` on d_{n-1}, in row r and column c,
    is an elementary reduction of the chain complex (Kaczynski, Mrozek and
    Slusarek, Comput. Math. Appl. 35, 1998): c leaves C_{n-1} and r leaves
    C_{n-2}, every homology group is kept, and all that changes in d_n is
    that row c goes.  So when the answer for d_{n-1} is memoized, its pivot
    columns are the rows the elimination of d_n drops.  H_{n-1} keeps its
    free rank and torsion, and C_{n-1} and rank d_{n-1} both fall by the
    number of pivots, so rank d_n and the torsion of coker d_n come out
    unchanged.  The columns pivoted on here do the same for d_{n+1}, whose
    answer serves H_n and H_{n+1} alike.
    """
    d = boundary_matrix(X, n, theory)
    lower = _boundary_invariants.peek(X, n - 1, theory)
    drop = lower[2] if lower is not None else frozenset()
    pivoted: set[int] = set()
    free, torsion = snf.cokernel_invariants(d.columns, d.nrows, pivoted, drop)
    return d.nrows - len(drop) - free, tuple(torsion), frozenset(pivoted)


@_budget.memo
def _boundary_mod_rank(X: RackTable, n: int, theory: str, p: int) -> int:
    """Rank of d_n over GF(p), p prime.

    Read off the integral invariants of d_n when they are already cached
    (rank d_n minus the invariant factors p divides; see the module
    docstring), else the number of rows of the GF(p) RREF of its columns.
    """
    invariants = _boundary_invariants.peek(X, n, theory)
    if invariants is None:
        return snf.mod_rank(boundary_matrix(X, n, theory).columns, p)
    rank, torsion, _ = invariants
    return rank - sum(1 for e in torsion if e % p == 0)


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
    _budget.check_chain(X.size, n + 1)  # C_{n+1}, before any map is built
    rank_lower, _, _ = _boundary_invariants(X, n, theory)
    rank_upper, torsion, _ = _boundary_invariants(X, n + 1, theory)
    return AbelianGroup(dim - rank_lower - rank_upper, torsion)


def homology_mod(X: RackTable, n: int, theory: str, p: int) -> int:
    """Direct dimension of H_n(X; Z_p) for prime p, via GF(p) ranks."""
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime; use homology_with_coefficients")
    _check_theory(X, theory)
    dim = len(chain_basis(X, n, theory))
    if dim == 0:
        return 0
    _budget.check_chain(X.size, n + 1)  # C_{n+1}, before any map is built
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


class Cochain(Record):
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


class CocycleCheck(Record):
    ok: bool
    reason: str | None = None
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _tail_rows(mu: Cochain, m: int) -> dict[tuple[int, ...], list[int]]:
    """mu as length-m rows by tail, row[(x2 ... xn)][x1] = mu(x1, x2, ...), none zero.

    Tuples with an entry outside range(m) are dropped.
    """
    rows: dict[tuple[int, ...], list[int]] = {}
    for t, v in mu.values.items():
        if all(0 <= x < m for x in t):
            rows.setdefault(t[1:], [0] * m)[t[0]] = v
    return rows


def _coboundary_values(
    X: RackTable, mu: Cochain, theory: str, work: str
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Per tail s, the row x1 -> (delta mu)(x1, s) mod d on the degree-(n+1) basis.

    mu is read through its tail rows (``_tail_rows``), and the faces of
    (x1, s) come from the one face walk per tail that ``boundary_matrix``
    reads too (``_faces``).  The dropped face reads the row of its tail at
    x1; the acted face reads the row of its tail at x1 * s_i, through the
    right-translation column of s_i.  So each face is one row operation for
    every x1 at once, with the signs of the boundary formula, and absent
    rows are skipped.  Entries off the basis are zero: x1 = s_1 in theory
    Q, x1 != s_1 on a non-degenerate tail in theory D.  Rows are yielded in
    lexicographic order of the tails (in theory Q the non-degenerate ones,
    built directly by ``_nondegenerate_tuples``), only those with a nonzero
    entry.  The budget counts the |X|^(n+1) tuples of C_{n+1}, but no basis
    is built, so a refusal names the ``work`` instead.
    """
    m, n, d, table = X.size, mu.degree, mu.modulus, X.table
    _budget.check_chain(m, n + 1, work)
    rows = _tail_rows(mu, m)
    # Each term adds a row: +mu through `rows`, -mu through `negated`.
    negated = {tail: [-v for v in row] for tail, row in rows.items()}
    right = _right_translations(X)
    if theory == "Q":
        tails: Iterable[tuple[int, ...]] = _nondegenerate_tuples(m, n)
    else:
        tails = itertools.product(range(m), repeat=n)
    for s in tails:
        terms = []
        for sign, y, dropped, acted in _faces(table, s):
            plus, minus = (rows, negated) if sign > 0 else (negated, rows)
            if (row := plus.get(dropped)) is not None:
                terms.append(row)
            if (row := minus.get(acted)) is not None:
                terms.append(right[y](row))
        if not terms:
            continue
        delta = [total % d for total in map(sum, zip(*terms))]
        if theory == "Q":
            delta[s[0]] = 0
        elif theory == "D" and not _is_degenerate(s):
            delta = [v if x == s[0] else 0 for x, v in enumerate(delta)]
        if any(delta):
            yield s, delta


def is_cocycle(X: RackTable, phi: Cochain, theory: str = "Q") -> CocycleCheck:
    """Does phi vanish on boundaries (and, for theory Q, on degenerate tuples)?

    A cochain with a nonzero value on a tuple that names an element outside
    X is not a cochain of X, so it is rejected before any other check.  The
    witness is the first failing tuple in basis order: the least x1 failing
    on each tail, kept while a smaller one is found, and final at x1 = 0.
    The verdict is kept per budget and per (X, theory, degree, modulus,
    values in their insertion order), the order the witnesses follow.
    """
    _check_theory(X, theory)
    return _cocycle_verdict(X, theory, phi.degree, phi.modulus, tuple(phi.values.items()))


@_budget.memo
def _cocycle_verdict(X: RackTable, theory: str, degree: int, modulus: int, items: tuple):
    phi = Cochain(degree, modulus, dict(items))
    for t in phi.values:
        if not all(0 <= x < X.size for x in t):
            return CocycleCheck(False, "entry outside the quandle", t)
    if theory == "Q":
        bad = phi.vanishes_on_degenerate()
        if bad is not None:
            return CocycleCheck(False, "nonzero on degenerate tuple", bad)
    witness: tuple[int, ...] | None = None
    for s, delta in _coboundary_values(X, phi, theory, "cocycle check"):
        x = next(x for x, v in enumerate(delta) if v)
        if witness is None or x < witness[0]:
            witness = (x,) + s
            if x == 0:
                break
    if witness is not None:
        return CocycleCheck(False, "coboundary is nonzero", witness)
    return CocycleCheck(True)


def coboundary(X: RackTable, mu: Cochain, theory: str = "Q") -> Cochain:
    """The degree-(n+1) cochain (delta mu)(w) = mu(boundary w), in basis order."""
    _check_theory(X, theory)
    by_first: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(X.size)]
    for s, delta in _coboundary_values(X, mu, theory, "coboundary"):
        for x, v in enumerate(delta):
            if v:
                by_first[x].append(((x,) + s, v))
    return Cochain(mu.degree + 1, mu.modulus, dict(itertools.chain(*by_first)))


class CochainSpaces(Record):
    """Cocycles and coboundaries of degree n over Z_d in one basis.

    For prime d the dimensions are GF(d) ranks of the sparse boundary maps,
    the same cached ranks ``homology_mod`` reads (delta_n is d_{n+1}
    transposed), and the generator lists are honest bases, off the sparse
    GF(d) RREF of the columns of d_{n+1} and the rows of d_n.  For composite
    d there are no dimensions.  The cocycle generators are then as few as
    generate Z^n(X; Z_d): dim - rank d_{n+1} + #{e_i : gcd(e_i, d) > 1} for
    the invariant factors e_i of d_{n+1}, from ``snf.mod_kernel``.  The
    coboundary generators are the distinct nonzero rows of d_n mod d, which
    need not be fewest.  Generators are built on first read.
    """

    X: RackTable = field(repr=False)
    degree: int
    modulus: int
    theory: str
    basis: ChainBasis
    prime: bool

    @cached_property
    def cocycle_dimension(self) -> int:
        if not self.prime:
            raise DomainError("dimensions need a prime modulus")
        rank = _boundary_mod_rank(self.X, self.degree + 1, self.theory, self.modulus)
        return len(self.basis) - rank

    @cached_property
    def coboundary_dimension(self) -> int:
        """rank d_n mod d, the cached rank ``homology_mod`` reads."""
        if not self.prime:
            raise DomainError("dimensions need a prime modulus")
        return _boundary_mod_rank(self.X, self.degree, self.theory, self.modulus)

    @cached_property
    def cocycle_vectors(self) -> tuple[tuple[int, ...], ...]:
        up = boundary_matrix(self.X, self.degree + 1, self.theory)
        # The cocycles are the x with x.c = 0 mod d for each column c of d_{n+1}.
        solve = snf.mod_nullspace if self.prime else snf.mod_kernel
        return tuple(map(tuple, solve(up.columns, len(self.basis), self.modulus)))

    @cached_property
    def _down(self) -> BoundaryMatrix:
        """d_n, built once for the coboundary generators and every appended matrix."""
        return boundary_matrix(self.X, self.degree, self.theory)

    @cached_property
    def coboundary_vectors(self) -> tuple[tuple[int, ...], ...]:
        # The row space of d_n mod d is the coboundary space; for prime d, its RREF.
        down = self._down
        rows: list[dict[int, int]] = [{} for _ in range(down.nrows)]
        for j, col in enumerate(down.columns):
            for i, v in col.items():
                rows[i][j] = v
        if self.prime:
            rows = list(snf.mod_rref(rows, self.modulus).values())
        dense = (tuple(row.get(j, 0) for j in range(len(self.basis))) for row in rows)
        return tuple(_distinct_nonzero(dense, self.modulus))

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
        The rank and torsion of d_n come from the memo that ``homology``
        reads; only the appended matrix is eliminated on every call.  A phi
        of another degree or modulus, or nonzero off the basis (outside the
        quandle, or degenerate in theory Q), raises DomainError.
        """
        if (phi.degree, phi.modulus) != (self.degree, self.modulus):
            raise DomainError(f"expected a cochain of degree {self.degree} mod {self.modulus}")
        index = self.basis.index
        outside = next((t for t in phi.values if t not in index), None)
        if outside is not None:
            raise DomainError(f"cochain is nonzero on {outside}, outside the chain basis")
        of_down = _boundary_invariants(self.X, self.degree, self.theory)[:2]
        down = self._down
        dim, d, m = len(self.basis), self.modulus, down.nrows
        appended = list(down.columns)
        for t, v in phi.values.items():
            appended[index[t]] = {**appended[index[t]], m: v}
        free, torsion = snf.cokernel_invariants(appended, m + 1)
        invariants = (of_down, (m + 1 - free, torsion))
        orders = [d ** (dim - rank) * prod(gcd(e, d) for e in torsion)
                  for rank, torsion in invariants]
        return orders[0] == orders[1]


def _is_prime(d: int) -> bool:
    """Miller-Rabin to the twelve prime bases up to 37, polynomial in the digits of d.

    Exact below 3317044064679887385961981 (about 3.3 * 10^24), the least
    composite that passes all twelve.  Above it a d that passes is a strong
    probable prime: it is taken for a prime, and Z_d is reduced as a field.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if d < 2 or any(d % p == 0 for p in bases):
        return d in bases
    s = ((d - 1) & (1 - d)).bit_length() - 1  # d - 1 = 2^s r with r odd
    r = (d - 1) >> s
    return all(pow(a, r, d) == 1 or d - 1 in (pow(a, r << i, d) for i in range(s))
               for a in bases)


def _distinct_nonzero(vectors: Iterable[Sequence[int]], d: int) -> list[tuple[int, ...]]:
    """The distinct nonzero reductions mod d of the vectors, in first-seen order."""
    reduced = (tuple(v % d for v in vec) for vec in vectors)
    return list(dict.fromkeys(vec for vec in reduced if any(vec)))


def cohomology(X: RackTable, n: int, theory: str, d: int) -> CochainSpaces:
    """Cocycle and coboundary spaces of degree n with coefficients in Z_d.

    The chain basis is built here, and C_{n+1}, the largest space the two
    boundary maps touch, is budget-checked; the maps, dimensions and
    generators are built when first read.
    """
    if d < 2:
        raise DomainError("coefficient modulus must be at least 2")
    _check_theory(X, theory)
    basis = chain_basis(X, n, theory)
    _budget.check_chain(X.size, n + 1)
    return CochainSpaces(X, n, d, theory, basis, _is_prime(d))


# --- structure report -------------------------------------------------------------


class StructureReport(Record):
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
    """Parse the cochain format: 'cochain <degree> <modulus>' then value lines.

    Each tuple may appear on at most one line; a repeat is a ParseError.
    """
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
    if degree < 1:
        raise ParseError("cochain degree must be at least 1")
    if modulus < 1:
        raise ParseError("cochain modulus must be at least 1")
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
        t = tuple(nums[:-1])
        if t in values:
            raise ParseError(f"cochain line {line!r} repeats the tuple {t}; "
                             "each tuple may appear at most once")
        values[t] = nums[-1]
    return Cochain(degree, modulus, values)


def format_cochain(phi: Cochain) -> str:
    lines = [f"cochain {phi.degree} {phi.modulus}"]
    for t in sorted(phi.values):
        lines.append(" ".join(map(str, t)) + f" {phi.values[t]}")
    return "\n".join(lines) + "\n"
