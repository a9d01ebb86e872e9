"""Finite racks, quandles and keis as explicit operation tables.

Elements are always the integers 0..n-1; named elements live in I/O layers
only.  A table is classified (not-a-rack / rack / quandle / kei) on first
use and caches its class, orbit structure and inverse operation.  A table
from a file, a conjugation quandle or an abelian extension pays the
O(|X|^3) axiom check and a union-find over its |X|^2 entries.  The trivial,
dihedral and Alexander quandles are affine, a*b = Ta + (1-T)b on a finite
abelian group with T an automorphism, so they are quandles by construction:
their constructors mark them, and their class and orbits are read off the
table in linear time.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from ._util import Record, content_lines, field, union_classes
from .errors import DomainError, NotARackError, ParseError

NOT_A_RACK = "not-a-rack"
RACK = "rack"
QUANDLE = "quandle"
KEI = "kei"


class AxiomCheck(Record):
    """Classification of a candidate table plus the first violated axiom.

    For a genuine rack, ``failed_axiom`` names the axiom that blocks the next
    stronger class (Q1 for racks that are not quandles, K2 for quandles that
    are not keis); for keis it is None.
    """

    rack_class: str
    failed_axiom: str | None
    witness: tuple[int, ...] | None

    def describe(self) -> str:
        if self.failed_axiom is None:
            return self.rack_class
        w = ",".join(map(str, self.witness or ()))
        return f"{self.rack_class}: axiom {self.failed_axiom} fails at ({w})"


class RackTable(Record):
    """An n-element binary operation table; table[a][b] encodes a*b.

    ``affine`` is True only on a table that a builtin constructor built as
    table[a][b] = Ta + (1-T)b on a finite abelian group whose zero is
    element 0, with T an automorphism (see _affine).  It is not a field, so
    it takes no part in construction, ``==``, ``hash`` or ``repr``.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)

    affine = False

    def __post_init__(self) -> None:
        n = self.size
        if n < 1:
            raise DomainError("table must have at least one element")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ParseError(f"table is not {n}x{n}")
        for a, row in enumerate(self.table):
            for b, v in enumerate(row):
                if not 0 <= v < n:
                    raise ParseError(
                        f"entry {a}*{b}={v} outside 0..{n - 1} (malformed table)"
                    )

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def _inverse(self) -> tuple[tuple[int, ...], ...]:
        # inverse[a][b] = c with c*b = a; requires bijective columns (R1)
        n = self.size
        inv = [[-1] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                inv[self.table[a][b]][b] = a
        if any(v < 0 for row in inv for v in row):
            raise NotARackError("columns are not bijections; no inverse operation")
        return tuple(tuple(row) for row in inv)

    def op_inv(self, a: int, b: int) -> int:
        """The unique c with c*b = a."""
        return self._inverse[a][b]

    @cached_property
    def check(self) -> AxiomCheck:
        """The class and first failed axiom, as check_axioms reports them.

        An affine table is a quandle, and (a*b)*b - a = (T^2 - 1)(a - b), so
        K2 first fails in row 0, at the least b with (0*b)*b != 0: |X|
        lookups instead of check_axioms' O(|X|^3) steps.
        """
        if not self.affine:
            return check_axioms(self.table)
        table = self.table
        for b, v in enumerate(table[0]):
            if table[v][b]:
                return AxiomCheck(QUANDLE, "K2", (0, b))
        return AxiomCheck(KEI, None, None)

    @property
    def rack_class(self) -> str:
        return self.check.rack_class

    @property
    def is_rack(self) -> bool:
        return self.check.rack_class != NOT_A_RACK

    @property
    def is_quandle(self) -> bool:
        return self.check.rack_class in (QUANDLE, KEI)

    def require_rack(self) -> None:
        if not self.is_rack:
            raise NotARackError(self.check.describe())

    def require_quandle(self) -> None:
        self.require_rack()
        if not self.is_quandle:
            raise DomainError(f"{self.label} is a rack but not a quandle")

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition under all right translations and their inverses.

        Each orbit is sorted and the orbits are ordered by least element.
        An affine table's orbit of x is the coset x + im(1-T), which is the
        set of entries of row x, so one row per orbit is read; any other
        table runs a union-find over all its entries.
        """
        self.require_rack()
        n = self.size
        if not self.affine:
            moves = ((a, self.table[a][b]) for a in range(n) for b in range(n))
            return union_classes(n, moves)
        orbits: list[tuple[int, ...]] = []
        placed = [False] * n
        for x, row in enumerate(self.table):
            if not placed[x]:
                orbit = tuple(sorted(set(row)))
                for y in orbit:
                    placed[y] = True
                orbits.append(orbit)
        return tuple(orbits)

    @property
    def label(self) -> str:
        return self.name or f"rack({self.size})"

    def __iter__(self):
        return iter(range(self.size))

    def __len__(self) -> int:
        return self.size


def check_axioms(table: Sequence[Sequence[int]]) -> AxiomCheck:
    """Classify a candidate table, reporting the first violated axiom.

    Checks run cheapest-first: column bijectivity (R1), then right
    self-distributivity (R2), then idempotency (Q1), then involutivity (K2).
    The witness names the offending elements.
    """
    n = len(table)
    if n == 0:
        raise ParseError("empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise ParseError(f"row {a} has {len(row)} entries, expected {n}")
        for b, v in enumerate(row):
            if not 0 <= v < n:
                raise ParseError(f"entry {a}*{b}={v} outside 0..{n - 1} (malformed table)")

    for b in range(n):
        seen: dict[int, int] = {}
        for a in range(n):
            v = table[a][b]
            if v in seen:
                return AxiomCheck(NOT_A_RACK, "R1", (b, seen[v], a))
            seen[v] = a

    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            row_ab = table[ab]
            for c in range(n):
                if row_ab[c] != table[table[a][c]][table[b][c]]:
                    return AxiomCheck(NOT_A_RACK, "R2", (a, b, c))

    for a in range(n):
        if table[a][a] != a:
            return AxiomCheck(RACK, "Q1", (a,))

    for a in range(n):
        for b in range(n):
            if table[table[a][b]][b] != a:
                return AxiomCheck(QUANDLE, "K2", (a, b))

    return AxiomCheck(KEI, None, None)


# --- constructors -------------------------------------------------------------


def _affine(X: RackTable) -> RackTable:
    """Mark X as affine; only for tables built as a*b = Ta + (1-T)b."""
    object.__setattr__(X, "affine", True)
    return X


def make_trivial(n: int) -> RackTable:
    """The trivial kei on n elements: x*y = x."""
    if n < 1:
        raise DomainError("trivial kei needs at least one element")
    return _affine(RackTable(n, tuple(tuple(a for _ in range(n)) for a in range(n)),
                             f"trivial:{n}"))


def make_dihedral(n: int) -> RackTable:
    """The dihedral kei R_n: i*j = 2j - i (mod n)."""
    if n < 1:
        raise DomainError("dihedral kei needs at least one element")
    return _affine(RackTable(
        n,
        tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)),
        f"dihedral:{n}",
    ))


def make_alexander(
    modulus: int, quotient_poly: Sequence[int], t_poly: Sequence[int]
) -> RackTable:
    """The Alexander quandle Z_modulus[x]/(quotient_poly) with a*b = Ta + (1-T)b.

    Polynomials are coefficient lists, constant term first.  T is the
    Z_modulus-linear map "multiplication by t_poly" on the coefficient
    vectors of the quotient ring; its column k is t * x^k mod the quotient.
    Elements are those vectors, enumerated lexicographically (constant
    coefficient most significant), so tables are reproducible.  For modulus
    > 1 the name is a spec of the same quandle: the monic quotient and t mod
    the quotient, e.g. alexander:3:1,1:2 for alexander:3:-2,1:2.
    """
    if modulus < 1:
        raise DomainError("modulus must be positive")
    m = modulus
    if m == 1:
        return _affine(RackTable(1, ((0,),), "alexander:1"))
    q = [c % m for c in quotient_poly]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        raise DomainError("quotient polynomial must be nonzero")
    # Normalize the quotient to be monic; its leading coefficient must be a unit.
    lead = q[-1]
    try:
        inv_lead = pow(lead, -1, m)
    except ValueError:
        raise DomainError("leading coefficient of the quotient must be a unit") from None
    q = [(c * inv_lead) % m for c in q]
    deg = len(q) - 1
    if deg < 1:
        raise DomainError("quotient polynomial must have degree >= 1")

    def times_x(v: list[int]) -> list[int]:
        # Shift up one place; the coefficient of x^deg is reduced by the monic q.
        return [(c - v[-1] * d) % m for c, d in zip([0] + v[:-1], q)]

    col = [0] * deg  # t mod q, by Horner's rule
    for c in reversed(t_poly):
        col = times_x(col)
        col[0] = (col[0] + c) % m
    cols = [col]
    for _ in range(deg - 1):
        cols.append(times_x(cols[-1]))

    def idx(v: Sequence[int]) -> int:
        out = 0
        for c in v:
            out = out * m + c
        return out

    # Element i <-> its coefficient vector, constant coefficient most significant.
    n = m**deg
    elements = list(itertools.product(range(m), repeat=deg))
    t_of = [[sum(c * col[r] for c, col in zip(e, cols)) % m for r in range(deg)]
            for e in elements]
    # T must act bijectively, otherwise R1 fails.
    if len({idx(v) for v in t_of}) != n:
        raise DomainError("T must be a unit in the quotient ring")
    # a*b = Ta + (b - Tb)
    s_of = [[(x - y) % m for x, y in zip(b, tb)] for b, tb in zip(elements, t_of)]
    rows = tuple(tuple(idx([(x + y) % m for x, y in zip(ta, sb)]) for sb in s_of)
                 for ta in t_of)
    t = col[:]
    while not t[-1]:  # T is a unit, so t mod q is nonzero
        t.pop()
    spec = ":".join(",".join(map(str, p)) for p in (q, t))
    return _affine(RackTable(n, rows, f"alexander:{m}:{spec}"))


def _validate_group(table: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Check a multiplication table is a group; return (identity, inverses)."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise ParseError("malformed group table")
    identity = next(
        (e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))),
        None,
    )
    if identity is None:
        raise DomainError("group table has no identity")
    inverse = [-1] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inverse[a] = b
                break
        else:
            raise DomainError(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise DomainError(f"group table not associative at ({a},{b},{c})")
    return identity, inverse


def make_conjugation(group_table: Sequence[Sequence[int]], exponent: int = 1) -> RackTable:
    """The n-fold conjugation quandle of a finite group: a*b = b^-n a b^n."""
    identity, inverse = _validate_group(group_table)
    n = len(group_table)

    def power(g: int, e: int) -> int:
        if e < 0:
            g, e = inverse[g], -e
        out = identity
        for _ in range(e):
            out = group_table[out][g]
        return out

    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            be = power(b, exponent)
            bi = inverse[be]
            row.append(group_table[group_table[bi][a]][be])
        rows.append(tuple(row))
    return RackTable(n, tuple(rows), f"conj(order {n}, exp {exponent})")


# --- word calculus ------------------------------------------------------------


class RackWord(Record):
    """A base symbol acted on by a word of right translations.

    ``letters`` is a sequence of (symbol, exponent) pairs with exponents +-1;
    an empty word denotes the base itself.
    """

    base: Any
    letters: tuple[tuple[Any, int], ...] = ()

    def __post_init__(self) -> None:
        for _, e in self.letters:
            if e not in (1, -1):
                raise DomainError("word exponents must be +1 or -1")


def evaluate_word(X: RackTable, u: int, word: Iterable) -> int:
    """Apply a word of right translations S_x^{+-1} to u, left to right.

    ``word`` may be a RackWord over elements, or an iterable whose items are
    elements (exponent +1) or (element, exponent) pairs.
    """
    X.require_rack()
    letters = word.letters if isinstance(word, RackWord) else word
    for item in letters:
        x, e = item if isinstance(item, tuple) else (item, 1)
        u = X.table[u][x] if e == 1 else X.op_inv(u, x)
    return u


def evaluate_tree(X: RackTable, tree, assignment: Mapping[Any, int]) -> int:
    """Evaluate a *-expression tree; leaves are symbols mapped by assignment."""
    if isinstance(tree, tuple):
        left, right = tree
        return X.table[evaluate_tree(X, left, assignment)][
            evaluate_tree(X, right, assignment)
        ]
    return assignment[tree]


def kei_normalize(tree) -> RackWord:
    """Left-normal form of a *-expression over kei generators.

    Trees are nested 2-tuples with symbol leaves.  The result is a flat word
    x1^{x2 x3 ...} over the same symbols that evaluates equally in every kei.
    The rewriting behind the recursion is x*(y*z) -> ((x*z)*y)*z together with
    the cancellation (x*y)*y -> x; each application of the first rule strictly
    decreases the total right-spine depth of the leaves, which is why the
    normal form exists.
    """
    base, letters = _flatten_tree(tree)
    reduced: list[Any] = []
    for x in letters:
        if reduced and reduced[-1] == x:
            reduced.pop()
        else:
            reduced.append(x)
    return RackWord(base, tuple((x, 1) for x in reduced))


def _flatten_tree(tree) -> tuple[Any, list[Any]]:
    if not isinstance(tree, tuple):
        return tree, []
    left, right = tree
    a, w = _flatten_tree(left)
    b, v = _flatten_tree(right)
    # a^w * b^v  =  a^{w  v_k..v_1  b  v_1..v_k}
    return a, w + v[::-1] + [b] + v


def evaluate_rack_word(X: RackTable, word: RackWord, assignment: Mapping[Any, int]) -> int:
    """Evaluate a symbolic RackWord under a leaf assignment."""
    u = assignment[word.base]
    return evaluate_word(X, u, [(assignment[x], e) for x, e in word.letters])


# --- associated group ---------------------------------------------------------


class GroupPresentation(Record):
    generators: tuple[str, ...]
    relators: tuple[tuple[tuple[str, int], ...], ...]

    def __post_init__(self) -> None:
        gens = set(self.generators)
        for rel in self.relators:
            for g, _ in rel:
                if g not in gens:
                    raise DomainError(f"relator uses unknown generator {g}")


def associated_group_presentation(X: RackTable) -> GroupPresentation:
    """Presentation of the associated group: x*y read as y^-1 x y.

    One generator per element and, for every ordered pair (x, y), the relator
    (x*y) y^-1 x^-1 y.
    """
    X.require_rack()
    gens = tuple(f"x{i}" for i in range(X.size))
    relators = []
    for x in range(X.size):
        for y in range(X.size):
            xy = X.table[x][y]
            relators.append(
                ((gens[xy], 1), (gens[y], -1), (gens[x], -1), (gens[y], 1))
            )
    return GroupPresentation(gens, tuple(relators))


# --- abelian extensions -------------------------------------------------------


def abelian_extension(X: RackTable, d: int, phi) -> RackTable:
    """The extension table on Z_d x X twisted by a degree-2 cochain.

    (g1, x1) * (g2, x2) = (g1 + phi(x1, x2), x1*x2); element (g, x) is encoded
    as g*|X| + x.  No cocycle condition is assumed: feeding a non-cocycle
    simply produces a table whose classification reports the broken axiom.
    """
    if d < 1:
        raise DomainError("extension modulus must be positive")
    if phi.degree != 2:
        raise DomainError("extension needs a degree-2 cochain")
    if phi.modulus != d:
        raise DomainError("cochain modulus does not match extension modulus")
    n = X.size
    rows = []
    for g1 in range(d):
        for x1 in range(n):
            row = []
            for g2 in range(d):
                for x2 in range(n):
                    g = (g1 + phi.value((x1, x2))) % d
                    row.append(g * n + X.table[x1][x2])
            rows.append(tuple(row))
    return RackTable(d * n, tuple(rows), f"E({X.label},Z_{d})")


# --- isomorphism search (small tables only) ------------------------------------


def _profile(X: RackTable, a: int) -> tuple:
    fixed = sum(1 for b in range(X.size) if X.table[a][b] == a)
    fixes = sum(1 for b in range(X.size) if X.table[b][a] == b)
    idem = X.table[a][a] == a
    return (fixed, fixes, idem)


def find_isomorphism(X: RackTable, Y: RackTable) -> tuple[int, ...] | None:
    """Backtracking isomorphism X -> Y with degree-invariant pruning.

    Elements of X get their images in order 0, 1, ...; each pair (x, y) is
    checked once, when the last of x, y and x*y is mapped.  The search keeps
    its own stack, so its depth is not bounded by the recursion limit.
    Returns the image tuple or None.
    """
    if X.size != Y.size:
        return None
    n = X.size
    px = [_profile(X, a) for a in range(n)]
    py = [_profile(Y, a) for a in range(n)]
    if sorted(px) != sorted(py):
        return None
    elements = list(range(n))  # shared int objects keep the lists below small
    candidates = [[b for b in elements if py[b] == px[a]] for a in elements]
    xt, yt = X.table, Y.table
    # checks[a] lists x0, y0, x1, y1, ...: the pairs with max(x, y, x*y) = a.
    checks: list[list[int]] = [[] for _ in elements]
    for x in elements:
        for y in elements:
            checks[max(x, y, xt[x][y])] += (x, y)
    mapping: list[int] = []
    used = [False] * n
    stack = [0]  # per mapped level, the index of the next candidate to try
    while stack:
        a = len(stack) - 1
        if len(mapping) > a:
            used[mapping.pop()] = False
        i = stack[a]
        if i == len(candidates[a]):
            stack.pop()
            continue
        stack[a] = i + 1
        b = candidates[a][i]
        if used[b]:
            continue
        mapping.append(b)
        used[b] = True
        pairs = iter(checks[a])
        if all(yt[mapping[x]][mapping[y]] == mapping[xt[x][y]] for x, y in zip(pairs, pairs)):
            if a + 1 == n:
                return tuple(mapping)
            stack.append(0)
    return None


# --- text format ---------------------------------------------------------------


def parse_rack_table(text: str, name: str | None = None) -> RackTable:
    """Parse the plain table format: a 'rack <n>' header then n rows of n ints."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty rack table")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "rack":
        raise ParseError("expected header 'rack <n>'")
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(f"bad size {head[1]!r} in rack header") from None
    if n < 1:
        raise ParseError("rack size must be positive")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"non-integer table entry in line {line!r}") from None
        if len(row) != n:
            raise ParseError(f"row {line!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    return RackTable(n, tuple(rows), name)
