"""The resource budget: its size rule, its refusal and the memo keyed by it.

The budget is the ``QUANDLEKIT_BUDGET`` environment variable, an integer,
20 000 when unset, read afresh on every check.  Its unit is a chain-basis
tuple.  C_n over m >= 2 elements counts m^n units in every theory (the D
and Q filters come after the count) and is refused with BudgetError when
that exceeds the budget.  A one-element quandle has a single n-tuple at
every degree, but the face walk of its one tail builds 2(n - 1) tails of
length n - 2, so there C_n counts n^2 units, the work of its boundary.
Degrees n <= 0 count nothing.

``within`` is the one comparison "m^n <= bound"; for m >= 2 it answers
no past the bound's bit length, without forming the power.  ``memo``
keeps answers per budget, never the boundary maps behind them, so no
cached answer gets around a limit.
"""

from __future__ import annotations

import os
from functools import wraps

from .errors import BudgetError, ParseError

DEFAULT = 20_000
ENV = "QUANDLEKIT_BUDGET"


def budget() -> int:
    raw = os.environ.get(ENV)
    if raw is None:
        return DEFAULT
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad {ENV} value {raw!r}") from None


def within(m: int, n: int, bound: int) -> bool:
    """Is m^n <= bound?  For m >= 2 past the bound's bit length it is not."""
    return not (m > 1 and n > bound.bit_length()) and m**n <= bound


def check_chain(m: int, n: int, work: str = "") -> None:
    """Refuse C_n over m elements when its size exceeds the budget.

    The refusal names a chain basis, or the ``work`` done over its tuples
    when one is named: a "cocycle check" walks C_n and builds no basis.
    """
    limit = budget()
    if n > 0 and not (within(n, 2, limit) if m == 1 else within(m, n, limit)):
        extra = f" (boundary work {n}^2)" if m == 1 else ""
        what = f"{work} over {m}^{n} tuples" if work else f"chain basis of size {m}^{n}"
        raise BudgetError(
            f"{what}{extra} exceeds the budget of {limit} (override with {ENV})"
        )


def memo(fn):
    """Cache ``fn`` per value of the budget variable as well as per argument.

    A result stored under one budget is never handed out under another, so
    every call raises BudgetError exactly when a call on an empty cache
    would.  The key is the raw string, so the lookup cannot raise; ``fn``
    parses it when it checks a size.  ``peek`` returns the stored result
    for these arguments under the current budget, or None, and never runs
    ``fn``.
    """
    cache: dict = {}

    def key(args, kwargs):
        return os.environ.get(ENV), args, tuple(sorted(kwargs.items()))

    @wraps(fn)
    def wrapper(*args, **kwargs):
        k = key(args, kwargs)
        if k not in cache:
            cache[k] = fn(*args, **kwargs)
        return cache[k]

    wrapper.peek = lambda *args, **kwargs: cache.get(key(args, kwargs))
    wrapper.cache_clear = cache.clear
    return wrapper
