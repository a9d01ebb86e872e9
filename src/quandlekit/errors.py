"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: ParseError -> 2, DomainError (and
subclasses) -> 1, BudgetError -> 3.
"""


class QuandleKitError(Exception):
    """Base class for all errors raised by quandlekit."""


class ParseError(QuandleKitError):
    """Malformed input: table files, PD codes, braid words, cochain files."""


class NonplanarError(ParseError):
    """A PD code whose face structure violates Euler's formula."""


class DomainError(QuandleKitError):
    """Input is well-formed but violates a mathematical precondition."""


class NotARackError(DomainError):
    """An operation needing a rack was handed a table that is not one."""


class NonCocycleError(DomainError):
    """A state sum or extension lift was handed a cochain that fails the
    cocycle condition."""


class BudgetError(QuandleKitError):
    """A chain group's size exceeded the resource budget (size rule in ``_budget``)."""
