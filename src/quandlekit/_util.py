"""Small helpers shared by the table, diagram and cochain layers.

``Record`` is the base of the package's value classes.  It gives them the
standard library's frozen data-class behaviour, but defines its methods once,
here, instead of compiling six of them from generated source for every class:
that code generation, and the ``inspect`` module it loads, were most of what
``import quandlekit`` cost.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable

_MISSING = object()
_set = object.__setattr__


class _Field:
    __slots__ = ("default", "compare", "repr")

    def __init__(self, default: Any, compare: bool, repr: bool) -> None:
        self.default, self.compare, self.repr = default, compare, repr


def field(*, default: Any = _MISSING, compare: bool = True, repr: bool = True) -> Any:
    """Options of one record field: ``name: T = field(default=None, compare=False)``."""
    return _Field(default, compare, repr)


class Record:
    """A value class whose fields are its own annotations, in order.

    A field with a class-level value defaults to it; ``field(...)`` also
    leaves it out of ``==`` and ``hash`` (``compare=False``) or ``repr``
    (``repr=False``).  ``__init__`` takes the fields positionally or by
    keyword, sets them in field order with ``object.__setattr__`` and then
    calls ``__post_init__`` if the class defines one.  A record is frozen.
    Equality needs the same class and equal compared fields, and the hash
    is that of the tuple of compared fields, as for a data class.
    Instances keep a ``__dict__``, so ``cached_property`` works.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    _shown: tuple[str, ...] = ()
    _post_init = _one = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields, defaults, compared, shown = [], {}, [], []
        for name in cls.__dict__.get("__annotations__", {}):
            value = cls.__dict__.get(name, _MISSING)
            opts = value if isinstance(value, _Field) else _Field(value, True, True)
            fields.append(name)
            if opts.default is not _MISSING:
                defaults[name] = opts.default
                setattr(cls, name, opts.default)
            elif value is not _MISSING:
                delattr(cls, name)
            if opts.compare:
                compared.append(name)
            if opts.repr:
                shown.append(name)
        cls._fields, cls._defaults, cls._shown = tuple(fields), defaults, tuple(shown)
        cls._post_init = hasattr(cls, "__post_init__")
        cls._key = staticmethod(attrgetter(*compared))  # a bare value for one name
        cls._one = len(compared) == 1

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        i = 0  # an index, not zip: a zip object costs a third of a small record's call
        for name in names:
            _set(self, name, args[i])
            i += 1
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        """The field values of a call with keywords, defaults or a wrong count."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        for name in names[: len(args)]:
            if name in kwargs:
                raise TypeError(f"{cls.__qualname__}() got multiple values for "
                                f"argument {name!r}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword "
                            f"argument {next(iter(kwargs))!r}")
        return tuple(values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        key = self._key(self)
        return hash((key,) if self._one else key)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"


def union_classes(
    n: int, pairs: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Classes of 0..n-1 under the equivalence generated by ``pairs``.

    Each class is sorted and the classes are ordered by their least element,
    so ids derived from the class order are reproducible.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(g) for g in groups.values())


def content_lines(text: str) -> list[str]:
    """The lines of ``text`` with ``#`` comments cut, stripped, blanks dropped."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines
