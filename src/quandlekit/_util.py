"""Small helpers shared by the table, diagram and cochain layers."""

from __future__ import annotations

from typing import Iterable


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
