"""Resolution of quandle, diagram and cochain specs from strings and files.

A spec is either a builtin name (``trivial:4``, ``dihedral:3``,
``alexander:2:1,0,1:0,1``, ``torus:2:3``) or a path; names win when they look
like a builtin, otherwise the filesystem is consulted, and bundled data files
(``trefoil.pd``, ``theta_R3.cochain``, ...) resolve by bare name as a last
resort.  ``force_file`` skips the builtin parsing entirely.

Torus specs, ``braid:`` specs and braid files resolve to a braid word, not
to its closure: ``torus:p:q`` is one period word to the power |q|, and the
others are their word to the power 1.  A word whose closure would be split
is refused as it resolves.  Counts and state sums can then read the
closure's colorings off the braid's permutation without building it.
"""

from __future__ import annotations

import os
from importlib import resources

from ._util import content_lines
from .algebra import RackTable, make_alexander, make_dihedral, make_trivial, parse_rack_table
from .diagram import (
    BraidWord,
    Diagram,
    SurfaceDiagramData,
    parse_braid_word,
    parse_pd,
    parse_surface,
    torus_braid,
)
from .errors import DomainError, ParseError
from .homology import Cochain, parse_cochain

_RACK_BUILTINS = ("trivial", "dihedral", "alexander")
_DIAGRAM_BUILTINS = ("torus", "braid")


def bundled_data_names() -> list[str]:
    root = resources.files("quandlekit") / "data"
    return sorted(entry.name for entry in root.iterdir())


def read_data_file(name: str) -> str:
    path = resources.files("quandlekit") / "data" / name
    return path.read_text()


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled data file (the package is not zipped)."""
    return str(resources.files("quandlekit") / "data" / name)


def _read_spec_text(spec: str) -> str:
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {spec!r}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{spec!r} is not UTF-8 text (byte {exc.start})") from None
    base = os.path.basename(spec)
    try:
        if base in bundled_data_names():
            return read_data_file(base)
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    raise ParseError(f"no such file or bundled data: {spec!r}")


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}") from None


def _parse_poly(tok: str, what: str) -> list[int]:
    try:
        return [int(c) for c in tok.split(",") if c != ""]
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}; expected comma-separated integers") from None


def resolve_rack(spec: str, *, force_file: bool = False) -> RackTable:
    """A rack table from a builtin name or a table file."""
    if not force_file and ":" in spec:
        head, *rest = spec.split(":")
        try:
            if head == "trivial" and len(rest) == 1:
                return make_trivial(_parse_int(rest[0], "size"))
            if head == "dihedral" and len(rest) == 1:
                return make_dihedral(_parse_int(rest[0], "size"))
            if head == "alexander" and len(rest) == 3:
                return make_alexander(
                    _parse_int(rest[0], "modulus"),
                    _parse_poly(rest[1], "quotient polynomial"),
                    _parse_poly(rest[2], "T polynomial"),
                )
        except DomainError as exc:
            raise ParseError(f"bad {head} spec {spec!r}: {exc}") from None
        if head in _RACK_BUILTINS:
            raise ParseError(f"malformed builtin rack spec {spec!r}")
    return parse_rack_table(_read_spec_text(spec), name=spec)


def resolve_diagram(
    spec: str, *, force_file: bool = False
) -> Diagram | SurfaceDiagramData | BraidWord:
    """A diagram, surface data or braid word from a builtin name or a file.

    Files declare their own kind through the header line: ``pd``, ``braid``
    or ``surface``.  Torus specs, ``braid:`` specs and braid files resolve
    to their braid word, not its closure (``torus:p:q`` is one period word
    to the power |q|, see torus_braid); the closure is built only by the
    callers that need the diagram.  The word is checked to close up to a
    connected diagram here, so a split braid fails before any output.
    """
    if not force_file and ":" in spec:
        head, *rest = spec.split(":")
        if head == "torus" and len(rest) == 2:
            try:
                return torus_braid(
                    _parse_int(rest[0], "torus p"), _parse_int(rest[1], "torus q")
                )
            except DomainError as exc:
                raise ParseError(f"bad torus spec {spec!r}: {exc}") from None
        if head == "braid":
            return parse_inline_braid(":".join(rest))
        if head in _DIAGRAM_BUILTINS:
            raise ParseError(f"malformed builtin diagram spec {spec!r}")
    text = _read_spec_text(spec)
    return parse_diagram_text(text, name=os.path.basename(spec))


def parse_diagram_text(
    text: str, name: str | None = None
) -> Diagram | SurfaceDiagramData | BraidWord:
    stripped = content_lines(text)
    if not stripped:
        raise ParseError("empty diagram file")
    head = stripped[0].split()[0]
    if head in ("pd", "X"):
        return parse_pd(text, name=name)
    if head == "braid":
        toks = " ".join(stripped).split()
        if len(toks) < 2:
            raise ParseError("braid file needs 'braid <strands> <letters...>'")
        strands = _parse_int(toks[1], "strand count")
        return _nonsplit(parse_braid_word(strands, " ".join(toks[2:])))
    if head == "surface":
        return parse_surface(text, name=name)
    raise ParseError(f"unknown diagram header {head!r}; expected pd, braid or surface")


def parse_inline_braid(spec: str) -> BraidWord:
    """An inline braid like '2: 1 1 1' (strands, colon, letters), its closure connected."""
    if ":" not in spec:
        raise ParseError("inline braid must look like '<strands>: <letters>'")
    head, word = spec.split(":", 1)
    strands = _parse_int(head.strip(), "strand count")
    return _nonsplit(parse_braid_word(strands, word))


def _nonsplit(word: BraidWord) -> BraidWord:
    """word if its closure is connected; a split one is a ParseError, as for a PD file."""
    try:
        word.require_nonsplit()
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    return word


def resolve_cochain(spec: str) -> Cochain:
    return parse_cochain(_read_spec_text(spec))
