"""Command-line front end.

One binary, subcommand style.  Every numeric result is also emitted as a
machine-readable line prefixed ``#data``; stdout is deterministic for fixed
inputs (wall time goes to stderr).  Exit codes: 0 success, 1 domain failure
(axiom violation, non-cocycle) or stdout closed by its reader, 2 input parse
error, 3 resource budget exceeded.  A closed stdout (``quandlekit ... |
head``) ends the command at the next write, with no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterator, Sequence

from .coloring import _histogram, _listing
from .diagram import BraidWord, Diagram, SurfaceDiagramData
from .errors import BudgetError, NonCocycleError, ParseError, QuandleKitError
from .homology import (
    _is_prime,
    cohomology,
    homology,
    homology_mod,
    homology_with_coefficients,
    is_cocycle,
)
from .invariant import state_sum_2, state_sum_shadow, state_sum_surface
from .specs import (
    parse_inline_braid,
    resolve_cochain,
    resolve_diagram,
    resolve_rack,
)


def _echo(args: Sequence[str]) -> None:
    print("# quandlekit " + " ".join(args))


def _digest_inputs(paths: Sequence[str]) -> None:
    import hashlib  # here, not at the top: it loads OpenSSL, which most commands never use

    for path in paths:
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:12]
            print(f"# input {path} sha256:{digest}")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand or only the one named.

    A parser with one subcommand prints that subcommand's help and errors as
    the full one does; its usage line still lists every command.
    """
    parser = argparse.ArgumentParser(
        prog="quandlekit",
        description="Finite quandles, knot colorings, homology and cocycle invariants.",
    )
    metavar = None if command is None else "{" + ",".join(_HANDLERS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "check"):
        p = sub.add_parser("check", help="classify a rack/quandle/kei table")
        p.add_argument("rack", help="builtin name (dihedral:3, ...) or table file")
        p.add_argument("--file", action="store_true", help="force the spec to be a path")

    if command in (None, "color"):
        p = sub.add_parser("color", help="count or list (shadow) colorings")
        p.add_argument("diagram", help="diagram spec: file, torus:p:q or braid:s: w")
        p.add_argument("rack", help="rack spec")
        p.add_argument("--count", action="store_true", help="print the count (default)")
        p.add_argument("--list", action="store_true", help="list every coloring")
        p.add_argument("--shadow", action="store_true", help="shadow colorings instead")
        p.add_argument("--surjective", action="store_true",
                       help="restrict to colorings using every element")
        p.add_argument("--file", action="store_true", help="force specs to be paths")

    if command in (None, "invariant"):
        p = sub.add_parser("invariant", help="cocycle state-sum invariants")
        p.add_argument("diagram", nargs="?", help="diagram or surface spec")
        p.add_argument("rack", help="rack spec")
        p.add_argument("cochain", help="cochain file")
        p.add_argument("--mode", choices=["2", "shadow", "surface"],
                       help="which state sum; inferred from the inputs if omitted")
        p.add_argument("--braid", help="inline braid diagram, e.g. '2: 1 1 1'")
        p.add_argument("--unsafe-no-cocycle-check", action="store_true",
                       help="skip cocycle validation (output is NOT an invariant)")
        p.add_argument("--file", action="store_true")

    if command in (None, "homology"):
        p = sub.add_parser("homology", help="rack/degeneration/quandle homology")
        p.add_argument("rack", help="rack spec")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--theory", choices=["R", "D", "Q"], default="Q")
        p.add_argument("--mod", type=int, help="coefficients Z_d instead of Z")
        p.add_argument("--file", action="store_true")

    if command in (None, "cocycles"):
        p = sub.add_parser("cocycles", help="cocycle/coboundary spaces and verification")
        p.add_argument("rack", help="rack spec")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--mod", type=int, required=True)
        p.add_argument("--verify", help="check one cochain file")
        p.add_argument("--file", action="store_true")
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    X = resolve_rack(args.rack, force_file=args.file)
    chk = X.check
    if chk.rack_class == "not-a-rack":
        witness = ",".join(map(str, chk.witness or ()))
        print(f"not-a-rack (order {X.size}): axiom {chk.failed_axiom} violated at ({witness})")
        print(f"#data class not-a-rack {X.size}")
        return 1
    print(f"{chk.rack_class} (order {X.size}, orbits {len(X.orbits)})")
    print(f"#data class {chk.rack_class} {X.size} {len(X.orbits)}")
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    target = resolve_diagram(args.diagram, force_file=args.file)
    X = resolve_rack(args.rack, force_file=args.file)
    if isinstance(target, SurfaceDiagramData):
        if args.shadow:
            raise ParseError("--shadow needs a classical diagram, not surface data")
        label = "surface-colorings"
    elif args.shadow:
        label = "shadow-colorings"
    else:
        label = "colorings"
        if X.is_rack and not X.is_quandle:
            print("note: rack colorings are framed-diagram data only")
    rows: Iterator[str] = iter(())
    if args.list:
        count, rows = _listing(target, X, shadow=args.shadow, surjective=args.surjective)
    else:
        count = _histogram(target, X, shadow=args.shadow, surjective=args.surjective)[0]
    print(f"{label}: {count}")
    print(f"#data {label} {count}")
    sys.stdout.writelines(f"{i}: {row}\n" for i, row in enumerate(rows))
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    if args.braid is not None:
        if args.diagram is not None:
            raise ParseError("give either a diagram spec or --braid, not both")
        target: Diagram | SurfaceDiagramData | BraidWord = parse_inline_braid(args.braid)
    else:
        if args.diagram is None:
            raise ParseError("an invariant needs a diagram spec or --braid")
        target = resolve_diagram(args.diagram, force_file=args.file)
    X = resolve_rack(args.rack, force_file=args.file)
    phi = resolve_cochain(args.cochain)
    mode = args.mode
    if mode is None:
        if isinstance(target, SurfaceDiagramData):
            mode = "surface"
        else:
            mode = "2" if phi.degree == 2 else "shadow"
    degree = 2 if mode == "2" else 3
    if phi.degree != degree:
        raise ParseError(f"mode {mode} needs a degree-{degree} cochain, "
                         f"but the cochain has degree {phi.degree}")
    if (mode == "surface") != isinstance(target, SurfaceDiagramData):
        need = "surface data" if mode == "surface" else "a classical diagram"
        raise ParseError(f"--mode {mode} needs {need}")
    check = not args.unsafe_no_cocycle_check
    state_sum = {"2": state_sum_2, "shadow": state_sum_shadow, "surface": state_sum_surface}
    try:
        value = state_sum[mode](target, X, phi, check=check)
    except NonCocycleError as exc:  # the library's check=False is a flag here
        raise NonCocycleError(str(exc).replace("check=False", "--unsafe-no-cocycle-check"))
    if not check:
        print("warning: cocycle check skipped; this value is not a knot invariant")
    print(value.render())
    print(f"#data invariant {value.modulus} " + " ".join(map(str, value.coeffs)))
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    X = resolve_rack(args.rack, force_file=args.file)
    n, theory, d = args.degree, args.theory, args.mod
    coefficients = ""
    if d is not None:
        if d < 2:
            raise ParseError("--mod must be at least 2")
        coefficients = f"; Z_{d}"
        if _is_prime(d):
            dim = homology_mod(X, n, theory, d)
            desc = "0" if dim == 0 else (f"Z_{d}" if dim == 1 else f"Z_{d}^{dim}")
            print(f"H_{n}^{theory}({X.label}{coefficients}) = {desc}")
            print(f"#data homology-mod {d} {dim}")
            return 0
    group = homology(X, n, theory) if d is None else homology_with_coefficients(X, n, theory, d)
    print(f"H_{n}^{theory}({X.label}{coefficients}) = {group}")
    print(" ".join(map(str, ["#data homology", group.rank, *group.invariant_factors])))
    return 0


def _cmd_cocycles(args: argparse.Namespace) -> int:
    X = resolve_rack(args.rack, force_file=args.file)
    n, d = args.degree, args.mod
    if d < 2:
        raise ParseError("--mod must be at least 2")
    if args.verify is not None:
        phi = resolve_cochain(args.verify)
        if phi.degree != n:
            raise ParseError(
                f"cochain has degree {phi.degree}, but --degree {n} was requested"
            )
        if phi.modulus != d:
            raise ParseError(
                f"cochain has modulus {phi.modulus}, but --mod {d} was requested"
            )
        chk = is_cocycle(X, phi, "Q")
        if not chk.ok:
            witness = ",".join(map(str, chk.witness or ()))
            print(f"cocycle: no ({chk.reason} at ({witness}))")
            print("#data verify 0 -")
            return 1
        member = cohomology(X, n, "Q", d).contains_coboundary(phi)
        word = "yes" if member else "no"
        print(f"cocycle: yes; coboundary: {word}")
        print(f"#data verify 1 {1 if member else 0}")
        return 0
    spaces = cohomology(X, n, "Q", d)
    if spaces.prime:
        zc, bc = spaces.cocycle_dimension, spaces.coboundary_dimension
        print(f"cocycles: dimension {zc}; coboundaries: dimension {bc} (over Z_{d})")
        print(f"#data cocycles {zc} {bc}")
    else:
        zc, bc = len(spaces.cocycle_vectors), len(spaces.coboundary_vectors)
        print(
            f"cocycles: {zc} generators; coboundaries: {bc} generators "
            f"(composite modulus Z_{d})"
        )
        print(f"#data cocycles {zc} {bc}")
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "color": _cmd_color,
    "invariant": _cmd_invariant,
    "homology": _cmd_homology,
    "cocycles": _cmd_cocycles,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Only the subcommand that will run needs its parser; top-level help and
    # a missing or unknown command get the full one.
    parser = _build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _echo(argv)
        file_args = [
            getattr(args, name, None)
            for name in ("rack", "diagram", "cochain", "verify")
        ]
        _digest_inputs([a for a in file_args if a])
        try:
            code = _HANDLERS[args.command](args)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except BudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 3
        except QuandleKitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Whatever is still buffered
        # goes to the null device, so the flush at exit raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    elapsed = (time.perf_counter() - started) * 1000
    print(f"time: {elapsed:.0f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
