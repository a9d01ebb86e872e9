"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions of each quandlekit layer at
every module binding that refers to them (``quandlekit.cli.enumerate_colorings``
as well as ``quandlekit.coloring.enumerate_colorings``), so calls from the CLI,
from other layers and from the benchmark all record a span.  Spans are kept in
memory; ``layer_metrics`` turns them into per-layer self times and counts.
The timed (untraced) run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) -> layer.  A name missing from the package is skipped,
# so the benchmark keeps working when a later change deletes a function.
LAYERS = {
    ("cli", "main"): "cli",
    ("specs", "resolve_rack"): "specs",
    ("specs", "resolve_diagram"): "specs",
    ("specs", "resolve_cochain"): "specs",
    ("specs", "parse_inline_braid"): "specs",
    ("algebra", "make_trivial"): "algebra.build",
    ("algebra", "make_dihedral"): "algebra.build",
    ("algebra", "make_alexander"): "algebra.build",
    ("algebra", "make_conjugation"): "algebra.build",
    ("algebra", "parse_rack_table"): "algebra.build",
    ("algebra", "check_axioms"): "algebra.check",
    ("diagram", "torus_diagram"): "diagram.build",
    ("diagram", "braid_closure"): "diagram.build",
    ("diagram", "parse_braid_word"): "diagram.build",
    ("diagram", "parse_pd"): "diagram.build",
    ("diagram", "parse_surface"): "diagram.build",
    ("coloring", "count_colorings"): "coloring.search",
    ("coloring", "enumerate_colorings"): "coloring.search",
    ("coloring", "enumerate_surface_colorings"): "coloring.search",
    ("coloring", "count_surface_colorings"): "coloring.search",
    ("coloring", "enumerate_shadow_colorings"): "coloring.region_fill",
    ("coloring", "lift_coloring"): "coloring.lift",
    ("invariant", "state_sum_2"): "invariant.fold",
    ("invariant", "state_sum_shadow"): "invariant.fold",
    ("invariant", "state_sum_surface"): "invariant.fold",
    ("homology", "chain_basis"): "homology.basis",
    ("homology", "boundary_matrix"): "homology.boundary",
    ("homology", "is_cocycle"): "homology.is_cocycle",
    ("homology", "homology"): "homology.self",
    ("homology", "homology_mod"): "homology.self",
    ("homology", "homology_with_coefficients"): "homology.self",
    ("homology", "uct_mod_dimension"): "homology.self",
    ("homology", "cohomology"): "homology.self",
    ("homology", "coboundary"): "homology.self",
    ("homology", "CochainSpaces.contains_coboundary"): "homology.self",
    ("snf", "smith_normal_form"): "snf.smith",
    ("snf", "kernel_complement"): "snf.smith",
    ("snf", "cokernel_invariants"): "snf.smith",
    ("snf", "solve"): "snf.smith",
    ("snf", "transpose"): "snf.smith",
    ("snf", "mod_rref"): "snf.modp",
    ("snf", "mod_rank"): "snf.modp",
    ("snf", "mod_nullspace"): "snf.modp",
}

# Layer -> its self-time metric.  These self times partition the traced
# time, so their sum is at most the traced wall time of a round.
_TIME_OF_LAYER = {
    "cli": "cli.self_ms", "specs": "specs.resolve_ms",
    "algebra.build": "algebra.build_ms", "algebra.check": "algebra.check_ms",
    "diagram.build": "diagram.build_ms", "coloring.search": "coloring.search_ms",
    "coloring.region_fill": "coloring.region_fill_ms", "coloring.lift": "coloring.lift_ms",
    "invariant.fold": "invariant.fold_ms", "homology.basis": "homology.basis_ms",
    "homology.boundary": "homology.boundary_ms",
    "homology.is_cocycle": "homology.is_cocycle_ms",
    "homology.self": "homology.self_ms", "snf.smith": "snf.smith_ms",
    "snf.modp": "snf.modp_ms",
}
TIME_METRICS = tuple(_TIME_OF_LAYER.values())
COUNT_METRICS = (
    "specs.calls", "coloring.solutions", "coloring.shadows", "coloring.seed_yield",
    "invariant.weights", "homology.basis_dim_max", "snf.calls", "snf.max_cells",
)
OBJECT_METRICS = (
    "diagram.crossings", "diagram.faces", "homology.boundary_nnz",
    "homology.boundary_cells",
)

# Span record fields.
NAME, PARENT, JOB, START, END, COUNT, XSIZE = range(7)


def _size(result) -> int:
    """Solutions, shadows or weights a call returned (0 for a lazy result)."""
    if isinstance(result, int):
        return result
    if hasattr(result, "augmentation"):
        return result.augmentation()
    return len(result) if hasattr(result, "__len__") else 0


class Tracer:
    """Records [name, parent, job, start, end, count, |X|] per wrapped call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = "setup"
        self._stack: list[int] = []
        self.diagrams: list = []
        self.matrices: list = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        keep = {"diagram.build": self.diagrams, "homology.boundary": self.matrices}.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.job, 0.0, 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if keep is not None:
                if self.job != "setup":
                    keep.append(result)
            elif layer.startswith("snf"):
                rows = args[0]
                rec[COUNT] = len(rows) * (len(rows[0]) if rows else 0)
            elif layer.startswith(("coloring", "invariant")) or layer == "homology.basis":
                rec[COUNT] = _size(result)
                if layer == "coloring.region_fill":
                    rec[XSIZE] = args[1].size
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every quandlekit module binding."""
        for modname in {m for m, _ in LAYERS}:
            importlib.import_module(f"quandlekit.{modname}")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "quandlekit" or n.startswith("quandlekit."))]
        for (modname, attr), layer in LAYERS.items():
            owner = sys.modules[f"quandlekit.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self._wrap(f"{modname}.{attr}", layer, vars(cls)[meth]))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(f"{modname}.{attr}", layer, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def object_counts(self) -> dict:
        """Sizes of the diagrams and boundary matrices the jobs built.

        Computed after the round, outside every span, from the kept results.
        """
        out = dict.fromkeys(OBJECT_METRICS, 0)
        for D in {id(D): D for D in self.diagrams}.values():
            if hasattr(D, "n_faces"):
                out["diagram.crossings"] += len(D.crossings)
                out["diagram.faces"] += D.n_faces
        for M in {id(M): M for M in self.matrices}.values():
            out["homology.boundary_cells"] += M.nrows * M.ncols
            if hasattr(M, "rows"):
                out["homology.boundary_nnz"] += sum(1 for row in M.rows for v in row if v)
        return out


def layer_of(name: str) -> str:
    modname, attr = name.split(".", 1)
    return LAYERS[(modname, attr)]


def layer_metrics(spans: list[list], jobs) -> dict:
    """Self times (ms) and span counts per layer over the spans of ``jobs``."""
    selected = [i for i, s in enumerate(spans) if s[JOB] in jobs]
    child_time = [0.0] * len(spans)
    child_sol = [0] * len(spans)
    for i in selected:
        s = spans[i]
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            if layer_of(spans[p][NAME]) == "coloring.region_fill":
                child_sol[p] += s[COUNT]
    out = {m: 0.0 for m in TIME_METRICS + COUNT_METRICS}
    attempts = 0
    for i in selected:
        s = spans[i]
        layer = layer_of(s[NAME])
        out[_TIME_OF_LAYER[layer]] += (s[END] - s[START] - child_time[i]) * 1000
        if layer == "specs":
            out["specs.calls"] += 1
        elif layer == "coloring.search":
            out["coloring.solutions"] += s[COUNT]
        elif layer == "coloring.region_fill":
            out["coloring.shadows"] += s[COUNT]
            attempts += child_sol[i] * s[XSIZE]
        elif layer == "invariant.fold":
            out["invariant.weights"] += s[COUNT]
        elif layer == "homology.basis":
            out["homology.basis_dim_max"] = max(out["homology.basis_dim_max"], s[COUNT])
        elif layer.startswith("snf"):
            out["snf.calls"] += 1
            out["snf.max_cells"] = max(out["snf.max_cells"], s[COUNT])
    if attempts:
        out["coloring.seed_yield"] = out["coloring.shadows"] / attempts
    return out


