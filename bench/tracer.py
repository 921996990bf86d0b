"""Spans at the layer boundaries of fracprec, recorded from outside the package.

A :class:`Tracer` wraps the public functions named in :data:`LAYERS` for the
duration of a ``with tracer.installed():`` block.  A module-level function is
replaced wherever a fracprec module has bound it, so ``tables.generalized_eig``
and ``verify.generalized_eig`` both record ``spectral.generalized_eig``; a
method is replaced on its class.  Spans stay in memory as tuples and are
summarised or written out after the block ends.  Nothing under ``src/`` is
edited: spans inside the program (for example the private per-level
smoother) are not visible here.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


def _dim(args, kwargs, out):
    return {"dim": out.dim}


def _nbytes(mat) -> int:
    if hasattr(mat, "indptr"):  # CSR/CSC
        return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    return mat.nbytes


def _apply_power_bytes(args, kwargs, out):
    # Computed, not measured: the modes are read twice (modes.T @ x, then
    # modes @ y) and the mass matrix is applied twice.
    pair = args[0] if args else kwargs["pair"]
    return {"bytes": 2 * pair.modes.nbytes + 2 * _nbytes(pair.mass)}


def _iterations(args, kwargs, out):
    return {"iterations": out[1].iterations}


VERIFY_CHECKS = (
    "check_jensen",
    "check_loewner_heinz",
    "check_noninheritance",
    "check_projection_identity",
    "check_aux_bounds",
    "check_helmholtz_invariance",
    "check_smoother_bound",
    "check_stable_decomposition",
)

# Layer name -> (fracprec module, function or Class.method, annotation).
LAYERS = {
    "mesh.build_hierarchy": ("mesh", "build_hierarchy", None),
    "mesh.vertex_patches": ("mesh", "vertex_patches", None),
    "fem.assemble_all": ("fem", "assemble_all", None),
    "fem.assemble_prolongation": ("fem", "assemble_prolongation", None),
    "fem.laplacian_dual": ("fem", "laplacian_dual", None),
    "spectral.generalized_eig": ("spectral", "generalized_eig", _dim),
    "spectral.apply_power": ("spectral", "apply_power", _apply_power_bytes),
    "spectral.solve_power": ("spectral", "solve_power", None),
    "spectral.inf_sup_constant": ("spectral", "inf_sup_constant", None),
    "multigrid.precompute_patches": ("multigrid", "precompute_patches", None),
    "multigrid.apply": ("multigrid", "AdditiveMultigrid.apply", None),
    "auxiliary.apply": ("auxiliary", "AuxiliaryPreconditioner.apply", None),
    "auxiliary.make_aux_spectrum_context": ("auxiliary", "make_aux_spectrum_context", None),
    "auxiliary.exact_condition_number": ("auxiliary", "exact_condition_number", None),
    "krylov.pcg": ("krylov", "pcg", _iterations),
    "krylov.lanczos_condition": ("krylov", "lanczos_condition", None),
    "verify.MeshOperators": ("verify", "MeshOperators.__init__", None),
    **{f"verify.{name}": ("verify", name, None) for name in VERIFY_CHECKS},
}

# Layers whose spans contain other traced spans, so self time differs from
# inclusive time.
NESTING = (
    "multigrid.precompute_patches",
    "multigrid.apply",
    "auxiliary.apply",
    "krylov.pcg",
    "verify.MeshOperators",
    *(f"verify.{name}" for name in VERIFY_CHECKS),
)


class Tracer:
    """Records one span per call of the selected layers.

    ``spans`` holds ``(name, start, end, parent, extra)`` tuples in call
    order; ``parent`` is the index of the innermost enclosing span or -1.
    """

    def __init__(self, layers):
        unknown = set(layers) - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layers: {sorted(unknown)}")
        self.layers = tuple(layers)
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                extra = annotate(args, kwargs, out) if annotate and out is not None else None
                spans[index] = (name, start, end, parent, extra)

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the selected layers; restore them on exit."""
        package = importlib.import_module("fracprec")
        modules = [m for key, m in list(sys.modules.items())
                   if m is package or key.startswith("fracprec.")]
        patched = []  # (owner, attribute, original)
        try:
            for name in self.layers:
                module_name, target, annotate = LAYERS[name]
                module = importlib.import_module(f"fracprec.{module_name}")
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    patched.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, annotate))
                    continue
                original = getattr(module, target)
                wrapper = self._wrap(name, original, annotate)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def layer_table(spans) -> dict:
    """Per-layer ``calls``, inclusive seconds ``s`` and ``self_s``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {}
    for (name, start, end, _, _), children in zip(spans, child_time):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - children
    return table


def spans_json(spans, origin: float) -> list:
    """Spans as JSON-ready dicts, times in seconds from ``origin``."""
    return [
        {"name": name, "start": start - origin, "end": end - origin,
         "parent": parent, **(extra or {})}
        for name, start, end, parent, extra in spans
    ]
