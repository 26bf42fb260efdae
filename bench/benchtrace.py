"""Spans around the calls into each embtens module, recorded from outside.

The tracer replaces the public entry points listed in ``ENTRY_POINTS``
with timing wrappers.  A function is replaced in every ``embtens``
module that bound it by import (``kernel_basis`` lives in ``linalg`` but
is also called through ``cohomology`` and ``algebras``), and methods are
replaced on their class.  ``uninstall`` puts every original back.

Spans stay in memory as ``(layer, name, start, end, parent, job, attrs)``
tuples and are written out once, when the run ends.  Layer counts are
read from the values the entry points return; the time spent computing
them is recorded as a span of the pseudo-layer ``trace`` so it is never
charged to a layer.  Nothing here runs unless a run asks for tracing.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import weakref
from time import perf_counter

# The layers are the modules.  Each entry names the module's public
# entry points the benchmark wraps; ``Class.method`` names a method.
ENTRY_POINTS = {
    "linalg": ("rref", "kernel_basis", "column_space", "Subspace.from_spanning"),
    "algebras": ("check_lie", "check_leibniz", "check_two_step_nilpotent",
                 "check_leibniz_rep", "leibniz_kernel", "quotient_lie",
                 "derivation_algebra", "coherent_derivation_algebra", "direct_sum",
                 "abelian_algebra"),
    "tensors": ("check_coherent_action", "check_embedding_tensor",
                "check_tensor_homomorphism", "graph_subalgebra_check", "descendent",
                "hemisemidirect", "projection_tensor", "adjoint_action"),
    "leibniz_lie": ("check_leibniz_lie", "subadjacent", "subadjacent_representation",
                    "induced_leibniz_lie", "quotient_projection_tensor",
                    "left_multiplication_tensor", "check_leibniz_lie_homomorphism",
                    "make_leibniz_lie"),
    "graded": ("balavoine", "derived_bracket", "derived_bracket_nested",
               "bracket_differential", "twisted_differential", "mc_check_tensor",
               "mc_check_deformation", "mc_check_leibniz", "embed_cochain",
               "restrict_cochain", "tensor_as_multimap", "matrix_as_multimap",
               "GradedContext.from_action", "GradedContext.check"),
    "cohomology": ("cohomology", "class_equals", "induced_representation",
                   "TensorComplex.differential"),
    "deformations": ("check_linear_deformation", "check_equivalence",
                     "check_nijenhuis_element", "check_nijenhuis_operator",
                     "trivial_deformation", "conjugated_tensor", "zero_direction"),
    "workspace": ("load_workspace", "workspace_from_dict", "algebra_from_json",
                  "action_from_json", "tensor_from_json", "leibniz_lie_from_json",
                  "multimap_from_json", "algebra_to_json", "action_to_json",
                  "tensor_to_json", "leibniz_lie_to_json", "matrix_to_json",
                  "multimap_to_json"),
    "cli": ("run",),
}
LAYERS = tuple(ENTRY_POINTS)

# Graded entry points that evaluate a coefficient table entry by entry.
_GRADED_TABLES = {"balavoine", "derived_bracket", "bracket_differential",
                  "embed_cochain", "restrict_cochain"}
_WORKSPACE_WRITERS = {"algebra_to_json", "action_to_json", "tensor_to_json",
                      "leibniz_lie_to_json", "matrix_to_json", "multimap_to_json"}


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit-length among the values."""
    best = 0
    for x in values:
        if x:
            n = max(x.numerator.bit_length(), x.denominator.bit_length())
            if n > best:
                best = n
    return best


def _module(layer: str):
    return importlib.import_module(f"embtens.{layer}")


def cached_checks() -> tuple:
    """The two lru-cached tensor checks; call it while no tracer is installed."""
    tensors = _module("tensors")
    return tensors.check_coherent_action, tensors.check_embedding_tensor


class Tracer:
    """Records spans and layer counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.counters = {"linalg.max_coeff_bits": 0,
                         "cohomology.entries": 0, "cohomology.nnz": 0,
                         "cohomology.assembled": 0,
                         "graded.entries": 0, "graded.nnz": 0,
                         "workspace.bytes_in": 0, "workspace.bytes_out": 0}
        self._stack: list[int] = []
        self._restore: list = []
        self._pairs: set = set()
        self._seen_matrices: dict[int, weakref.ref] = {}
        self._cached = cached_checks()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for layer, names in ENTRY_POINTS.items():
            mod = _module(layer)
            for name in names:
                if "." in name:
                    self._patch_method(layer, mod, name)
                else:
                    self._patch_function(layer, getattr(mod, name), name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch_function(self, layer: str, original, name: str) -> None:
        wrapper = self._wrap(layer, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "embtens" or mod_name.startswith("embtens.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, layer: str, mod, dotted: str) -> None:
        cls_name, attr = dotted.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(layer, dotted, original.__func__))
        else:
            replacement = self._wrap(layer, dotted, original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        count = self._counter(layer, name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((layer, name))  # completed when the call returns
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, name, start, end, parent, self.job, None)
            if count is not None:
                count(idx, args, result)
                spans.append(("trace", "count", end, perf_counter(), parent, self.job, None))
            return result

        return traced

    # -- layer counts read from returned values ------------------------

    def _counter(self, layer: str, name: str):
        if layer == "linalg":
            return self._count_linalg
        if name == "TensorComplex.differential":
            return self._count_differential
        if layer == "graded" and name in _GRADED_TABLES:
            return self._count_graded
        if name == "load_workspace":
            return self._count_bytes_in
        if name in _WORKSPACE_WRITERS:
            return self._count_bytes_out
        return None

    def _set_attrs(self, idx: int, attrs: dict) -> None:
        self.spans[idx] = self.spans[idx][:6] + (attrs,)

    def _count_linalg(self, idx, args, result) -> None:
        if isinstance(result, tuple):  # rref: (matrix, pivots)
            matrix, pivots = result
            bits = coeff_bits(matrix.entries)
            attrs = {"rows": matrix.rows, "cols": matrix.cols, "rank": len(pivots)}
        else:  # a Subspace
            bits = max((coeff_bits(row) for row in result.basis), default=0)
            attrs = {"ambient": result.ambient_dim, "dim": result.dim}
            if self.spans[idx][1] == "kernel_basis":
                m = args[0]
                attrs.update(rows=m.rows, cols=m.cols, rank=m.cols - result.dim)
        attrs["bits"] = bits
        self._set_attrs(idx, attrs)
        c = self.counters
        c["linalg.max_coeff_bits"] = max(c["linalg.max_coeff_bits"], bits)

    def _count_differential(self, idx, args, m) -> None:
        complex_, k = args[0], args[1]
        key = id(m)
        if key in self._seen_matrices:
            return
        self._seen_matrices[key] = weakref.ref(m, lambda _, key=key: self._seen_matrices.pop(key, None))
        nnz = sum(1 for x in m.entries if x)
        c = self.counters
        c["cohomology.assembled"] += 1
        c["cohomology.entries"] += m.rows * m.cols
        c["cohomology.nnz"] += nnz
        self._pairs.add((complex_.tensor, k))
        self._set_attrs(idx, {"degree": k, "rows": m.rows, "cols": m.cols, "nnz": nnz,
                              "bits": coeff_bits(m.entries)})

    def _count_graded(self, idx, args, f) -> None:
        nnz = sum(1 for x in f.coeffs if x)
        self.counters["graded.entries"] += len(f.coeffs)
        self.counters["graded.nnz"] += nnz
        self._set_attrs(idx, {"arity": f.arity, "entries": len(f.coeffs), "nnz": nnz})

    def _count_bytes_in(self, idx, args, result) -> None:
        self.counters["workspace.bytes_in"] += os.path.getsize(args[0])

    def _count_bytes_out(self, idx, args, result) -> None:
        parent = self.spans[idx][4]
        if parent >= 0 and self.spans[parent][0] == "workspace":
            return  # nested writer, counted by its caller
        self.counters["workspace.bytes_out"] += len(json.dumps(result).encode())

    # -- output --------------------------------------------------------

    def dump(self) -> dict:
        """Spans and counters, with the tensor caches' statistics read at this moment."""
        infos = [fn.cache_info() for fn in self._cached]
        counters = dict(self.counters, **{
            "cohomology.distinct": len(self._pairs),
            "tensors.cache_hits": sum(i.hits for i in infos),
            "tensors.cache_misses": sum(i.misses for i in infos),
            "tensors.cache_entries": sum(i.currsize for i in infos)})
        return {"spans": [list(s) for s in self.spans], "counters": counters}


def layer_totals(spans) -> dict:
    """Per-layer call counts and self times, and the time top-level spans cover.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the run is single-threaded.
    """
    child_time = [0.0] * len(spans)
    covered = 0.0
    for layer, name, start, end, parent, job, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            covered += end - start
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, (layer, name, start, end, parent, job, attrs) in enumerate(spans):
        if layer in calls:
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[i]
    return {"calls": calls, "self_s": self_s, "covered_s": covered}
