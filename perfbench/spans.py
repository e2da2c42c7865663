"""Spans and counters around the public callables of dyadlab's modules.

A ``Recorder`` rebinds callables in every dyadlab namespace that binds
them (``modelops`` binds ``HaarPyramid``, ``randomized`` binds
``schatten_norms``, ...) and restores them on ``uninstall``.

* Timed mode (the traced run) spans every public module-level function,
  the class methods in ``CLASS_SPANS`` and the private boundaries in
  ``EXTRA_SPANS``.  A span is (name, experiment, parent, start, end);
  spans stay in memory and are summarised after the pass.
* Count mode (the untraced run) wraps only the callables that have a
  counter hook, with no clock reads, so the work-count guard sees what a
  pass did at a cost of one extra Python call per guarded call.

Value types (Cube, Lattice, GridFunction, TorusFunction, ...) and
per-element accessors such as ``HaarPyramid.coef`` are not spanned:
each call is O(1) and a span would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import types
from collections import defaultdict

MODULES = ("lattice", "ncspaces", "modelops", "sparse", "randomized",
           "leibniz", "cli")

CLASS_SPANS = {
    "lattice.HaarPyramid": ("__init__",),
    "modelops.ShiftSpec": ("__init__",),
    "modelops.ParaproductSpec": ("__init__", "carleson_constant"),
    "modelops.ReducedShiftTerm": ("check_normalization",),
    "randomized.SignEnsemble": ("patterns",),
    "randomized.DecouplingSampler": ("draws",),
    "leibniz.DiagonalKernel": ("__init__", "__call__"),
    "leibniz.ParaproductParts": ("total",),
}
# private callable -> span name
EXTRA_SPANS = {"cli._finalize": "cli.report"}

PROJECTIONS = ("lattice.average", "lattice.expect", "lattice.martingale_diff",
               "lattice.expect_k", "lattice.martingale_diff_k")
JSON_IO = ("modelops.shift_to_json", "modelops.shift_from_json",
           "modelops.paraproduct_to_json", "modelops.paraproduct_from_json")

# metric -> spans whose self time it sums
SELF_TIME = {
    "leibniz.kernel.self_s": ("leibniz.DiagonalKernel.__call__",),
    "leibniz.paraproduct_split.self_s": ("leibniz.paraproduct_split",),
    "ncspaces.y_norm.self_s": ("ncspaces.y_norm",),
    "ncspaces.factorize.self_s": ("ncspaces.factorize_positive",
                                  "ncspaces.factorize_mixed"),
    "ncspaces.schatten_norms.self_s": ("ncspaces.schatten_norms",),
    "randomized.decoupling_ratio.self_s": ("randomized.decoupling_ratio",),
    "modelops.eval_shift_form.self_s": ("modelops.eval_shift_form",),
    "modelops.eval_shift_form_naive.self_s": ("modelops.eval_shift_form_naive",),
    "modelops.reduce_shift.self_s": ("modelops.reduce_shift",),
    "modelops.carleson.self_s": ("modelops.ParaproductSpec.carleson_constant",),
    "modelops.bmo.self_s": ("modelops.bmo_norm",),
    "modelops.json.self_s": JSON_IO,
    "lattice.HaarPyramid.self_s": ("lattice.HaarPyramid.__init__",),
    "lattice.projections.self_s": PROJECTIONS,
    "sparse.build_sparse_stopping.self_s": ("sparse.build_sparse_stopping",),
    "sparse.is_sparse.self_s": ("sparse.is_sparse",),
    "sparse.sparse_form.self_s": ("sparse.sparse_form",),
    "sparse.universal_sparse_bound.self_s": ("sparse.universal_sparse_bound",),
}
# metric -> spans whose whole duration it sums
DURATION = {
    "leibniz.DiagonalKernel.init_s": ("leibniz.DiagonalKernel.__init__",),
    "cli.config_s": ("cli.load_config",),
    "cli.report_s": ("cli.report",),
}
# metric -> spans whose calls it counts
CALLS = {
    "lattice.HaarPyramid.calls": ("lattice.HaarPyramid.__init__",),
    "lattice.projections.calls": PROJECTIONS,
}


# ---------------------------------------------------------------------------
# counter hooks: (counters, callable, args, kwargs, result, ok) at a span's exit
# ---------------------------------------------------------------------------

def _kernel_init(c, fn, args, kwargs, result, ok):
    if ok:
        # the cosine table is len(xs) x quad_points float64 (computed bytes)
        table = len(args[0].xs) * _arguments(fn, args, kwargs)["quad_points"] * 8
        c["leibniz.kernel_table_bytes"] = max(c["leibniz.kernel_table_bytes"], table)


def _kernel_call(c, fn, args, kwargs, result, ok):
    c["leibniz.kernel.evals"] += 1
    if c.distinct is not None:
        c.distinct.add(tuple(float(a) for a in args[1:]))


def _kernel_samples(c, fn, args, kwargs, result, ok):
    c["leibniz.kernel.samples"] += args[0].budget


def _y_norm(c, fn, args, kwargs, result, ok):
    c["ncspaces.y_norm.proposals"] += _arguments(fn, args, kwargs)["budget"]
    if ok and result.analytic > 0:
        ratio = result.empirical / result.analytic
        old = c.get("ncspaces.y_norm.attainment")
        c["ncspaces.y_norm.attainment"] = ratio if old is None else min(old, ratio)


def _schatten_norms(c, fn, args, kwargs, result, ok):
    shape = getattr(args[0], "shape", ())
    c["ncspaces.schatten_norms.matrices"] += math.prod(shape[:-2])


def _decoupling(c, fn, args, kwargs, result, ok):
    c["randomized.decoupling.samples"] += _arguments(fn, args, kwargs)["ens"].samples


def _patterns(c, fn, args, kwargs, result, ok):
    if ok:
        c["randomized.sign_patterns"] += result.shape[0]


def _eval_shift(c, fn, args, kwargs, result, ok):
    c["modelops.eval_shift_form.coeffs"] += len(args[0].coeffs)


def _reduce(c, fn, args, kwargs, result, ok):
    if ok:
        c["modelops.reduce_shift.coeffs_out"] += sum(len(t.coeffs) for t in result)


def _json_out(c, fn, args, kwargs, result, ok):
    if ok:
        c["modelops.json.bytes"] += len(result)


def _json_in(c, fn, args, kwargs, result, ok):
    c["modelops.json.bytes"] += len(args[0])


def _make_shift(c, fn, args, kwargs, result, ok):
    c["modelops.make_random_shift.attempts"] += 1
    c["modelops.make_random_shift.accepted"] += int(ok)


def _pyramid(c, fn, args, kwargs, result, ok):
    c["lattice.HaarPyramid.cells"] += args[1].lattice.num_cells


def _stopping(c, fn, args, kwargs, result, ok):
    if ok:
        # one boolean mask over the full grid per cube (computed bytes)
        c["sparse.collection_cubes"] = max(c["sparse.collection_cubes"], len(result))
        c["sparse.mask_bytes"] = max(c["sparse.mask_bytes"],
                                     len(result) * result.lattice.num_cells)


def _report(c, fn, args, kwargs, result, ok):
    command, _config, checks, out, fmt = args[:5]
    c["cli.hard_checks"] += sum(1 for r in checks if r["kind"] == "hard")
    for suffix in (".json", ".csv"):
        path = out / f"{command}{suffix}"
        if path.exists():
            c["cli.report_bytes"] += path.stat().st_size


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


HOOKS = {
    "leibniz.DiagonalKernel.__init__": _kernel_init,
    "leibniz.DiagonalKernel.__call__": _kernel_call,
    "leibniz.cz_kernel_constant": _kernel_samples,
    "ncspaces.y_norm": _y_norm,
    "ncspaces.schatten_norms": _schatten_norms,
    "randomized.decoupling_ratio": _decoupling,
    "randomized.SignEnsemble.patterns": _patterns,
    "modelops.eval_shift_form": _eval_shift,
    "modelops.reduce_shift": _reduce,
    "modelops.shift_to_json": _json_out,
    "modelops.paraproduct_to_json": _json_out,
    "modelops.shift_from_json": _json_in,
    "modelops.paraproduct_from_json": _json_in,
    "modelops.make_random_shift": _make_shift,
    "lattice.HaarPyramid.__init__": _pyramid,
    "sparse.build_sparse_stopping": _stopping,
    "cli.report": _report,
}
# hooks that the untraced run keeps for the work-count guard
GUARD_HOOKS = ("leibniz.DiagonalKernel.__call__", "leibniz.cz_kernel_constant",
               "ncspaces.y_norm", "randomized.decoupling_ratio",
               "modelops.eval_shift_form", "modelops.reduce_shift",
               "sparse.build_sparse_stopping")
# the counters those hooks fill that measure work done
GUARD_COUNTS = ("leibniz.kernel.evals", "leibniz.kernel.samples",
                "ncspaces.y_norm.proposals", "randomized.decoupling.samples",
                "modelops.eval_shift_form.coeffs", "modelops.reduce_shift.coeffs_out",
                "sparse.collection_cubes")


class Counters(defaultdict):
    """Counter values by metric name; ``distinct`` holds the kernel's
    argument triples in timed mode."""

    def __init__(self, distinct: bool):
        super().__init__(int)
        self.distinct = set() if distinct else None


class Recorder:
    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list = []
        self.counters = Counters(distinct=timed)
        self.experiment = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        counters = self.counters
        if not self.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                ok, result = False, None
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    hook(counters, fn, args, kwargs, result, ok)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, self.experiment, parent, start, end)
                if hook is not None:
                    hook(counters, fn, args, kwargs, result, ok)
        return spanned

    def _wanted(self, name: str) -> bool:
        return self.timed or name in GUARD_HOOKS

    def install(self) -> None:
        root = importlib.import_module("dyadlab")
        mods = {m: importlib.import_module(f"dyadlab.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for ns in (root, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("dyadlab."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                if not self._wanted(name):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._rebind(ns, attr, wrappers[id(obj)])
        for key, methods in CLASS_SPANS.items():
            mod, cls_name = key.split(".")
            cls = getattr(mods[mod], cls_name)
            for meth in methods:
                name = f"{key}.{meth}"
                if self._wanted(name):
                    self._rebind(cls, meth, self._wrap(name, cls.__dict__[meth]))
        for key, name in EXTRA_SPANS.items():
            mod, attr = key.split(".")
            if self._wanted(name):
                self._rebind(mods[mod], attr, self._wrap(name, getattr(mods[mod], attr)))

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summaries ----------------------------------------------------------

    def by_span(self) -> dict[tuple, dict]:
        """Calls, total and self seconds per (experiment, span name)."""
        child = [0.0] * len(self.spans)
        for name, exp, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple, dict] = {}
        for i, (name, exp, parent, start, end) in enumerate(self.spans):
            row = out.setdefault((exp, name), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass; a counter that no
        call touched is absent and reads 0."""
        rows: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        module_self = {m: 0.0 for m in MODULES}
        for (_exp, name), row in self.by_span().items():
            for k, v in row.items():
                rows[name][k] += v
            module_self[name.split(".", 1)[0]] += row["self_s"]
        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum((rows[n]["self_s"] for n in names if n in rows), 0.0)
        for metric, names in DURATION.items():
            out[metric] = sum((rows[n]["total_s"] for n in names if n in rows), 0.0)
        for metric, names in CALLS.items():
            out[metric] = sum(rows[n]["calls"] for n in names if n in rows)
        for m, v in module_self.items():
            out[f"{m}.self_s"] = v
        c = self.counters
        out.update(c)
        evals = c["leibniz.kernel.evals"]
        out["leibniz.kernel.distinct_frac"] = len(c.distinct) / evals if evals else 0.0
        attempts = c["modelops.make_random_shift.attempts"]
        out["modelops.make_random_shift.accept_frac"] = (
            c["modelops.make_random_shift.accepted"] / attempts if attempts else 0.0)
        return out
