"""Per-layer metric names and units, and the ROADMAP re-anchor table.

``reconcile`` prints the ROADMAP's measured counts and times beside this
run's.  Counts are checks; times are informational, since the ROADMAP
measured them on another day's machine.  The ROADMAP's "1,600
evaluations" is the distinct count: the run makes 2,000 kernel calls,
because the budget-800 sample stream replays the budget-200 prefix.
"""

from __future__ import annotations

S, COUNT, RATIO, BYTES = "s", "count", "ratio", "bytes"

LAYER_UNITS = {
    "leibniz.kernel.self_s": S,
    "leibniz.kernel.evals": COUNT,
    "leibniz.kernel.distinct_frac": RATIO,
    "leibniz.kernel.samples": COUNT,
    "leibniz.DiagonalKernel.init_s": S,
    "leibniz.kernel_table_bytes": BYTES,
    "leibniz.paraproduct_split.self_s": S,
    "ncspaces.y_norm.self_s": S,
    "ncspaces.y_norm.proposals": COUNT,
    "ncspaces.y_norm.attainment": RATIO,
    "ncspaces.factorize.self_s": S,
    "ncspaces.schatten_norms.self_s": S,
    "ncspaces.schatten_norms.matrices": COUNT,
    "randomized.decoupling_ratio.self_s": S,
    "randomized.decoupling.samples": COUNT,
    "randomized.sign_patterns": COUNT,
    "modelops.eval_shift_form.self_s": S,
    "modelops.eval_shift_form.coeffs": COUNT,
    "modelops.eval_shift_form_naive.self_s": S,
    "modelops.reduce_shift.self_s": S,
    "modelops.reduce_shift.coeffs_out": COUNT,
    "modelops.carleson.self_s": S,
    "modelops.bmo.self_s": S,
    "modelops.json.self_s": S,
    "modelops.json.bytes": BYTES,
    "modelops.make_random_shift.accept_frac": RATIO,
    "lattice.HaarPyramid.self_s": S,
    "lattice.HaarPyramid.calls": COUNT,
    "lattice.HaarPyramid.cells": COUNT,
    "lattice.projections.self_s": S,
    "lattice.projections.calls": COUNT,
    "sparse.build_sparse_stopping.self_s": S,
    "sparse.is_sparse.self_s": S,
    "sparse.sparse_form.self_s": S,
    "sparse.universal_sparse_bound.self_s": S,
    "sparse.collection_cubes": COUNT,
    "sparse.mask_bytes": BYTES,
    "cli.config_s": S,
    "cli.report_s": S,
    "cli.report_bytes": BYTES,
    "cli.hard_checks": COUNT,
    "lattice.self_s": S,
    "ncspaces.self_s": S,
    "modelops.self_s": S,
    "sparse.self_s": S,
    "randomized.self_s": S,
    "leibniz.self_s": S,
    "cli.self_s": S,
    "trace.overhead_s": S,
}

# The ROADMAP measured at the default seed, so its counts gate there only.
ROADMAP_SEED = 0


def _span_total(res: dict, span: str, experiment: str | None = None) -> float:
    return sum(r["total_s"] for r in res["spans"]
               if r["span"] == span and experiment in (None, r["experiment"]))


def _rows(name: str, res: dict, m: dict) -> list[tuple]:
    """(what, ROADMAP value, measured value, count that must match or None)"""
    v = {k: x["value"] for k, x in m.items()}
    if name == "kernel-const":
        evals = v["leibniz.kernel.evals"]
        distinct = round(evals * v["leibniz.kernel.distinct_frac"])
        return [
            ("kernel-const command", "7.1 s",
             f"{_span_total(res, 'cli.run_kernel_const'):.3f} s", None),
            ("DiagonalKernel evaluations, distinct", "1,600", f"{distinct:,}", (distinct, 1600)),
            ("DiagonalKernel calls (budget 800 replays budget 200)", "2,000",
             f"{evals:,}", (evals, 2000)),
            ("DiagonalKernel calls, time", "5.9 s",
             f"{_span_total(res, 'leibniz.DiagonalKernel.__call__'):.3f} s", None),
            ("np.interp calls inside the kernel", "153k", "not spanned (numpy)", None),
            ("cosine table, computed", "7,681 x 4,000",
             f"{v['leibniz.kernel_table_bytes']:,} bytes", None),
        ]
    if name == "default-suite":
        return [
            ("decouple command", "1.06 s", f"{_span_total(res, 'cli.run_decouple'):.3f} s", None),
            ("y_norm, budget 10^4", "1.85 s (J of size 3)",
             f"{_span_total(res, 'ncspaces.y_norm'):.3f} s (J of size 2)", None),
        ]
    stop = "stopping-d2"
    return [
        ("Carleson check, d=1 L=10", "1.28 s",
         f"{_span_total(res, 'modelops.ParaproductSpec.carleson_constant'):.3f} s", None),
        ("build_sparse_stopping, d=2 L=8", "0.82 s",
         f"{_span_total(res, 'sparse.build_sparse_stopping', stop):.3f} s", None),
        ("is_sparse, d=2 L=8", "0.64 s",
         f"{_span_total(res, 'sparse.is_sparse', stop):.3f} s", None),
        ("stopping cubes, d=2 L=8", "7,010", f"{v['sparse.collection_cubes']:,}",
         (v["sparse.collection_cubes"], 7010)),
        ("stopping masks, d=2 L=8", "443 MB traced",
         f"{v['sparse.mask_bytes'] / 1e6:.1f} MB computed", None),
        ("eval_shift_form", "0.028 s for 10,037 coefficients",
         f"{_span_total(res, 'modelops.eval_shift_form', 'shift-eval-d2'):.3f} s for "
         f"{v['modelops.eval_shift_form.coeffs']:,} coefficients in the pass", None),
    ]


def reconcile(name: str, seed: int, res: dict, metrics: dict) -> tuple[int, int]:
    """Print the table; return (counts checked, counts that differ)."""
    attempted = failed = 0
    print(f"  ROADMAP re-anchor, {name} (times from the last traced pass):")
    for what, then, now, count in _rows(name, res, metrics):
        mark = ""
        if count is not None and seed == ROADMAP_SEED:
            attempted += 1
            if count[0] != count[1]:
                failed += 1
                mark = "  COUNT DIFFERS"
        print(f"    {what:<52} {then:>32} | {now}{mark}")
    return attempted, failed
