"""Configuration-driven experiment runner.

Every subcommand reads a JSON config (validated against a schema,
defaults filled in), runs its suite, writes reports under the output
directory and exits nonzero only when a hard identity check fails.
Statistical band checks never gate: they are recorded with verdict
"OK" or "WARN".  Reports are pure functions of (config, seed): two runs
with the same pair produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

import jsonschema

from . import lattice as lt
from . import leibniz as lb
from . import modelops as mo
from . import ncspaces as nc
from . import randomized as rz
from . import sparse as sp

HARD = "hard"
BAND = "band"


def _check(statement: str, kind: str, ok: bool, **data) -> dict:
    rec = {"statement": statement, "kind": kind}
    rec.update(data)
    if kind == HARD:
        rec["pass"] = bool(ok)
    else:
        rec["verdict"] = "OK" if ok else "WARN"
    return rec


def _finalize(command: str, config: dict, checks: list[dict], out: Path,
              fmt: str, rows: list[dict] | None = None,
              row_fields: list[str] | None = None) -> int:
    report = {"command": command, "config": config, "checks": checks}
    out.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        path = out / f"{command}.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if rows is not None and fmt in ("csv", "both"):
        path = out / f"{command}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=row_fields)
            writer.writeheader()
            for r in rows:
                writer.writerow(r)
    failed = [c for c in checks if c.get("pass") is False]
    for c in checks:
        if c["kind"] == HARD:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['statement']}")
        else:
            print(f"[{c['verdict']:>4}] {c['statement']}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

def _schema(props: dict) -> dict:
    return {"type": "object", "properties": props, "additionalProperties": False}


DEFAULTS = {
    "haar-suite": {"d": 1, "L": 4, "seed": 0, "N": 2},
    "shift-eval": {"d": 1, "L": 4, "n": 2, "N": 2, "complexity": [1, 0, 1],
                   "cancellative": [1, 3], "seed": 0, "scale": 1.0,
                   "blocks": 6, "tuples_per_block": 6, "oracle_cap": 100_000},
    "reduce-verify": {"d": 1, "L": 5, "n": 2, "N": 2, "complexity": [2, 0, 1],
                      "cancellative": [2, 3], "seed": 0, "scale": 1.0,
                      "blocks": 5, "tuples_per_block": 5},
    "sparse-verify": {"L": 5, "N": 2, "trials": 100, "seed": 0, "eta": 0.5,
                      "max_n": 3, "max_kappa": 3},
    "rad-suite": {"M": 8, "N": 2, "seed": 0, "trials": 20, "band": 10.0},
    "decouple": {"d": 1, "L": 4, "k": 1, "j": 0, "l": 1, "p": 4.0,
                 "samples": 10_000, "seed": 0, "N": 2, "band": 10.0},
    "factorize": {"N": 3, "seed": 0, "trials": 50, "budget": 10_000},
    "leibniz-study": {"resolutions": [256, 512], "pairs": 20, "band_limit": 32,
                      "s": 1.5, "seed": 0, "N": 2, "drift_band": 0.1},
    "kernel-const": {"s": 1.5, "budgets": [200, 800], "seed": 0,
                     "stability_band": 0.05},
}


_pos = {"type": "integer", "minimum": 1}
_nonneg = {"type": "integer", "minimum": 0}

# one schema per config field, shared by every command that has the field
FIELDS = {
    **dict.fromkeys(["d", "L", "N", "n", "M", "trials", "blocks", "tuples_per_block",
                     "max_n", "budget", "pairs", "band_limit"], _pos),
    **dict.fromkeys(["k", "j", "l", "max_kappa", "oracle_cap"], _nonneg),
    **dict.fromkeys(["p", "s", "band", "drift_band", "stability_band"], {"type": "number"}),
    "seed": {"type": "integer"},
    "scale": {"type": "number", "minimum": 0, "maximum": 1},
    "eta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "complexity": {"type": "array", "items": _nonneg},
    "cancellative": {"type": "array", "items": _pos},
    # a standard error needs two samples; monotonicity compares budgets
    "samples": {"type": "integer", "minimum": 2},
    "budgets": {"type": "array", "items": _pos, "minItems": 2},
    "resolutions": {"type": "array", "items": _pos, "minItems": 1},
    "shift_file": {"type": "string"},
    "clamp": {"type": "boolean"},
}
SCHEMAS = {command: _schema({f: FIELDS[f] for f in defaults})
           for command, defaults in DEFAULTS.items()}
SCHEMAS["shift-eval"]["properties"].update(shift_file=FIELDS["shift_file"],
                                           clamp=FIELDS["clamp"])


def load_config(command: str, path: str | None, seed_override: int | None) -> dict:
    config = dict(DEFAULTS[command])
    if path:
        with open(path) as fh:
            user = json.load(fh)
        try:
            jsonschema.validate(user, SCHEMAS[command])
        except jsonschema.ValidationError as exc:
            loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise SystemExit(f"config error at {loc}: {exc.message}")
        config.update(user)
    if seed_override is not None:
        config["seed"] = seed_override
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_haar_suite(config, out, fmt):
    d, L, seed = config["d"], config["L"], config["seed"]
    lat = lt.build_lattice(d, L, seed)
    f = lt.random_grid_function(lat, N=config["N"], seed=seed + 1)
    checks = []

    haars = [(Q, eta) for Q in lat.cubes() if Q.level < L
             for eta in range(1, 1 << d)]
    vecs = np.stack([lt.haar(lat, h).values.reshape(-1) for h in haars])
    gram = (vecs * lat.cell_volume) @ vecs.conj().T
    err = float(np.abs(gram - np.eye(len(haars))).max())
    checks.append(_check("haar-orthonormality", HARD, err <= 1e-12,
                         max_error=err, tol=1e-12))

    g = lt.GridFunction(lat, np.broadcast_to(lt.integral(f), f.values.shape).copy())
    for Q in lat.cubes():
        if Q.level < L:
            g = g + lt.martingale_diff(f, Q)
    err = float(np.abs(g.values - f.values).max())
    checks.append(_check("martingale-telescoping", HARD, err <= 1e-12,
                         max_error=err, tol=1e-12))

    fq = lt.random_grid_function(lat, seed=seed + 2, scalar=True)
    err = 0.0
    paircount = 0
    for Q in lat.cubes():
        if Q.level >= L:
            continue
        dq = lt.martingale_diff(fq, Q)
        err = max(err, float(np.abs(lt.martingale_diff(dq, Q).values - dq.values).max()))
        err = max(err, float(np.abs(lt.expect(dq, Q).values).max()))
        for R in lat.cubes():
            if R.level < L and R != Q and paircount < 400:
                err = max(err, float(np.abs(lt.martingale_diff(dq, R).values).max()))
                paircount += 1
    checks.append(_check("projection-algebra", HARD, err <= 1e-12,
                         max_error=err, tol=1e-12))

    err = 0.0
    for K in lat.cubes():
        for k in range(0, L - K.level + 1):
            lhs = lt.expect_k(f, K, k)
            rhs = lt.expect(f, K)
            for l in range(k):
                rhs = rhs + lt.martingale_diff_k(f, K, l)
            err = max(err, float(np.abs(lhs.values - rhs.values).max()))
    checks.append(_check("average-expansion-identity", HARD, err <= 1e-12,
                         max_error=err, tol=1e-12))

    rt = lt.grid_function_from_json(lt.grid_function_to_json(f))
    ok = np.array_equal(rt.values, f.values) and rt.lattice == f.lattice
    checks.append(_check("serialization-roundtrip", HARD, ok))
    return _finalize("haar-suite", config, checks, out, fmt)


def _shift_from_config(config, clamp=False):
    if config.get("shift_file"):
        spec = mo.shift_from_json(Path(config["shift_file"]).read_text(),
                                  clamp=clamp)
        lat = spec.lattice
    else:
        lat = lt.build_lattice(config["d"], config["L"])
        spec = mo.make_random_shift(lat, config["n"], config["complexity"],
                                    set(config["cancellative"]), config["seed"],
                                    config["scale"], config["blocks"],
                                    config["tuples_per_block"])
    fs = [lt.random_grid_function(lat, N=config["N"], seed=config["seed"] + 10 + i)
          for i in range(spec.n + 1)]
    return lat, spec, fs


def run_shift_eval(config, out, fmt):
    lat, spec, fs = _shift_from_config(config, clamp=config.get("clamp", False))
    checks = []
    fast = mo.eval_shift_form(spec, fs)
    count = len(spec.coeffs)
    rec = {"value_re": fast.real, "value_im": fast.imag, "coefficients": count}
    if count <= config["oracle_cap"]:
        slow = mo.eval_shift_form_naive(spec, fs)
        err = abs(fast - slow)
        checks.append(_check("shift-form-oracle-agreement", HARD, err <= 1e-12,
                             max_error=err, tol=1e-12, **rec))
    else:
        checks.append(_check("shift-form-evaluated", HARD, True, **rec))
    return _finalize("shift-eval", config, checks, out, fmt)


def run_reduce_verify(config, out, fmt):
    lat, spec, fs = _shift_from_config(config)
    terms = mo.reduce_shift(spec)
    orig = mo.eval_shift_form(spec, fs)
    total = sum(mo.eval_shift_form(t, fs) for t in terms)
    defect = abs(orig - total)
    worst = max((t.check_normalization() for t in terms), default=0.0)
    checks = [
        _check("shift-rewrite-form-preservation", HARD, defect <= 1e-10,
               terms=len(terms), defect=defect, tol=1e-10),
        _check("shift-rewrite-normalization", HARD, worst <= 1.0 + 1e-12,
               worst_ratio=worst),
    ]
    return _finalize("reduce-verify", config, checks, out, fmt)


def run_sparse_verify(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    rows = []
    checks = []
    eta = config["eta"]
    all_sparse = True
    finite = True
    by_kappa: dict[tuple[int, int], float] = {}
    for trial in range(config["trials"]):
        n = int(rng.integers(1, config["max_n"] + 1))
        kappa = int(rng.integers(0, config["max_kappa"] + 1))
        L = config["L"]
        lat = lt.build_lattice(1, L)
        complexity = [0] * (n + 1)
        slots = list(rng.permutation(n + 1))
        complexity[slots[0]] = kappa
        canc = {slots[0] + 1, slots[1] + 1}
        seed = int(rng.integers(2 ** 32))
        try:
            spec = mo.make_random_shift(lat, n, complexity, canc, seed,
                                        scale=1.0, blocks=4, tuples_per_block=4)
        except ValueError:
            continue
        fs = [lt.random_grid_function(lat, N=config["N"], seed=seed + i)
              for i in range(n + 1)]
        rep = sp.verify_sparse_domination(spec, fs, eta=eta)
        norms = [sp.pointwise_schatten(f, float(n + 1)) for f in fs]
        col = sp.build_sparse_stopping(norms, rep["theta"])
        all_sparse &= sp.is_sparse(col, eta)
        finite &= math.isfinite(rep["constant"])
        key = (n, kappa)
        by_kappa[key] = max(by_kappa.get(key, 0.0), rep["constant"])
        rows.append({"trial": trial, "n": n, "kappa": kappa, "N": config["N"],
                     "L": L, "seed": seed, "lhs": rep["lhs"], "rhs": rep["rhs"],
                     "constant": rep["constant"]})
    checks.append(_check("stopping-collection-sparsity", HARD, all_sparse, eta=eta))
    checks.append(_check("sparse-domination-finite-constants", HARD, finite,
                         trials=len(rows)))
    fit_ok = True
    fits = {}
    for n in sorted({k[0] for k in by_kappa}):
        pts = [(k[1], v) for k, v in by_kappa.items() if k[0] == n and v > 0]
        if len(pts) >= 2:
            xs = np.log([1.0 + k for k, _ in pts])
            ys = np.log([v for _, v in pts])
            beta = float(np.polyfit(xs, ys, 1)[0])
            fits[str(n)] = beta
            fit_ok &= beta <= n + 1
    checks.append(_check("constant-growth-fit", BAND, fit_ok, fits=fits))
    fields = ["trial", "n", "kappa", "N", "L", "seed", "lhs", "rhs", "constant"]
    return _finalize("sparse-verify", config, checks, out, fmt, rows, fields)


def run_rad_suite(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    M, N, band = config["M"], config["N"], config["band"]
    ens = rz.SignEnsemble(M)
    rows = []
    checks = []

    def mats(count):
        return [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
                for _ in range(count)]

    kk_ok, con_ok, stein_ok, rsc_ok = True, True, True, True
    for t in range(config["trials"]):
        xs = mats(M)
        for (p, q) in ((1.0, 2.0), (2.0, 4.0)):
            r = rz.kk_ratio(xs, rz.schatten(2), p, q, ens)
            ok = 1.0 / band <= r <= band
            kk_ok &= ok
            rows.append({"inequality": "moment-comparison", "instance": t,
                         "ratio": r, "stderr": 0.0,
                         "verdict": "OK" if ok else "WARN"})
        coeffs = rng.uniform(-1, 1, size=M)
        lhs, rhs = rz.contraction_check(xs, coeffs, rz.schatten(2), 2.0, ens)
        ok = lhs <= rhs * (1 + 1e-10)
        con_ok &= ok
        rows.append({"inequality": "contraction", "instance": t,
                     "ratio": 0.0 if rhs == 0 else lhs / rhs, "stderr": 0.0,
                     "verdict": "OK" if ok else "WARN"})
        es = np.stack([np.stack(mats(4)) for _ in range(2)])
        aks = rng.uniform(size=4) * np.exp(2j * np.pi * rng.uniform(size=4))
        lhs, rhs = rz.rscalar_check(es, aks, [3.0, 3.0, 3.0], rz.SignEnsemble(4))
        ok = lhs <= rhs * (1 + 1e-9)
        rsc_ok &= ok
        rows.append({"inequality": "randomized-product-bound", "instance": t,
                     "ratio": 0.0 if rhs == 0 else lhs / rhs, "stderr": 0.0,
                     "verdict": "OK" if ok else "WARN"})
    lat = lt.build_lattice(1, 3)
    fqs = {}
    for lv, idx in ((0, (0,)), (1, (0,)), (2, (3,))):
        Q = lt.Cube(lv, idx)
        g = lt.random_grid_function(lat, seed=int(rng.integers(2 ** 32)), scalar=True)
        mask = np.zeros(lat.num_cells)
        w = 1 << (lat.depth - lv)
        mask[idx[0] * w:(idx[0] + 1) * w] = 1.0
        fqs[Q] = lt.GridFunction(lat, g.values * mask)
    lhs, rhs = rz.stein_check(fqs, 3.0, rz.abs_norm, rz.SignEnsemble(len(fqs)))
    ratio = lhs / rhs if rhs else 0.0
    stein_ok = ratio <= band
    rows.append({"inequality": "conditional-expectation-comparison",
                 "instance": 0, "ratio": ratio, "stderr": 0.0,
                 "verdict": "OK" if stein_ok else "WARN"})

    checks.append(_check("contraction-exact", HARD, con_ok))
    checks.append(_check("randomized-product-bound-exact", HARD, rsc_ok))
    checks.append(_check("moment-comparison-band", BAND, kk_ok, band=band))
    checks.append(_check("conditional-expectation-band", BAND, stein_ok, band=band))
    fields = ["inequality", "instance", "ratio", "stderr", "verdict"]
    return _finalize("rad-suite", config, checks, out, fmt, rows, fields)


def run_decouple(config, out, fmt):
    lat = lt.build_lattice(config["d"], config["L"])
    checks = []
    fsc = lt.random_grid_function(lat, seed=config["seed"], scalar=True)
    samp = rz.DecouplingSampler(lat, seed=config["seed"] + 1)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=config["samples"],
                          seed=config["seed"] + 2)
    ratio, se = rz.decoupling_ratio(fsc, config["j"], config["k"],
                                    min(config["l"], config["k"]), 2.0,
                                    rz.abs_norm, samp, ens)
    ok = abs(ratio - 1.0) <= 3.0 * se
    checks.append(_check("decoupling-scalar-p2-anchor", HARD, ok,
                         ratio=ratio, stderr=se))
    fm = lt.random_grid_function(lat, N=config["N"], seed=config["seed"] + 3)
    ratio_m, se_m = rz.decoupling_ratio(fm, config["j"], config["k"],
                                        min(config["l"], config["k"]),
                                        config["p"], rz.schatten(2), samp, ens)
    band = config["band"]
    checks.append(_check("decoupling-matrix-band", BAND,
                         1.0 / band <= ratio_m <= band,
                         ratio=ratio_m, stderr=se_m, band=band))
    return _finalize("decouple", config, checks, out, fmt)


def run_factorize(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    N = config["N"]
    checks = []
    worst_flat = 0.0
    worst_mixed = 0.0
    for _ in range(config["trials"]):
        g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        a = g @ g.conj().T
        a = a / nc.schatten_norm(a, 1.0)
        factors = nc.factorize_positive(a, 1.0, [3.0, 3.0, 3.0])
        prod = factors[0] @ factors[1] @ factors[2]
        worst_flat = max(worst_flat, float(np.abs(prod - a).max()))
        for fac, p in zip(factors, (3.0, 3.0, 3.0)):
            worst_flat = max(worst_flat, abs(nc.schatten_norm(fac, p) - 1.0))
        tab = nc.ExponentTable(((3.0, 3.0), (3.0, 3.0), (3.0, 3.0)))
        space = nc.MixedSpace(((0.4, 0.6),), N, tab)
        raw = np.stack([(lambda b: b @ b.conj().T)(
            rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
            for _ in range(2)])
        qcol = tab.q_col([1, 2])
        f = raw / nc.nested_norm(raw, space, 1, column=qcol)
        facs = nc.factorize_mixed(f, [1, 2], space)
        prod = np.einsum("tij,tjk->tik", facs[0], facs[1])
        worst_mixed = max(worst_mixed, float(np.abs(prod - f).max()))
        for fac, j in zip(facs, (1, 2)):
            worst_mixed = max(worst_mixed, abs(nc.nested_norm(fac, space, j) - 1.0))
    checks.append(_check("positive-factorization-roundtrip", HARD,
                         worst_flat <= 1e-9, max_error=worst_flat, tol=1e-9))
    checks.append(_check("mixed-factorization-roundtrip", HARD,
                         worst_mixed <= 1e-8, max_error=worst_mixed, tol=1e-8))
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    tab0 = nc.holder_tuple([3.0, 3.0, 3.0])
    res = nc.y_norm(g, [1, 2], tab0, budget=config["budget"],
                    seed=config["seed"] + 1)
    ok = res.empirical >= 0.95 * res.analytic and \
        res.empirical <= res.analytic * (1 + 1e-9)
    checks.append(_check("dual-norm-search-attainment", HARD, ok,
                         analytic=res.analytic, empirical=res.empirical))
    return _finalize("factorize", config, checks, out, fmt)


def run_leibniz_study(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    s = config["s"]
    exps = (4.0, 4.0, 2.0, 4.0, 4.0)
    rows = []
    checks = []
    max_defect = 0.0
    maxima = []
    for R in config["resolutions"]:
        ratios = []
        for i in range(config["pairs"]):
            seed_f = int(rng.integers(2 ** 32))
            seed_g = int(rng.integers(2 ** 32))
            f = lb.random_torus_function(1, R, config["band_limit"], N=config["N"],
                                         seed=seed_f)
            g = lb.random_torus_function(1, R, config["band_limit"], N=config["N"],
                                         seed=seed_g)
            parts = lb.paraproduct_split(f, g, s)
            full = lb.fractional_derivative(lb.product(f, g), s)
            scale = float(np.abs(full.values).max())
            if scale > 0:
                defect = float(np.abs(parts.total().values - full.values).max()) / scale
                max_defect = max(max_defect, defect)
            ratios.append(lb.leibniz_ratio(f, g, s, exps))
        rows.append({"R": R, "max_ratio": max(ratios),
                     "mean_ratio": float(np.mean(ratios))})
        maxima.append(max(ratios))
    checks.append(_check("paraproduct-reconstruction", HARD, max_defect < 1e-6,
                         max_defect=max_defect, tol=1e-6))
    drift = abs(maxima[-1] - maxima[0]) / maxima[0] if maxima[0] else 0.0
    checks.append(_check("ratio-refinement-stability", BAND,
                         drift < config["drift_band"], drift=drift,
                         band=config["drift_band"]))
    fields = ["R", "max_ratio", "mean_ratio"]
    return _finalize("leibniz-study", config, checks, out, fmt, rows, fields)


def run_kernel_const(config, out, fmt):
    s = config["s"]
    kern = lb.DiagonalKernel(s)
    alpha = (s - 1.0) / 2.0
    results = []
    for budget in config["budgets"]:
        ks = lb.KernelSample(kernel=kern, alpha=alpha, budget=budget,
                             seed=config["seed"])
        size_c, holder_c = lb.cz_kernel_constant(ks)
        results.append({"budget": budget, "size": size_c, "holder": holder_c})
    mono = all(results[i]["size"] <= results[i + 1]["size"] + 1e-15 and
               results[i]["holder"] <= results[i + 1]["holder"] + 1e-15
               for i in range(len(results) - 1))
    checks = [_check("kernel-constant-monotone-in-budget", HARD, mono,
                     results=results, domain="periodic-surrogate")]
    if len(results) >= 2 and results[0]["size"] > 0:
        drift = results[-1]["size"] / results[0]["size"] - 1.0
        checks.append(_check("kernel-constant-stability", BAND,
                             drift <= config["stability_band"], drift=drift,
                             band=config["stability_band"],
                             domain="periodic-surrogate"))
    return _finalize("kernel-const", config, checks, out, fmt)


COMMANDS = {
    "haar-suite": run_haar_suite,
    "shift-eval": run_shift_eval,
    "reduce-verify": run_reduce_verify,
    "sparse-verify": run_sparse_verify,
    "rad-suite": run_rad_suite,
    "decouple": run_decouple,
    "factorize": run_factorize,
    "leibniz-study": run_leibniz_study,
    "kernel-const": run_kernel_const,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="finite-lattice verification suites for dyadic model operators")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $DYADLAB_OUT or ./reports)")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")
    parser.add_argument("--clamp", action="store_true",
                        help="project out-of-bound coefficients of a loaded "
                             "operator file onto the normalization bound")
    args = parser.parse_args(argv)
    out = Path(args.out or os.environ.get("DYADLAB_OUT", "reports"))
    config = load_config(args.command, args.config, args.seed)
    if args.clamp and args.command == "shift-eval":
        config["clamp"] = True
    return COMMANDS[args.command](config, out, args.format)


if __name__ == "__main__":
    sys.exit(main())
