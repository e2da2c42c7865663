"""Configuration-driven experiment runner.

Every subcommand reads a JSON config (checked field by field against
``FIELDS``, defaults filled in), runs its suite, writes reports under
the output directory and exits nonzero only when a hard identity check
fails.
Statistical band checks never gate: they are recorded with verdict
"OK" or "WARN".  Reports are pure functions of (config, seed): two runs
with the same pair produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import criteria as cr
from . import lattice as lt
from . import leibniz as lb
from . import modelops as mo
from . import ncspaces as nc
from . import randomized as rz


def _finalize(command: str, config: dict, checks: list[dict], out: Path,
              fmt: str, rows: list[dict] | None = None,
              row_fields: list[str] | None = None) -> int:
    report = {"command": command, "config": config, "checks": checks}
    out.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        path = out / f"{command}.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    if rows is not None and fmt in ("csv", "both"):
        path = out / f"{command}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=row_fields)
            writer.writeheader()
            writer.writerows(rows)
    failed = [c for c in checks if c.get("pass") is False]
    for c in checks:
        if c["kind"] == cr.HARD:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['statement']}")
        else:
            print(f"[{c['verdict']:>4}] {c['statement']}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# config fields
# ---------------------------------------------------------------------------

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

# one rule per config field, shared by every command that has the field
FIELDS = {
    **dict.fromkeys(["d", "L", "N", "n", "M", "trials", "blocks", "tuples_per_block",
                     "max_n", "budget", "pairs", "band_limit"], _pos),
    **dict.fromkeys(["k", "j", "l", "max_kappa", "oracle_cap"], _nonneg),
    # p is an L^p exponent; a ratio can lie in [1/band, band] only when band >= 1
    "p": {"type": "number", "exclusiveMinimum": 0},
    "band": {"type": "number", "minimum": 1},
    **dict.fromkeys(["drift_band", "stability_band"], {"type": "number"}),
    # the derivative-of-product ratio needs s above the dimension, 1
    "s": {"type": "number", "exclusiveMinimum": 1},
    "seed": _nonneg,
    "scale": {"type": "number", "minimum": 0, "maximum": 1},
    "eta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "complexity": {"type": "array", "items": _nonneg},
    "cancellative": {"type": "array", "items": _pos},
    # a standard error needs two samples; monotonicity compares budgets
    "samples": {"type": "integer", "minimum": 2},
    "budgets": {"type": "array", "items": _pos, "minItems": 2},
    "resolutions": {"type": "array", "items": _pos, "minItems": 1},
    "shift_file": {"type": "string"},
}
# rules one command adds or narrows: shift-eval may read its operator from a
# file, rad-suite sums over all 2^M sign patterns, the kernel's Holder
# exponent (s-1)/2 must lie in (0, 1], and a drift is never negative, so it
# passes only below a positive drift_band or at most at stability_band >= 0
OVERRIDES = {"shift-eval": {"shift_file": FIELDS["shift_file"]},
             "rad-suite": {"M": {**FIELDS["M"], "maximum": rz.EXHAUSTIVE_LIMIT}},
             "leibniz-study": {"drift_band": {**FIELDS["drift_band"], "exclusiveMinimum": 0}},
             "kernel-const": {"s": {**FIELDS["s"], "maximum": 3},
                              "stability_band": {**FIELDS["stability_band"], "minimum": 0}}}

_TYPES = {"integer": int, "number": (int, float), "string": str, "array": list}
_BOUNDS = {"minimum": (operator.ge, "less than the minimum of"),
           "exclusiveMinimum": (operator.gt, "less than or equal to the minimum of"),
           "maximum": (operator.le, "greater than the maximum of"),
           "exclusiveMaximum": (operator.lt, "greater than or equal to the maximum of")}


def _checked(value, rule: dict, path: str):
    """value as the command reads it, or SystemExit naming its path.  Reads
    the JSON Schema keywords of FIELDS with their JSON Schema meaning (true
    is not a number, 3.0 is the integer 3), and a number must convert to a
    finite float."""
    def fail(message):
        raise SystemExit(f"config error at {path}: {message}")
    kind = rule["type"]
    if kind == "integer" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        fail(f"{value!r} is not of type {kind!r}")
    # JSON parses 1e400 to inf and takes NaN; an integer of 400 digits has no float
    if kind == "number" and not abs(value) <= sys.float_info.max:
        fail(f"{value} is not a finite number")
    for key, (holds, text) in _BOUNDS.items():
        if key in rule and not holds(value, rule[key]):
            fail(f"{value!r} is {text} {rule[key]!r}")
    if kind == "array":
        value = [_checked(x, rule["items"], f"{path}/{i}") for i, x in enumerate(value)]
        if len(value) < rule.get("minItems", 0):
            fail(f"{value!r} is too short")
    return value


def _field_error(config: dict) -> tuple[str, str] | None:
    """(field, message) for a broken rule between fields or between the
    entries of one field, which the per-field rules of FIELDS cannot see.
    The library states each rule where it builds the object; this asks it,
    and names the library's fields dim and depth as the config does."""
    try:
        if "L" in config:  # every lattice is built at d = 1 where the command has no d
            lt._check_size(config.get("d", 1), config["L"])
        if "complexity" in config and not config.get("shift_file"):
            mo.check_shift_shape(config["n"], config["complexity"], config["cancellative"],
                                 config["L"])
        if "j" in config:
            rz.decoupling_levels(config["L"], config["j"], config["k"], config["l"])
    except lt.FieldError as exc:
        return {"dim": "d", "depth": "L"}.get(exc.field, exc.field), exc.reason
    # kernel-const's monotonicity check compares each budget with the one before
    budgets = config.get("budgets", [])
    if any(a > b for a, b in zip(budgets, budgets[1:])):
        return "budgets", "each budget must be at least the one before"


def load_config(command: str, path: str | None, seed_override: int | None) -> dict:
    config = dict(DEFAULTS[command])
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:  # missing file, invalid JSON
            raise SystemExit(f"config error at <root>: {exc}")
        if not isinstance(user, dict):
            raise SystemExit(f"config error at <root>: {user!r} is not of type 'object'")
        rules = {**{f: FIELDS[f] for f in DEFAULTS[command]}, **OVERRIDES.get(command, {})}
        for field, value in user.items():
            if field not in rules:
                raise SystemExit(f"config error at <root>: {field!r} was unexpected")
            config[field] = _checked(value, rules[field], field)
        error = _field_error(config)
        if error:
            raise SystemExit("config error at {}: {}".format(*error))
    if seed_override is not None:
        config["seed"] = _checked(seed_override, FIELDS["seed"], "seed")
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _gaussian(rng, N):
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


def run_haar_suite(config, out, fmt):
    d, L, seed = config["d"], config["L"], config["seed"]
    lat = lt.build_lattice(d, L, seed)
    f = lt.random_grid_function(lat, N=config["N"], seed=seed + 1)
    fq = lt.random_grid_function(lat, seed=seed + 2)
    checks = [cr.haar_orthonormality(lat), cr.martingale_telescoping(f),
              cr.projection_algebra(fq), cr.average_expansion(f),
              cr.serialization_roundtrip(f)]
    return _finalize("haar-suite", config, checks, out, fmt)


def _shift_from_config(config):
    if config.get("shift_file"):
        try:
            spec = mo.shift_from_json(Path(config["shift_file"]).read_text())
        except (OSError, ValueError) as exc:  # missing file, or the loader's field path
            raise SystemExit(f"config error at shift_file: {exc}")
        lat = spec.lattice
    else:
        lat = lt.build_lattice(config["d"], config["L"])
        spec = mo.make_random_shift(lat, config["n"], config["complexity"],
                                    set(config["cancellative"]), config["seed"],
                                    config["scale"], config["blocks"],
                                    config["tuples_per_block"])
    fs = [lt.random_grid_function(lat, N=config["N"], seed=config["seed"] + 10 + i)
          for i in range(spec.n + 1)]
    return spec, fs


def run_shift_eval(config, out, fmt):
    spec, fs = _shift_from_config(config)
    checks = [cr.shift_form_oracle(spec, fs, config["oracle_cap"])]
    return _finalize("shift-eval", config, checks, out, fmt)


def run_reduce_verify(config, out, fmt):
    spec, fs = _shift_from_config(config)
    return _finalize("reduce-verify", config, cr.shift_rewrite(spec, fs), out, fmt)


def run_sparse_verify(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    L, N = config["L"], config["N"]
    lat = lt.build_lattice(1, L)
    meta, cases = [], []
    for trial in range(config["trials"]):
        n = int(rng.integers(1, config["max_n"] + 1))
        kappa = int(rng.integers(0, config["max_kappa"] + 1))
        complexity = [0] * (n + 1)
        slots = list(rng.permutation(n + 1))
        complexity[slots[0]] = kappa
        canc = {slots[0] + 1, slots[1] + 1}
        seed = int(rng.integers(2 ** 32))
        try:
            spec = mo.make_random_shift(lat, n, complexity, canc, seed,
                                        scale=1.0, blocks=4, tuples_per_block=4)
        except lt.FieldError:  # check_shift_shape rejects the shape at this L
            continue
        fs = [lt.random_grid_function(lat, N=N, seed=seed + i) for i in range(n + 1)]
        meta.append({"trial": trial, "n": n, "kappa": kappa, "N": N, "L": L, "seed": seed})
        cases.append((spec, fs))
    checks, reps = cr.sparse_domination(cases, config["eta"])
    rows = [{**m, "lhs": rep["lhs"], "rhs": rep["rhs"], "constant": rep["constant"]}
            for m, rep in zip(meta, reps)]
    fields = ["trial", "n", "kappa", "N", "L", "seed", "lhs", "rhs", "constant"]
    return _finalize("sparse-verify", config, checks, out, fmt, rows, fields)


def run_rad_suite(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    M, N, band = config["M"], config["N"], config["band"]
    moments, contractions, products = [], [], []
    for _ in range(config["trials"]):
        xs = [_gaussian(rng, N) for _ in range(M)]
        moments += [(xs, p, q) for p, q in ((1.0, 2.0), (2.0, 4.0))]
        contractions.append((xs, rng.uniform(-1, 1, size=M), 2.0))
        es = np.array([[_gaussian(rng, N) for _ in range(4)] for _ in range(2)])
        aks = rng.uniform(size=4) * np.exp(2j * np.pi * rng.uniform(size=4))
        products.append((es, aks, [3.0, 3.0, 3.0]))
    # one random function per cube, which stein_check restricts to its cube
    lat = lt.build_lattice(1, 3)
    level, index = np.array([0, 1, 2]), np.array([[0], [0], [3]])
    fqs = np.stack([lt.random_grid_function(lat, seed=int(rng.integers(2 ** 32))).values
                    for _ in level])

    con, con_evals = cr.contraction(contractions)
    prod, prod_evals = cr.product_bound(products)
    mom, mom_evals = cr.moment_band(moments, band)
    stein, stein_eval = cr.conditional_expectation_band(lat, fqs, level, index, band)
    # each trial made two moment cases, a contraction and a product bound
    names = ("moment-comparison", "moment-comparison", "contraction", "randomized-product-bound")
    per_trial = zip(mom_evals[0::2], mom_evals[1::2], con_evals, prod_evals)
    evaluated = [(name, t, e) for t, evals in enumerate(per_trial) for name, e in zip(names, evals)]
    evaluated.append(("conditional-expectation-comparison", 0, stein_eval))
    rows = [{"inequality": name, "instance": t, "ratio": ratio, "stderr": 0.0,
             "verdict": "OK" if ok else "WARN"} for name, t, (ratio, ok) in evaluated]
    fields = ["inequality", "instance", "ratio", "stderr", "verdict"]
    return _finalize("rad-suite", config, [con, prod, mom, stein], out, fmt, rows, fields)


def run_decouple(config, out, fmt):
    lat = lt.build_lattice(config["d"], config["L"])
    j, k, l = config["j"], config["k"], config["l"]
    samp = rz.DecouplingSampler(seed=config["seed"] + 1)
    ens = rz.SignEnsemble(0, samples=config["samples"], seed=config["seed"] + 2)
    fsc = lt.random_grid_function(lat, seed=config["seed"])
    fm = lt.random_grid_function(lat, N=config["N"], seed=config["seed"] + 3)
    checks = [cr.decoupling_anchor(fsc, j, k, l, samp, ens),
              cr.decoupling_band(fm, j, k, l, config["p"], samp, ens, config["band"])]
    return _finalize("decouple", config, checks, out, fmt)


def run_factorize(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    N = config["N"]
    tab = nc.ExponentTable(((3.0, 3.0), (3.0, 3.0), (3.0, 3.0)))
    space = nc.MixedSpace(((0.4, 0.6),), N, tab)
    positive, mixed = [], []
    for _ in range(config["trials"]):
        g = _gaussian(rng, N)
        positive.append((g @ g.conj().T, [3.0, 3.0, 3.0]))
        bs = [_gaussian(rng, N) for _ in range(2)]
        mixed.append((np.stack([b @ b.conj().T for b in bs]), space))
    checks = cr.factorization_roundtrips(positive, mixed)
    checks.append(cr.dual_norm_attainment(_gaussian(rng, N), [1, 2],
                                          nc.holder_tuple([3.0, 3.0, 3.0]),
                                          config["budget"], config["seed"] + 1))
    return _finalize("factorize", config, checks, out, fmt)


def run_leibniz_study(config, out, fmt):
    rng = np.random.default_rng(config["seed"])
    s = config["s"]
    defects, ratios = [], []
    for R in config["resolutions"]:
        ratios.append([])
        for _ in range(config["pairs"]):
            f, g = [lb.random_torus_function(1, R, config["band_limit"], N=config["N"],
                                             seed=int(rng.integers(2 ** 32))) for _ in range(2)]
            defects.append(cr.reconstruction_defect(f, g, s))
            ratios[-1].append(lb.leibniz_ratio(f, g, s, cr.LEIBNIZ_EXPONENTS))
    checks = [cr.paraproduct_reconstruction(defects),
              cr.ratio_refinement(ratios, config["drift_band"])]
    rows = [{"R": R, "max_ratio": max(r), "mean_ratio": float(np.mean(r))}
            for R, r in zip(config["resolutions"], ratios)]
    fields = ["R", "max_ratio", "mean_ratio"]
    return _finalize("leibniz-study", config, checks, out, fmt, rows, fields)


def run_kernel_const(config, out, fmt):
    checks = cr.kernel_constants(config["s"], config["budgets"], config["seed"],
                                 config["stability_band"])
    return _finalize("kernel-const", config, checks, out, fmt)


# "kernel-const" runs run_kernel_const, and so on
COMMANDS = {command: globals()["run_" + command.replace("-", "_")] for command in DEFAULTS}


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
    args = parser.parse_args(argv)
    out = Path(args.out or os.environ.get("DYADLAB_OUT", "reports"))
    config = load_config(args.command, args.config, args.seed)
    return COMMANDS[args.command](config, out, args.format)


if __name__ == "__main__":
    sys.exit(main())
