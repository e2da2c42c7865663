"""The benchmark's workloads: inputs made from a seed, then experiments.

Every workload writes its inputs (config files, raw arrays) in
``setup``; a pass then runs its experiments in order.  CLI experiments
go through ``cli.load_config`` so schema validation is part of the
work, and each writes ``<command>.json`` (and ``.csv``) into the pass
directory.  Experiments that call the library directly write a report
in the same format, with their invariants as hard check records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dyadlab import cli, lattice, modelops, sparse

# The eight default CLI configs, spelled out so that the work a pass does
# is fixed here even if the CLI's defaults change.  Seeds come from --seed.
DEFAULT_SUITE = {
    "haar-suite": {"d": 1, "L": 4, "N": 2},
    "shift-eval": {"d": 1, "L": 4, "n": 2, "N": 2, "complexity": [1, 0, 1],
                   "cancellative": [1, 3], "scale": 1.0, "blocks": 6,
                   "tuples_per_block": 6, "oracle_cap": 100_000},
    "reduce-verify": {"d": 1, "L": 5, "n": 2, "N": 2, "complexity": [2, 0, 1],
                      "cancellative": [2, 3], "scale": 1.0, "blocks": 5,
                      "tuples_per_block": 5},
    "sparse-verify": {"L": 5, "N": 2, "trials": 100, "eta": 0.5, "max_n": 3,
                      "max_kappa": 3},
    "rad-suite": {"M": 8, "N": 2, "trials": 20, "band": 10.0},
    "decouple": {"d": 1, "L": 4, "k": 1, "j": 0, "l": 1, "p": 4.0,
                 "samples": 10_000, "N": 2, "band": 10.0},
    "factorize": {"N": 3, "trials": 50, "budget": 10_000},
    "leibniz-study": {"resolutions": [256, 512], "pairs": 20, "band_limit": 32,
                      "s": 1.5, "N": 2, "drift_band": 0.1},
}
KERNEL_CONST = {"s": 1.5, "budgets": [200, 800], "stability_band": 0.05}

# dyadic-d2 sizes.  64 blocks of 32 tuples give about 8.2k coefficients
# for the [1,0,1] shift and about 15k for the [2,0,1] one at seed 0.
SHIFT_D2 = {"d": 2, "L": 7, "n": 2, "complexity": [1, 0, 1],
            "cancellative": [1, 3], "blocks": 64, "tuples_per_block": 32}
REDUCE_D2 = {"d": 2, "L": 7, "n": 2, "N": 2, "complexity": [2, 0, 1],
             "cancellative": [2, 3], "scale": 1.0, "blocks": 64,
             "tuples_per_block": 32}
STOP_L = 8          # heavy-tailed stopping collection: 7,010 cubes at seed 0
UNIVERSAL_L = 7
HEAVY_INPUTS = 3    # functions per sparse form; theta = 2 * HEAVY_INPUTS
PARAPRODUCT_L = 10
DUALITY_TOL = 1e-10

# Work a pass must do whatever the seed (see checks.check_work).
# Decoupling runs two ratios of 10,000 samples each.
WORK = {
    "kernel-const": {"leibniz.kernel.samples": 1000, "leibniz.kernel.evals": 2000},
    "default-suite": {"cli.sparse_verify_rows": 100,
                      "randomized.decoupling.samples": 20_000,
                      "ncspaces.y_norm.proposals": 10_000},
    "dyadic-d2": {},
}


@dataclass
class Inputs:
    seed: int
    out: Path
    configs: dict[str, Path] = field(default_factory=dict)
    arrays: dict[str, list[np.ndarray]] = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    id: str
    run: Callable[[Inputs], None]


def _write_config(inputs: Inputs, name: str, config: dict) -> None:
    path = inputs.out / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, sort_keys=True))
    inputs.configs[name] = path


def _cli(command: str, config_name: str | None = None) -> Experiment:
    key = config_name or command
    fn = "run_" + command.replace("-", "_")

    def run(inputs: Inputs) -> None:
        config = cli.load_config(command, str(inputs.configs[key]), inputs.seed)
        # looked up on the module at call time, so a traced pass sees spans
        getattr(cli, fn)(config, inputs.out / "reports", "both")

    return Experiment(key, run)


def _check(statement: str, ok: bool, **data) -> dict:
    return {"statement": statement, "kind": "hard", "pass": bool(ok), **data}


def _report(inputs: Inputs, name: str, checks: list[dict]) -> None:
    path = inputs.out / "reports" / f"{name}.json"
    path.write_text(json.dumps({"command": name, "checks": checks},
                               sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# dyadic-d2 experiments that call the library directly
# ---------------------------------------------------------------------------

def _shift_json(inputs: Inputs) -> None:
    """Write a d=2, L=7 shift to JSON; shift-eval reads it back."""
    c = SHIFT_D2
    lat = lattice.build_lattice(c["d"], c["L"])
    spec = modelops.make_random_shift(lat, c["n"], c["complexity"],
                                      set(c["cancellative"]), inputs.seed,
                                      1.0, c["blocks"], c["tuples_per_block"])
    text = modelops.shift_to_json(spec)
    path = inputs.out / "shift-d2.json"
    path.write_text(text)
    back = modelops.shift_from_json(path.read_text())
    _report(inputs, "shift-json", [
        _check("shift-json-roundtrip", back.coeffs == spec.coeffs,
               coefficients=len(spec.coeffs), json_bytes=len(text))])


def _paraproduct(inputs: Inputs) -> None:
    """BMO paraproduct at d=1, L=10: Carleson check, form, slot-2 adjoint."""
    lat = lattice.build_lattice(1, PARAPRODUCT_L)
    h = lattice.random_grid_function(lat, seed=inputs.seed, scalar=True)
    spec = modelops.ParaproductSpec(lat, 2, 2, modelops.make_bmo_coeffs(lat, h))
    fs = [lattice.random_grid_function(lat, N=2, seed=inputs.seed + 1 + i)
          for i in range(3)]
    value = modelops.eval_paraproduct_form(spec, fs)
    g = modelops.adjoint_eval(spec, 2, [fs[0], fs[2]])
    gv = g.values.reshape((-1, 2, 2))
    fv = fs[1].values.reshape((-1, 2, 2))
    dual = complex(np.einsum("xij,xji->", gv, fv) * lat.cell_volume)
    defect = abs(dual - value)
    _report(inputs, "paraproduct-d1", [
        _check("paraproduct-adjoint-duality",
               defect <= DUALITY_TOL * max(1.0, abs(value)), defect=defect,
               tol=DUALITY_TOL, coefficients=len(spec.coeffs),
               value_re=value.real, value_im=value.imag)])


def _heavy(inputs: Inputs, key: str, L: int) -> list:
    lat = lattice.build_lattice(2, L)
    return [lattice.GridFunction(lat, a) for a in inputs.arrays[key]]


def _stopping(inputs: Inputs) -> None:
    """Stopping collection at d=2, L=8 on |g|^4 inputs, its sparse form
    and the multilinear maximal function."""
    fs = _heavy(inputs, "stop", STOP_L)
    col = sparse.build_sparse_stopping(fs, 2.0 * HEAVY_INPUTS)
    ok = sparse.is_sparse(col, col.eta)
    form = sparse.sparse_form(col, fs)
    mx = sparse.multilinear_maximal(fs)
    _report(inputs, "stopping-d2", [
        _check("stopping-collection-sparse", ok, cubes=len(col), eta=col.eta,
               sparse_form=form, maximal_mean=float(mx.values.mean()),
               maximal_max=float(mx.values.max()))])


def _universal(inputs: Inputs) -> None:
    """The 3^d shifted-grid search at d=2, L=7.  The unshifted grid is one
    of the nine, so the best form dominates its sparse form."""
    fs = _heavy(inputs, "universal", UNIVERSAL_L)
    theta = 2.0 * HEAVY_INPUTS
    base = sparse.sparse_form(sparse.build_sparse_stopping(fs, theta), fs)
    res = sparse.universal_sparse_bound(fs, base, theta)
    _report(inputs, "universal-d2", [
        _check("universal-grid-dominates-standard", res["constant"] <= 1.0,
               grid=res["grid"], form=res["form"], standard_form=base,
               constant=res["constant"])])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _setup_kernel_const(inputs: Inputs) -> None:
    _write_config(inputs, "kernel-const", KERNEL_CONST)


def _setup_default_suite(inputs: Inputs) -> None:
    for command, config in DEFAULT_SUITE.items():
        _write_config(inputs, command, config)


def _setup_dyadic_d2(inputs: Inputs) -> None:
    _write_config(inputs, "haar-suite-d2", {"d": 2, "L": 5, "N": 2})
    _write_config(inputs, "shift-eval-d2", {
        "shift_file": str(inputs.out / "shift-d2.json"), "N": 2, "oracle_cap": 0})
    _write_config(inputs, "reduce-verify-d2", REDUCE_D2)
    rng = np.random.default_rng(inputs.seed)
    for key, L in (("stop", STOP_L), ("universal", UNIVERSAL_L)):
        shape = (1 << L, 1 << L)
        inputs.arrays[key] = [np.abs(rng.standard_normal(shape)) ** 4
                              for _ in range(HEAVY_INPUTS)]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Inputs], None]
    experiments: tuple[Experiment, ...]


WORKLOADS = {
    "kernel-const": Workload(_setup_kernel_const,
                             (_cli("kernel-const"),)),
    "default-suite": Workload(_setup_default_suite,
                              tuple(_cli(c) for c in DEFAULT_SUITE)),
    "dyadic-d2": Workload(_setup_dyadic_d2, (
        _cli("haar-suite", "haar-suite-d2"),
        Experiment("shift-json", _shift_json),
        _cli("shift-eval", "shift-eval-d2"),
        _cli("reduce-verify", "reduce-verify-d2"),
        Experiment("paraproduct-d1", _paraproduct),
        Experiment("stopping-d2", _stopping),
        Experiment("universal-d2", _universal),
    )),
}


def prepare(workload: Workload, seed: int, out: Path) -> Inputs:
    inputs = Inputs(seed, out)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    workload.setup(inputs)
    return inputs
