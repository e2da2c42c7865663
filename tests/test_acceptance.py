"""Acceptance suite: one test per criterion, one printed line per criterion.

Checks the CLI also makes come from ``dyadlab.criteria`` (statements,
tolerances, bands); this suite gives their inputs and asserts on the
records.  Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import math
import time

import numpy as np

import dyadlab as dl
from conftest import random_matrix, random_psd
from dyadlab import criteria as cr
from dyadlab import leibniz as lb
from dyadlab import modelops as mo
from dyadlab import ncspaces as nc
from dyadlab import randomized as rz
from dyadlab import sparse as sp


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed ({detail})"


def _holds(records) -> bool:
    """Every hard record passes and every band record is OK."""
    return all(r["pass"] if r["kind"] == cr.HARD else r["verdict"] == "OK"
               for r in records)


def _deviation(records) -> str:
    worst = max(r["max_error"] for r in records)
    return f"max deviation {worst:.2e} (tol {records[0]['tol']:g})"


class _Stopwatch:
    """Per-identity wall-clock budget for the exact-identity criterion."""

    def __init__(self, budget: float = 10.0):
        self.budget = budget
        self.mark = time.time()

    def lap(self) -> float:
        now = time.time()
        elapsed = now - self.mark
        self.mark = now
        assert elapsed < self.budget, f"identity exceeded {self.budget}s"
        return elapsed


def _random_shift_instance(rng, max_n=3, max_kappa=3, L=6, allow_all_canc=True):
    """A random admissible shift on a depth-L line lattice."""
    lat = dl.build_lattice(1, L)
    n = int(rng.integers(1, max_n + 1))
    complexity = [int(rng.integers(0, max_kappa + 1)) for _ in range(n + 1)]
    slots = list(rng.permutation(n + 1) + 1)
    n_canc = int(rng.integers(2, n + 2)) if allow_all_canc else 2
    canc = set(slots[:n_canc])
    spec = mo.make_random_shift(lat, n, complexity, canc,
                                seed=int(rng.integers(2 ** 31)),
                                scale=float(rng.uniform(0.2, 1.0)),
                                blocks=4, tuples_per_block=4)
    return lat, spec


def _shift_cases(rng, count, **kwargs):
    """``count`` random (shift, grid functions) cases, N <= 3."""
    cases = []
    while len(cases) < count:
        try:
            lat, spec = _random_shift_instance(rng, **kwargs)
        except ValueError:
            continue
        N = int(rng.integers(1, 4))
        cases.append((spec, [dl.random_grid_function(lat, N=N, seed=int(rng.integers(2 ** 31)))
                             for _ in range(spec.n + 1)]))
    return cases


def test_criterion_1_exact_identities():
    watch = _Stopwatch()

    def identity(name, recs):
        _report(f"criterion {name}", _holds(recs), f"{_deviation(recs)}, {watch.lap():.1f}s")

    # Haar orthonormality, d <= 2, L <= 4
    identity("1a haar orthonormality",
             [cr.haar_orthonormality(dl.build_lattice(d, L, 17)) for d, L in ((1, 4), (2, 4))])

    # telescoping and projection algebra
    f = dl.random_grid_function(dl.build_lattice(2, 3, 23), N=2, seed=31)
    identity("1b martingale telescoping", [cr.martingale_telescoping(f)])
    fs = dl.random_grid_function(dl.build_lattice(1, 4), seed=7)
    identity("1c projection algebra", [cr.projection_algebra(fs)])

    # expansion identity for all admissible (K, k)
    identity("1d depth expansion identity",
             [cr.average_expansion(dl.random_grid_function(dl.build_lattice(d, L, 5), N=2,
                                                           seed=13))
              for d, L in ((1, 4), (2, 3))])

    # reduce rewrite: 50 random shifts, n <= 3, kappa <= 3, N <= 3, d=1, L <= 6
    recs = [rec for spec, fs6 in _shift_cases(np.random.default_rng(99), 50)
            for rec in cr.shift_rewrite(spec, fs6)]
    _report("criterion 1e shift rewrite preservation", _holds(recs),
            f"max defect {max(r.get('defect', 0.0) for r in recs):.2e}, max normalization "
            f"{max(r.get('worst_ratio', 0.0) for r in recs):.6f}, {watch.lap():.1f}s")

    # adjoint duality, every slot, shifts and paraproducts
    worst = 0.0
    rng = np.random.default_rng(7)
    for trial in range(6):
        lat6, spec = _random_shift_instance(rng, L=4)
        fs6 = [dl.random_grid_function(lat6, N=2, seed=300 + 10 * trial + i)
               for i in range(spec.n + 1)]
        value = mo.eval_shift_form(spec, fs6)
        for j0 in range(1, spec.n + 2):
            rest = [fs6[i] for i in range(spec.n + 1) if i != j0 - 1]
            g6 = mo.adjoint_eval(spec, j0, rest)
            prod = np.einsum("xij,xjk->xik", g6.values, fs6[j0 - 1].values)
            val = complex(np.einsum("xii->x", prod).sum() * lat6.cell_volume)
            worst = max(worst, abs(val - value))
    lat4 = dl.build_lattice(1, 4)
    pp = mo.ParaproductSpec(lat4, 2, 2, mo.make_bmo_coeffs(
        lat4, dl.random_grid_function(lat4, seed=41)))
    fsp = [dl.random_grid_function(lat4, N=2, seed=400 + i) for i in range(3)]
    value = mo.eval_paraproduct_form(pp, fsp)
    for j0 in (1, 2, 3):
        rest = [fsp[i] for i in range(3) if i != j0 - 1]
        gp = mo.adjoint_eval(pp, j0, rest)
        prod = np.einsum("xij,xjk->xik", gp.values, fsp[j0 - 1].values)
        val = complex(np.einsum("xii->x", prod).sum() * lat4.cell_volume)
        worst = max(worst, abs(val - value))
    _report("criterion 1f adjoint duality (1e-12)", worst <= 1e-12,
            f"max deviation {worst:.2e}, {watch.lap():.1f}s")

    # factorization round trips, 200 seeds including nested cases
    positive, mixed = [], []
    for seed in range(200):
        r = np.random.default_rng(seed)
        N = int(r.integers(2, 4))
        positive.append((random_psd(r, N), [3.0, 3.0, 3.0] if seed % 2 else [2.0, 4.0, 4.0]))
        if seed % 2 == 0:
            raw = np.stack([random_psd(r, N) for _ in range(2)])
            mixed.append((raw, ((0.4, 0.6),), [(3.0, 3.0), (3.0, 3.0)]))
    flat, nested = recs = cr.factorization_roundtrips(positive, mixed)
    _report("criterion 1g factorization round trips", _holds(recs),
            f"flat {_deviation([flat])}, nested {_deviation([nested])}, {watch.lap():.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(4)
    recs = []
    for trial in range(12):
        lat, spec = _random_shift_instance(rng, L=5)
        fs = [dl.random_grid_function(lat, N=2, seed=500 + 10 * trial + i)
              for i in range(spec.n + 1)]
        recs.append(cr.shift_form_oracle(spec, fs, oracle_cap=100_000))
    # one deliberately large table (about 10^4 entries)
    lat = dl.build_lattice(1, 8)
    big = mo.make_random_shift(lat, 2, (3, 3, 3), {1, 3}, seed=1,
                               blocks=31, tuples_per_block=512)
    assert len(big.coeffs) <= 100_000
    fs = [dl.random_grid_function(lat, N=2, seed=600 + i) for i in range(3)]
    recs.append(cr.shift_form_oracle(big, fs, oracle_cap=100_000))
    checked = [r for r in recs if "max_error" in r]
    _report("criterion 2a contraction vs enumeration", _holds(recs),
            f"{_deviation(checked)}, largest table {max(r['coefficients'] for r in checked)}")

    worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        p = float(r.uniform(1.5, 4.0))
        weights = (tuple(r.uniform(0.2, 1.0, size=2)), tuple(r.uniform(0.2, 1.0, size=3)))
        vals = r.standard_normal((3, 2, 2, 2)) + 1j * r.standard_normal((3, 2, 2, 2))
        worst = max(worst, abs(nc.nested_norm(vals, weights, (p,) * 3)
                               - nc.flat_product_norm(vals, weights, p)))
    _report("criterion 2b nested norm vs product-measure norm (1e-10)",
            worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_3_sparse_suite():
    t0 = time.time()
    # stopping sparsity for 100 random inputs
    ok = True
    for trial in range(100):
        r = np.random.default_rng(1000 + trial)
        lat = dl.build_lattice(1, 5)
        n1 = int(r.integers(2, 5))
        fs = [dl.GridFunction(lat, np.abs(r.standard_normal(32)) ** 2)
              for _ in range(n1)]
        col = sp.build_sparse_stopping(fs, 2.0 * n1)
        ok &= sp.is_sparse(col, 0.5)
        form = sp.sparse_form(col, fs)
        l1 = float(sp.multilinear_maximal(fs).values.real.mean())
        ok &= form <= 2.0 * l1 + 1e-12
    _report("criterion 3a stopping collections are 1/2-sparse and "
            "dominated by the maximal function", ok)

    # 500 domination trials
    cases = _shift_cases(np.random.default_rng(2024), 500, L=5, allow_all_canc=False)
    recs, _ = cr.sparse_domination(cases, eta=0.5)
    elapsed = time.time() - t0
    fits = "; ".join(f"n={n}: beta={beta:.2f}" for n, beta in recs[-1]["fits"].items())
    _report("criterion 3b 500-trial stopping collections sparse, domination constants "
            "finite with polynomial growth", _holds(recs), f"{fits}; elapsed {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_4_randomized_suite():
    rng = np.random.default_rng(5)
    # exact contraction, M <= 10
    cases = []
    for M in (2, 5, 8, 10):
        for N in (1, 2, 3):
            xs = [random_matrix(rng, N) for _ in range(M)]
            cases += [(xs, rng.uniform(-1, 1, size=M), p) for p in (1.0, 2.0, 3.5)]
    rec, _ = cr.contraction(cases)
    _report("criterion 4a contraction holds with exact inequality", _holds([rec]))

    # moment-comparison band across the grid
    cases = []
    for M in (2, 4, 8, 10):
        for N in (1, 2, 3):
            xs = [random_matrix(rng, N) for _ in range(M)]
            cases += [(xs, p, q)
                      for p, q in ((0.5, 2.0), (1.0, 2.0), (2.0, 4.0), (4.0, 1.0))]
    rec, evals = cr.moment_band(cases, band=10.0)
    ratios = [ratio for ratio, _ in evals]
    _report("criterion 4b moment comparison ratios within [1/10, 10]", _holds([rec]),
            f"range [{min(ratios):.3f}, {max(ratios):.3f}]")

    # decoupling anchor
    lat = dl.build_lattice(1, 4)
    rec = cr.decoupling_anchor(dl.random_grid_function(lat, seed=8), 0, 1, 1,
                               rz.DecouplingSampler(seed=3),
                               rz.SignEnsemble(0, samples=10_000, seed=9))
    _report("criterion 4c scalar p=2 decoupling ratio is 1 within "
            f"{cr.ANCHOR_SE:g} standard errors", _holds([rec]),
            f"ratio {rec['ratio']:.4f} +- {rec['stderr']:.4f}")

    # randomized product bound, enumerated instances
    cases = []
    for n in (2, 3):
        for K in (1, 2, 3, 4):
            for N in (2, 3):
                es = np.array([[random_matrix(rng, N) for _ in range(K)] for _ in range(n)])
                coeffs = rng.uniform(size=K) * np.exp(2j * np.pi * rng.uniform(size=K))
                cases += [(es, coeffs, ps)
                          for ps in ([float(n + 1)] * (n + 1), [2.0] + [2.0 * n] * n)]
    rec, _ = cr.product_bound(cases)
    _report("criterion 4d randomized product bound exact on the grid", _holds([rec]))


def test_criterion_5_dual_norm():
    rng = np.random.default_rng(6)
    recs = []
    ok_maximizer = True
    # the first slots of the Hoelder tuples (2, 2), (3, 3, 3), (2, 4, 4)
    # and (4, 4, 4, 4)
    cases = [[2.0], [3.0, 3.0], [2.0, 4.0], [4.0, 4.0, 4.0]]
    for N in (1, 2, 3):
        for ps in cases:
            e = random_matrix(rng, N)
            recs.append(cr.dual_norm_attainment(e, ps, 10_000, int(rng.integers(2 ** 31))))
            # duality attained by the aligned maximizer
            q = nc.holder_exponent(ps)
            b = nc.dual_maximizers(e, q)
            target = nc.schatten_norm(e, nc.conjugate_exponent(q))
            ok_maximizer &= abs(abs(np.trace(e @ b)) - target) <= 1e-9 * max(1.0, target)
    fractions = [r["empirical"] / r["analytic"] for r in recs if r["analytic"] > 0]
    _report(f"criterion 5 dual-norm search reaches {cr.ATTAINMENT:.0%} and the aligned "
            "maximizer attains (1e-9)", _holds(recs) and ok_maximizer,
            f"min fraction {min(fractions):.6f}")


def test_criterion_6_leibniz_study():
    # closed-form single-frequency case
    worst = 0.0
    for k, s in ((1, 1.5), (3, 1.5), (5, 2.5)):
        c = np.zeros((256, 1, 1), dtype=complex)
        c[k] = 1.0
        f = lb.TorusFunction.from_coeffs(1, 256, c)
        ratio = lb.leibniz_ratio(f, f, s, cr.LEIBNIZ_EXPONENTS)
        worst = max(worst, abs(ratio - 2.0 ** (s - 1)))
    _report("criterion 6a single-frequency ratio matches the closed form "
            "(1e-9)", worst <= 1e-9, f"max deviation {worst:.2e}")

    # reconstruction and refinement study, 100 random matrix pairs
    s = 1.5
    pairs = {R: [(lb.random_torus_function(1, R, band=32, N=2, seed=seed),
                  lb.random_torus_function(1, R, band=32, N=2, seed=10_000 + seed))
                 for seed in range(100)] for R in (256, 512)}
    rec = cr.paraproduct_reconstruction([cr.reconstruction_defect(f, g, s)
                                         for f, g in pairs[256]])
    _report("criterion 6b paraproduct reconstruction defect", _holds([rec]),
            f"max defect {rec['max_defect']:.2e} (tol {rec['tol']:g})")
    rec = cr.ratio_refinement([[lb.leibniz_ratio(f, g, s, cr.LEIBNIZ_EXPONENTS)
                                for f, g in pairs[R]] for R in (256, 512)], band=0.10)
    _report("criterion 6c max ratio stable under grid refinement (<10%)", _holds([rec]),
            f"drift {100 * rec['drift']:.3f}%")

    # kernel constants stable under a 4x budget increase
    recs = cr.kernel_constants(s, [200, 800], seed=0, band=0.05)
    (_, hold0), (size1, hold1) = [(r["size"], r["holder"]) for r in recs[0]["results"]]
    drift_size = recs[-1].get("drift", 0.0)
    drift_hold = hold1 / hold0 - 1.0 if hold0 else 0.0
    _report("criterion 6d kernel constants finite and stable within 5% under 4x budget",
            _holds(recs) and drift_hold <= 0.05 and math.isfinite(size1)
            and math.isfinite(hold1),
            f"size {size1:.3f} (+{100 * drift_size:.2f}%), "
            f"smoothness {hold1:.3f} (+{100 * drift_hold:.2f}%)")
