"""Acceptance criteria, each defined once.

Every function takes ready-made inputs and returns the check records
that the CLI writes and that the acceptance suite asserts on, so a
statement, tolerance and predicate are written here and nowhere else.
Hard records carry ``"pass"`` and gate; band records carry
``"verdict"`` (OK or WARN) and never gate.  Library code is called
through module attributes (``nc.y_norm``, ...), not names bound at
import, so that code which rebinds them to count calls sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from . import lattice as lt
from . import leibniz as lb
from . import modelops as mo
from . import ncspaces as nc
from . import randomized as rz
from . import sparse as sp

HARD = "hard"
BAND = "band"

# tolerances of the hard checks
IDENTITY_TOL = 1e-12        # exact identities, up to rounding
REWRITE_TOL = 1e-10         # the depth-zero rewrite sums many terms
POSITIVE_FACTOR_TOL = 1e-9
MIXED_FACTOR_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-6   # relative to the largest entry of D^s(fg)
CONTRACTION_SLACK = 1e-10   # relative slack of the exact inequalities
PRODUCT_SLACK = 1e-9
DUAL_SLACK = 1e-9
KERNEL_SLACK = 1e-15        # absolute; a larger budget extends the samples
ATTAINMENT = 0.95           # share of the dual norm a random search must reach
ANCHOR_SE = 3.0             # standard errors allowed around the decoupling anchor

# bytes of the stack of Delta_Q f that projection_algebra projects at once
_CHUNK_BYTES = 1 << 20
# (p1, p2, q3, r1, r2) of the derivative-of-product ratio
LEIBNIZ_EXPONENTS = (4.0, 4.0, 2.0, 4.0, 4.0)


def record(statement: str, kind: str, ok: bool, **data) -> dict:
    """One check record: statement, kind, data fields and the verdict."""
    rec = {"statement": statement, "kind": kind, **data}
    if kind == HARD:
        rec["pass"] = bool(ok)
    else:
        rec["verdict"] = "OK" if ok else "WARN"
    return rec


def _within(statement: str, err: float, tol: float, evidence: bool = True, **data) -> dict:
    """Holds when err <= tol, and only with evidence (a case was checked)."""
    return record(statement, HARD, evidence and err <= tol, max_error=err, tol=tol, **data)


def _max_dev(a, b) -> float:
    return float(np.abs(a - b).max())


def _in_band(ratio: float, band: float) -> bool:
    return 1.0 / band <= ratio <= band


def _exact(lhs: float, rhs: float, slack: float) -> tuple[float, bool]:
    """(lhs / rhs, whether lhs <= rhs up to the relative slack)."""
    return (0.0 if rhs == 0 else lhs / rhs), lhs <= rhs * (1 + slack)


def _every(statement: str, kind: str, evals: list, **data) -> tuple[dict, list]:
    """The record that holds when there is a case and every (ratio, ok)
    case holds, and the cases."""
    return record(statement, kind, bool(evals) and all(ok for _, ok in evals), **data), evals


def haar_orthonormality(lat: lt.Lattice) -> dict:
    """Gram matrix of every Haar function above the finest level is I.

    The functions are built one level at a time, and the Gram matrix is
    checked by level blocks: for levels a <= b, V_a^T V_b is I when
    a = b and 0 otherwise, so every pair of functions is checked without
    forming the whole Gram matrix; each block's deviation is taken in
    place.  Haar functions are real, so the blocks are taken in real
    arithmetic and any nonzero imaginary part fails the check."""
    reals, err, imag = [], 0.0, False
    for b in range(lat.depth):
        vecs = lt.haar_level(lat, b).reshape(lat.num_cells, -1)
        imag |= np.iscomplexobj(vecs) and bool(vecs.imag.any())
        reals.append(vecs.real)
        for a, real in enumerate(reals):
            gram = real.T @ reals[b]
            gram *= lat.cell_volume  # a power of two: exact scaling
            if a == b:
                gram[np.diag_indices(len(gram))] -= 1.0
            err = max(err, float(np.abs(gram, out=gram).max()))
    return record("haar-orthonormality", HARD, err <= IDENTITY_TOL and not imag,
                  max_error=err, tol=IDENTITY_TOL)


def martingale_telescoping(f: lt.GridFunction) -> dict:
    """f equals its integral plus every martingale difference: the level
    arrays of the differences are summed in aligned cells."""
    lat = f.lattice
    a = f.aligned()
    total = np.broadcast_to(lt.integral(f), a.shape).copy()
    for lv in range(lat.depth):
        total += lt.level_blocks(lat, a, lv)[1]
    return _within("martingale-telescoping", _max_dev(total, a), IDENTITY_TOL)


def projection_algebra(f: lt.GridFunction) -> dict:
    """Delta_Q Delta_Q = Delta_Q, E_Q Delta_Q = 0 and Delta_R Delta_Q = 0
    for every pair R != Q.  A level's Delta f is split by the cube of each
    cell (``lattice.cell_cubes``) into stacks of Delta_Q f along an axis
    after the cells, ``_CHUNK_BYTES`` at most, each projected onto every
    level at once.  The stacks of a level must add up to its Delta f, so
    no cube is skipped; each cell has one nonzero term, so the sum is
    exact."""
    lat = f.lattice
    d = lat.dim
    a = f.aligned()
    err = 0.0
    for lv in range(lat.depth):
        diffs = lt.level_blocks(lat, a, lv)[1]
        covered = np.zeros_like(diffs)
        # axes: cells, the cube stack, N x N
        cell_cube = lt.cell_cubes(lat, lv)[..., None, None, None]
        cubes = 1 << (lv * d)
        rows = max(1, _CHUNK_BYTES // diffs.nbytes)
        for start in range(0, cubes, rows):
            chunk = np.arange(start, min(start + rows, cubes))[:, None, None]
            dq = np.where(cell_cube == chunk, np.expand_dims(diffs, d), 0)
            covered += dq.sum(axis=d)
            for m in range(lat.depth):
                expect, delta = lt.level_blocks(lat, dq, m)
                if m == lv:
                    # Delta_R Delta_Q f is Delta_Q f on R = Q and 0 on R != Q,
                    # and E_R Delta_Q f = 0 for every R of Q's level
                    err = max(err, _max_dev(delta, dq), float(np.abs(expect).max()))
                else:
                    err = max(err, float(np.abs(delta).max()))
        err = max(err, _max_dev(covered, diffs))
    return _within("projection-algebra", err, IDENTITY_TOL)


def average_expansion(f: lt.GridFunction) -> dict:
    """E_K^k f = E_K f + sum_{l<k} Delta_K^l f for every admissible (K, k),
    all cubes K of a level at once; the left side comes straight from the
    block means at level + k."""
    lat = f.lattice
    d, L = lat.dim, lat.depth
    a = f.aligned()
    err = 0.0
    for lv in range(L + 1):
        rhs = lt.level_blocks(lat, a, lv)[0]
        for k in range(L - lv + 1):
            if k:
                rhs = rhs + lt.level_blocks(lat, a, lv, k - 1)[1]
            w = 1 << (L - lv - k)
            # not level_blocks(lat, a, lv, k)[0]: a fault in level_blocks would cancel
            err = max(err, _max_dev(lt._expand(lt._block_means(a, w, d), w, d), rhs))
    return _within("average-expansion-identity", err, IDENTITY_TOL)


def serialization_roundtrip(f: lt.GridFunction) -> dict:
    rt = lt.grid_function_from_json(lt.grid_function_to_json(f))
    return record("serialization-roundtrip", HARD,
                  np.array_equal(rt.values, f.values) and rt.lattice == f.lattice)


def shift_form_oracle(spec: mo.ShiftSpec, fs: list, oracle_cap: int) -> dict:
    """The fast shift form equals the naive one (only evaluated above the
    cap); a shift with no coefficients is no evidence."""
    fast = mo.eval_shift_form(spec, fs)
    data = {"value_re": fast.real, "value_im": fast.imag,
            "coefficients": len(spec.coeffs)}
    if len(spec.coeffs) > oracle_cap:
        return record("shift-form-evaluated", HARD, True, **data)
    return _within("shift-form-oracle-agreement", abs(fast - mo.eval_shift_form_naive(spec, fs)),
                   IDENTITY_TOL, len(spec.coeffs) > 0, **data)


def shift_rewrite(spec: mo.ShiftSpec, fs: list) -> list[dict]:
    """The depth-zero rewrite preserves the form and keeps terms normalized;
    both records fail for a shift with no coefficients (no evidence)."""
    evidence = len(spec.coeffs) > 0
    terms = mo.reduce_shift(spec)
    pyrs = [lt.HaarPyramid(f) for f in fs]  # one sweep per input for every form below
    defect = abs(mo.eval_shift_form(spec, pyrs) - sum(mo.eval_shift_form(t, pyrs) for t in terms))
    worst = max((t.check_normalization() for t in terms), default=0.0)
    return [record("shift-rewrite-form-preservation", HARD, evidence and defect <= REWRITE_TOL,
                   terms=len(terms), defect=defect, tol=REWRITE_TOL),
            record("shift-rewrite-normalization", HARD,
                   evidence and worst <= 1.0 + mo.NORMALIZATION_SLACK, worst_ratio=worst)]


def sparse_domination(cases: list, eta: float) -> tuple[list[dict], list[dict]]:
    """Sparse domination of each (spec, fs): eta-sparse stopping collections
    and finite constants (both fail with no case), and per n a fitted slope
    of log(constant) against log(1 + kappa) of at most n + 1.  Returns the
    records and each case's domination report."""
    reps = []
    sparse_ok = True
    worst: dict[tuple[int, int], float] = {}
    for spec, fs in cases:
        rep = sp.verify_sparse_domination(abs(mo.eval_shift_form(spec, fs)), fs, eta=eta)
        sparse_ok &= rep["sparse"]
        key = (spec.n, spec.kappa)
        worst[key] = max(worst.get(key, 0.0), rep["constant"])
        reps.append(rep)
    fits = {}
    for n in sorted({key[0] for key in worst}):
        pts = [(kappa, c) for (m, kappa), c in worst.items() if m == n and c > 0]
        if len(pts) >= 2:
            xs = np.log([1.0 + kappa for kappa, _ in pts])
            ys = np.log([c for _, c in pts])
            fits[str(n)] = float(np.polyfit(xs, ys, 1)[0])
    evidence = len(reps) > 0
    finite = all(math.isfinite(rep["constant"]) for rep in reps)
    return [record("stopping-collection-sparsity", HARD, evidence and sparse_ok, eta=eta),
            record("sparse-domination-finite-constants", HARD, evidence and finite,
                   trials=len(reps)),
            record("constant-growth-fit", BAND,
                   all(beta <= int(n) + 1 for n, beta in fits.items()), fits=fits)], reps


def contraction(cases: list) -> tuple[dict, list]:
    """Exact contraction principle (Schatten-2 values) for each
    (xs, coeffs, p); returns the record and each (ratio, holds)."""
    return _every("contraction-exact", HARD, [
        _exact(*rz.contraction_check(xs, coeffs, 2.0, p), CONTRACTION_SLACK)
        for xs, coeffs, p in cases])


def product_bound(cases: list) -> tuple[dict, list]:
    """Randomized product bound for each (es, coeffs, exponents)."""
    return _every("randomized-product-bound-exact", HARD, [
        _exact(*rz.rscalar_check(es, coeffs, ps), PRODUCT_SLACK)
        for es, coeffs, ps in cases])


def moment_band(cases: list, band: float) -> tuple[dict, list]:
    """Moment-comparison ratio of each (xs, p, q) in [1/band, band]."""
    ratios = [rz.kk_ratio(xs, 2.0, p, q) for xs, p, q in cases]
    return _every("moment-comparison-band", BAND,
                  [(r, _in_band(r, band)) for r in ratios], band=band)


def conditional_expectation_band(lat: lt.Lattice, values: np.ndarray, level, index,
                                 band: float) -> tuple[dict, tuple]:
    """Stein-type comparison at p = 3 of the cube functions of
    ``randomized.stein_check``; returns the record and (ratio, holds)."""
    lhs, rhs = rz.stein_check(lat, values, level, index, 3.0, 2.0)
    ratio = lhs / rhs if rhs else 0.0
    return (record("conditional-expectation-band", BAND, ratio <= band, band=band),
            (ratio, ratio <= band))


def decoupling_anchor(f: lt.GridFunction, j: int, k: int, l: int, sampler, ens) -> dict:
    """For scalar f at p = 2 the decoupling ratio is 1 up to sampling
    error; a zero standard error (no spread, as for f = 0) is no evidence."""
    ratio, se = rz.decoupling_ratio(f, j, k, l, 2.0, 2.0, sampler, ens)
    return record("decoupling-scalar-p2-anchor", HARD,
                  0 < se and abs(ratio - 1.0) <= ANCHOR_SE * se, ratio=ratio, stderr=se)


def decoupling_band(f: lt.GridFunction, j: int, k: int, l: int, p: float,
                    sampler, ens, band: float) -> dict:
    """Matrix-valued decoupling ratio (Schatten-2 values) in [1/band, band]."""
    ratio, se = rz.decoupling_ratio(f, j, k, l, p, 2.0, sampler, ens)
    return record("decoupling-matrix-band", BAND, _in_band(ratio, band),
                  ratio=ratio, stderr=se, band=band)


def factorization_roundtrips(positive: list, mixed: list) -> list[dict]:
    """Unit-norm elements factor into unit-norm factors that multiply back:
    each positive semidefinite a of (a, exponents) scaled to unit S^q norm
    (q = ``nc.holder_exponent`` of its exponents, as ``factorize_positive``
    reads q), and each value tree raw of (raw, weights, exponent columns)
    scaled to unit nested norm in the q column (``holder_exponent`` of the
    columns level by level, as ``factorize_mixed`` reads it).  Each record
    fails when its list is empty."""
    flat = 0.0
    for a, ps in positive:
        a = a / nc.schatten_norm(a, nc.holder_exponent(ps))
        factors = nc.factorize_positive(a, ps)
        flat = max(flat, _max_dev(nc.chain(factors), a),
                   *(abs(nc.schatten_norm(fac, p) - 1.0) for fac, p in zip(factors, ps)))
    nested = 0.0
    for raw, weights, cols in mixed:
        qs = [nc.holder_exponent(ps) for ps in zip(*cols)]
        f = raw / nc.nested_norm(raw, weights, qs)
        facs = nc.factorize_mixed(f, weights, cols)
        nested = max(nested, _max_dev(nc.chain(facs), f),
                     *(abs(nc.nested_norm(fac, weights, col) - 1.0)
                       for fac, col in zip(facs, cols)))
    return [_within("positive-factorization-roundtrip", flat, POSITIVE_FACTOR_TOL, bool(positive)),
            _within("mixed-factorization-roundtrip", nested, MIXED_FACTOR_TOL, bool(mixed))]


def dual_norm_attainment(e: np.ndarray, ps: list[float], budget: int, seed: int) -> dict:
    """The best ``y_norm`` proposal against the spaces S^{p_u} of ``ps``
    reaches ATTAINMENT of the dual norm, never above it.  The first,
    SVD-aligned proposal attains the norm, so it alone decides the lower
    bound; the Gaussian proposals meet only the upper."""
    res = nc.y_norm(e, ps, budget=budget, seed=seed)
    ok = ATTAINMENT * res.analytic <= res.empirical <= res.analytic * (1 + DUAL_SLACK)
    return record("dual-norm-search-attainment", HARD, ok,
                  analytic=res.analytic, empirical=res.empirical)


def reconstruction_defect(f: lb.TorusFunction, g: lb.TorusFunction, s: float) -> float | None:
    """How far the three-part split of D^s(fg) is from D^s(fg), relative
    to its largest entry (None when D^s(fg) = 0: the pair is no evidence)."""
    full = lb.fractional_derivative(lb.product(f, g), s)
    scale = float(np.abs(full.values).max())
    error = float(np.abs(lb.paraproduct_split(f, g, s).total().values - full.values).max())
    return error / scale if scale > 0 else None


def paraproduct_reconstruction(defects: list[float | None]) -> dict:
    """Every reconstruction defect of a pair is below RECONSTRUCTION_TOL
    (fails with no pair whose D^s(fg) is nonzero)."""
    found = [x for x in defects if x is not None]
    worst = max(found, default=0.0)
    return record("paraproduct-reconstruction", HARD, bool(found) and worst < RECONSTRUCTION_TOL,
                  max_defect=worst, tol=RECONSTRUCTION_TOL)


def ratio_refinement(ratios: list[list[float]], band: float) -> dict:
    """The largest derivative-of-product ratio (LEIBNIZ_EXPONENTS) drifts by
    less than ``band`` from the first resolution's ratios to the last's."""
    first, last = max(ratios[0]), max(ratios[-1])
    drift = abs(last - first) / first if first else 0.0
    return record("ratio-refinement-stability", BAND, drift < band, drift=drift, band=band)


def kernel_constants(s: float, budgets: list[int], seed: int, band: float) -> list[dict]:
    """Kernel constants (Holder exponent (s-1)/2) never fall as the budget
    grows; the size constant drifts by at most ``band`` over the budgets."""
    kern = lb.DiagonalKernel(s)
    alpha = (s - 1.0) / 2.0
    results = []
    for budget in budgets:
        size, holder = lb.cz_kernel_constant(
            lb.KernelSample(kernel=kern, alpha=alpha, budget=budget, seed=seed))
        results.append({"budget": budget, "size": size, "holder": holder})
    mono = all(a["size"] <= b["size"] + KERNEL_SLACK and
               a["holder"] <= b["holder"] + KERNEL_SLACK
               for a, b in zip(results, results[1:]))
    checks = [record("kernel-constant-monotone-in-budget", HARD, mono,
                     results=results, domain="periodic-surrogate")]
    if results[0]["size"] > 0:
        drift = results[-1]["size"] / results[0]["size"] - 1.0
        checks.append(record("kernel-constant-stability", BAND, drift <= band,
                             drift=drift, band=band, domain="periodic-surrogate"))
    return checks
