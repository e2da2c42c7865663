"""Randomized inequalities on finite sign ensembles.

Exhaustive mode enumerates all 2^M sign patterns, so expectations carry
no sampling error and inequality checks are exact; Monte Carlo mode is
for larger index sets and reports standard errors.  The checks cover
moment comparison for randomized sums, the contraction principle,
conditional-expectation (Stein-type) comparison, martingale decoupling
against independent resampling, and the randomized product bound for
Schatten tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import (
    Cube,
    GridFunction,
    Lattice,
    _cell_block,
    expect,
    from_aligned,
    lp_norm,
    martingale_diff_k,
    sublattice,
)
from .ncspaces import conjugate_exponent, schatten_norm, schatten_norms

EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True)
class SignEnsemble:
    """Independent uniform signs over an index set of size M."""

    M: int
    mode: str = "exhaustive"          # "exhaustive" | "monte_carlo"
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "monte_carlo"):
            raise ValueError("unknown ensemble mode")
        if self.mode == "exhaustive" and self.M > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive mode limited to M <= {EXHAUSTIVE_LIMIT}")

    def patterns(self) -> np.ndarray:
        """Sign patterns, one per row (all 2^M rows in exhaustive mode)."""
        if self.mode == "exhaustive":
            m = self.M
            grid = ((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1)
            return 1.0 - 2.0 * grid
        rng = np.random.default_rng(self.seed)
        return 1.0 - 2.0 * rng.integers(0, 2, size=(self.samples, self.M))

    def moment(self, values: np.ndarray, p: float) -> float:
        """(E |v|^p)^(1/p) over per-pattern values v (max for p = inf)."""
        values = np.asarray(values, dtype=float)
        if np.isinf(p):
            return float(values.max(initial=0.0))
        return float(np.mean(values ** p) ** (1.0 / p))


def _norm_values(sums: np.ndarray, norm: Callable) -> np.ndarray:
    """Apply a value norm to a stack of summed values."""
    try:
        out = np.asarray(norm(sums), dtype=float)
        if out.shape == (sums.shape[0],):
            return out
    except TypeError:
        pass
    return np.array([float(norm(v)) for v in sums])


def abs_norm(values):
    return np.abs(values)


def schatten(p: float) -> Callable:
    """Value-norm descriptor |.|_{S^p} usable on stacks of matrices."""
    def _norm(values):
        values = np.asarray(values)
        if values.ndim == 2:
            return schatten_norm(values, p)
        return schatten_norms(values, p)
    return _norm


def _signed_sums(xs: Sequence, eps: np.ndarray) -> np.ndarray:
    stack = np.stack([np.asarray(x, dtype=np.complex128) for x in xs])
    return np.tensordot(eps, stack, axes=(1, 0))


def _patterns_for(ens: SignEnsemble, count: int) -> np.ndarray:
    if count > ens.M:
        raise ValueError(f"ensemble indexes {ens.M} signs, {count} needed")
    return ens.patterns()[:, :count]


def rad_norm(xs: Sequence, norm: Callable, ens: SignEnsemble) -> float:
    """(E |sum_m eps_m x_m|^2)^(1/2); zero for an empty list."""
    if len(xs) == 0:
        return 0.0
    eps = _patterns_for(ens, len(xs))
    vals = _norm_values(_signed_sums(xs, eps), norm)
    return ens.moment(vals, 2.0)


def kk_ratio(xs: Sequence, norm: Callable, p: float, q: float,
             ens: SignEnsemble) -> float:
    """Ratio of the p-th and q-th moment norms of the randomized sum."""
    if len(xs) == 0:
        return 1.0
    if p <= 0 or q <= 0:
        raise ValueError("moments must be positive")
    eps = _patterns_for(ens, len(xs))
    vals = _norm_values(_signed_sums(xs, eps), norm)
    den = ens.moment(vals, q)
    num = ens.moment(vals, p)
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    return num / den


def contraction_check(xs: Sequence, coeffs: Sequence[float], norm: Callable,
                      p: float, ens: SignEnsemble) -> tuple[float, float]:
    """Moments with and without real coefficients |a_m| <= max.

    Returns (lhs, rhs) with lhs the coefficient moment and rhs the bare
    moment scaled by max |a_m|; lhs <= rhs holds exactly (not only up
    to a constant) in exhaustive mode for p >= 1 and real coefficients.
    """
    if p < 1:
        raise ValueError("contraction regime needs p >= 1")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(xs),):
        raise ValueError("one real coefficient per element")
    eps = _patterns_for(ens, len(xs))
    scaled = [a * np.asarray(x) for a, x in zip(coeffs, xs)]
    lhs = ens.moment(_norm_values(_signed_sums(scaled, eps), norm), p)
    rhs = float(np.abs(coeffs).max(initial=0.0)) * \
        ens.moment(_norm_values(_signed_sums(xs, eps), norm), p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------

def stein_check(fqs: dict[Cube, GridFunction], p: float, norm: Callable,
                ens: SignEnsemble) -> tuple[float, float]:
    """Compare E || sum eps_Q E_Q f_Q ||_{L^p(X)} with the same moment of
    the raw sum.  Each f_Q must be supported in its cube."""
    if not fqs:
        raise ValueError("need at least one cube function")
    cubes = sorted(fqs.keys(), key=lambda Q: (Q.level, Q.index))
    lat = fqs[cubes[0]].lattice
    for Q, f in fqs.items():
        if f.lattice != lat:
            raise ValueError("functions live on different lattices")
        outside = f.aligned().copy()
        outside[_cell_block(lat, Q)] = 0.0
        if np.abs(outside).max(initial=0.0) > 1e-12 * max(1.0, np.abs(f.values).max()):
            raise ValueError(f"function attached to {Q} is not supported in it")
    eps = _patterns_for(ens, len(cubes))
    raw = np.stack([fqs[Q].values for Q in cubes])
    avg = np.stack([expect(fqs[Q], Q).values for Q in cubes])
    lhs_vals = np.tensordot(eps, avg, axes=(1, 0))
    rhs_vals = np.tensordot(eps, raw, axes=(1, 0))
    lhs = float(np.mean([lp_norm(GridFunction(lat, v), p, norm) for v in lhs_vals]))
    rhs = float(np.mean([lp_norm(GridFunction(lat, v), p, norm) for v in rhs_vals]))
    return lhs, rhs


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecouplingSampler:
    """Independent uniform points: one finest cell per cube per draw."""

    lattice: Lattice
    seed: int = 0

    def draws(self, cubes: Sequence[Cube], count: int) -> np.ndarray:
        """Array (count, len(cubes)) of within-cube cell offsets."""
        rng = np.random.default_rng(self.seed)
        lat = self.lattice
        sizes = [1 << ((lat.depth - Q.level) * lat.dim) for Q in cubes]
        cols = [rng.integers(0, s, size=count) for s in sizes]
        return np.stack(cols, axis=1) if cols else np.zeros((count, 0), dtype=int)

    def cell_of(self, Q: Cube, offset: int) -> tuple:
        """Aligned cell multi-index for a within-cube flat offset."""
        lat = self.lattice
        w = 1 << (lat.depth - Q.level)
        rel = np.unravel_index(int(offset), (w,) * lat.dim)
        return tuple(i * w + r for i, r in zip(Q.index, rel))


def decoupling_ratio(f: GridFunction, j: int, k: int, l: int, p: float,
                     norm: Callable, sampler: DecouplingSampler,
                     ens: SignEnsemble) -> tuple[float, float]:
    """Ratio of the plain p-th power integral of sum_Q Delta_Q^l f to the
    Monte Carlo estimate of its decoupled counterpart.

    Returns (ratio, stderr of the ratio).  Cubes run over the separated
    subcollection of step k and residue j, restricted to those where
    Delta^l exists on the lattice; both sides zero reports ratio 1.
    """
    if l > k:
        raise ValueError("need l <= k")
    lat = f.lattice
    if sampler.lattice != lat:
        raise ValueError("sampler lattice mismatch")
    cubes = [Q for Q in sublattice(lat, j, k) if Q.level + l <= lat.depth - 1]
    if not cubes:
        raise ValueError("no admissible cubes at this depth")
    diffs = [martingale_diff_k(f, Q, l) for Q in cubes]
    total = diffs[0].copy()
    for g in diffs[1:]:
        total = total + g
    lhs = lp_norm(total, p, norm) ** p

    count = ens.samples
    rng = np.random.default_rng(ens.seed + 1)
    offsets = sampler.draws(cubes, count)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(count, len(cubes)))
    aligned_diffs = [g.aligned() for g in diffs]
    vals = np.empty(count)
    shape = (lat.cells_per_axis,) * lat.dim + f.value_shape
    for i in range(count):
        acc = np.zeros(shape, dtype=np.complex128)
        for c, Q in enumerate(cubes):
            cell = sampler.cell_of(Q, offsets[i, c])
            v = aligned_diffs[c][cell]
            acc[_cell_block(lat, Q)] += signs[i, c] * v
        vals[i] = lp_norm(from_aligned(lat, acc), p, norm) ** p
    rhs = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
    if rhs == 0.0 and lhs == 0.0:
        return 1.0, 0.0
    if rhs == 0.0:
        return float("inf"), 0.0
    ratio = lhs / rhs
    return ratio, ratio * stderr / rhs


# ---------------------------------------------------------------------------
# randomized product bound and the key product inequality
# ---------------------------------------------------------------------------

def rscalar_check(es: np.ndarray, coeffs: Sequence[complex],
                  exponents: Sequence[float], ens: SignEnsemble) -> tuple[float, float]:
    """Randomized bound for products of Schatten tuples.

    ``es`` has shape (n, K, N, N) with n >= 2; coefficients lie in the
    closed unit disc; ``exponents`` is the full tuple p_1..p_{n+1} with
    sum 1/p_j = 1.  Returns (lhs, rhs) where lhs is the dual-exponent
    Schatten norm of sum_k a_k prod_j e_{j,k} and rhs the product of the
    randomized norms of the rows.
    """
    es = np.asarray(es, dtype=np.complex128)
    if es.ndim != 4:
        raise ValueError("es must have shape (n, K, N, N)")
    n, K = es.shape[0], es.shape[1]
    if n < 2:
        raise ValueError("need n >= 2")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (K,) or np.abs(coeffs).max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError("need K coefficients in the unit disc")
    ps = [float(p) for p in exponents]
    if len(ps) != n + 1 or abs(sum(1.0 / p for p in ps) - 1.0) > 1e-9:
        raise ValueError("exponents must form a Holder tuple of length n+1")
    prod = np.einsum("k,kij->kij", coeffs, es[0])
    for jj in range(1, n):
        prod = prod @ es[jj]
    lhs = schatten_norm(prod.sum(axis=0), conjugate_exponent(ps[n]))
    rhs = 1.0
    for jj in range(n):
        rhs *= rad_norm(list(es[jj]), schatten(ps[jj]), ens)
    return lhs, rhs


def key_product_inequality(es: np.ndarray, last: np.ndarray,
                           exponents: Sequence[float]) -> tuple[float, float]:
    """Submultiplicative bound peeling one factor off a product sum.

    ``es`` has shape (n-1, K, N, N); returns (lhs, rhs) with
    lhs = |sum_k prod_j e_{j,k} last|_{S^{p_{n+1}'}} and
    rhs = |sum_k prod_j e_{j,k}|_{S^{r'}} |last|_{S^{p_n}}, where
    1/r' = 1/p_1 + ... + 1/p_{n-1}.
    """
    es = np.asarray(es, dtype=np.complex128)
    ps = [float(p) for p in exponents]
    n = es.shape[0] + 1
    if len(ps) != n + 1:
        raise ValueError("exponent tuple length mismatch")
    prod = es[0]
    for jj in range(1, n - 1):
        prod = prod @ es[jj]
    core = prod.sum(axis=0)
    lhs = schatten_norm(core @ last, conjugate_exponent(ps[n]))
    inv_rp = sum(1.0 / ps[j] for j in range(n - 1))
    rp = float("inf") if inv_rp == 0 else 1.0 / inv_rp
    rhs = schatten_norm(core, rp) * schatten_norm(last, ps[n - 1])
    return lhs, rhs


def martingale_transform_ratio(f: GridFunction, p: float, norm: Callable,
                               ens: SignEnsemble) -> float:
    """Worst sign-pattern ratio || sum eps_Q Delta_Q f || / || f - <f> ||
    in L^p(X), over the ensemble patterns (cubes above the finest level,
    ordered by level then index)."""
    lat = f.lattice
    cubes = [Q for lv in range(lat.depth) for Q in lat.cubes(lv)]
    if len(cubes) > ens.M:
        raise ValueError("ensemble too small for the cube count")
    from .lattice import martingale_diff, GridFunction as GF
    diffs = np.stack([martingale_diff(f, Q).values for Q in cubes])
    base = f.values - np.mean(f.values, axis=grid_axes_of(lat), keepdims=True)
    den = lp_norm(GF(lat, base), p, norm)
    if den == 0.0:
        return 1.0
    eps = ens.patterns()[:, : len(cubes)]
    worst = 0.0
    for row in eps:
        v = np.tensordot(row, diffs, axes=(0, 0))
        worst = max(worst, lp_norm(GF(lat, v), p, norm))
    return worst / den


def grid_axes_of(lat: Lattice):
    return tuple(range(lat.dim))
