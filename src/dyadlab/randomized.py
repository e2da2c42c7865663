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
from typing import Sequence

import numpy as np

from .lattice import (
    Cube,
    GridFunction,
    Lattice,
    _cell_block,
    expect,
    from_aligned,
    grid_axes,
    level_blocks,
    lp_norm,
    martingale_diff,
    power_mean,
    scalar_pow,
    sublattice,
)
# schatten_norms is not called here, but perfbench's span test reads it in this namespace
from .ncspaces import conjugate_exponent, schatten_norm, schatten_norms, value_norms  # noqa: F401

EXHAUSTIVE_LIMIT = 20
# largest accumulator of one chunk of decoupling samples, in bytes
_CHUNK_BYTES = 1 << 17


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


def _signed_norms(xs: Sequence, eps: np.ndarray, schatten: float) -> np.ndarray:
    """|sum_m eps_m x_m|_{S^schatten} for each sign pattern (row of eps);
    the x_m are scalars or matrices of one shape."""
    stack = np.stack([np.asarray(x, dtype=np.complex128) for x in xs])
    return value_norms(np.tensordot(eps, stack, axes=(1, 0)), stack.ndim - 1, schatten)


def _patterns_for(ens: SignEnsemble, count: int) -> np.ndarray:
    if count > ens.M:
        raise ValueError(f"ensemble indexes {ens.M} signs, {count} needed")
    return ens.patterns()[:, :count]


def rad_norm(xs: Sequence, schatten: float, ens: SignEnsemble) -> float:
    """(E |sum_m eps_m x_m|_{S^schatten}^2)^(1/2); zero for an empty list."""
    if len(xs) == 0:
        return 0.0
    vals = _signed_norms(xs, _patterns_for(ens, len(xs)), schatten)
    return float(power_mean(vals, 2.0))


def kk_ratio(xs: Sequence, schatten: float, p: float, q: float,
             ens: SignEnsemble) -> float:
    """Ratio of the p-th and q-th moment norms of the randomized sum, in S^schatten."""
    if len(xs) == 0:
        return 1.0
    if p <= 0 or q <= 0:
        raise ValueError("moments must be positive")
    vals = _signed_norms(xs, _patterns_for(ens, len(xs)), schatten)
    den = float(power_mean(vals, q))
    num = float(power_mean(vals, p))
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    return num / den


def contraction_check(xs: Sequence, coeffs: Sequence[float], schatten: float,
                      p: float, ens: SignEnsemble) -> tuple[float, float]:
    """S^schatten moments with and without real coefficients |a_m| <= max.

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
    lhs = float(power_mean(_signed_norms(scaled, eps, schatten), p))
    rhs = float(np.abs(coeffs).max(initial=0.0)) * \
        float(power_mean(_signed_norms(xs, eps, schatten), p))
    return lhs, rhs


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------

def stein_check(fqs: dict[Cube, GridFunction], p: float, schatten: float,
                ens: SignEnsemble) -> tuple[float, float]:
    """Compare E || sum eps_Q E_Q f_Q ||_{L^p(X; S^schatten)} with the same
    moment of the raw sum.  Each f_Q must be supported in its cube."""
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
    lhs = float(np.mean(lp_norm(lhs_vals, p, schatten, lat)))
    rhs = float(np.mean(lp_norm(rhs_vals, p, schatten, lat)))
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
                     schatten: float, sampler: DecouplingSampler,
                     ens: SignEnsemble) -> tuple[float, float]:
    """Ratio of the plain p-th power integral of sum_Q Delta_Q^l f to the
    Monte Carlo estimate of its decoupled counterpart.

    Returns (ratio, stderr of the ratio).  Cubes run over the separated
    subcollection of step k and residue j, restricted to those where
    Delta^l exists on the lattice; both sides zero reports ratio 1.
    Values are normed in S^schatten.

    The samples are taken in chunks of at most ``_CHUNK_BYTES`` of
    accumulator: per chunk, one gather per cube reads each sample's
    point of Delta_Q^l f (offsets become aligned cells by
    ``np.unravel_index`` on arrays), the signed values are added into a
    (samples, cells..., value) accumulator cube by cube, and one batched
    ``lp_norm`` takes the norms.  ``_decoupling_ratio_per_sample``, one
    sample and one cube at a time, is its oracle: the two agree bit for
    bit.
    """
    lat, cubes, diffs, lhs, offsets, signs = _decoupling_inputs(f, j, k, l, p, schatten,
                                                                sampler, ens)
    count = len(offsets)
    grid = (lat.cells_per_axis,) * lat.dim
    vs = f.value_shape
    rows = max(1, _CHUNK_BYTES // (lat.num_cells * int(np.prod(vs, dtype=int)) * 16))
    vals = np.empty(count)
    for a in range(0, count, rows):
        b = min(a + rows, count)
        acc = np.zeros((b - a,) + grid + vs, dtype=np.complex128)
        for c, Q in enumerate(cubes):
            w = 1 << (lat.depth - Q.level)
            rel = np.unravel_index(offsets[a:b, c], (w,) * lat.dim)
            v = diffs[Q.level][tuple(i * w + r for i, r in zip(Q.index, rel))]
            v = signs[a:b, c].reshape((-1,) + (1,) * len(vs)) * v
            acc[(slice(None),) + _cell_block(lat, Q)] += v.reshape((-1,) + (1,) * lat.dim + vs)
        if any(lat.shift_cells):  # back to physical cells, as from_aligned does
            acc = np.roll(acc, lat.shift_cells, axis=tuple(range(1, lat.dim + 1)))
        vals[a:b] = scalar_pow(lp_norm(acc, p, schatten, lat), p)
    return _ratio(lhs, vals)


def _decoupling_ratio_per_sample(f: GridFunction, j: int, k: int, l: int, p: float,
                                 schatten: float, sampler: DecouplingSampler,
                                 ens: SignEnsemble) -> tuple[float, float]:
    """Oracle of ``decoupling_ratio``: one sample and one cube at a time."""
    lat, cubes, diffs, lhs, offsets, signs = _decoupling_inputs(f, j, k, l, p, schatten,
                                                                sampler, ens)
    vals = np.empty(len(offsets))
    shape = (lat.cells_per_axis,) * lat.dim + f.value_shape
    for i in range(len(offsets)):
        acc = np.zeros(shape, dtype=np.complex128)
        for c, Q in enumerate(cubes):
            v = diffs[Q.level][sampler.cell_of(Q, offsets[i, c])]
            acc[_cell_block(lat, Q)] += signs[i, c] * v
        vals[i] = lp_norm(from_aligned(lat, acc), p, schatten) ** p
    return _ratio(lhs, vals)


def _decoupling_inputs(f, j, k, l, p, schatten, sampler, ens):
    """What both forms of ``decoupling_ratio`` start from: the lattice,
    the cubes, Delta^l f of each cube level (``level_blocks``: cube Q's
    block of ``diffs[Q.level]`` holds the aligned Delta_Q^l f), the
    plain side, and the sampled offsets and signs (one row per sample,
    one column per cube)."""
    if l > k:
        raise ValueError("need l <= k")
    lat = f.lattice
    if sampler.lattice != lat:
        raise ValueError("sampler lattice mismatch")
    cubes = [Q for Q in sublattice(lat, j, k) if Q.level + l <= lat.depth - 1]
    if not cubes:
        raise ValueError("no admissible cubes at this depth")
    diffs = {lv: level_blocks(f, lv, l)[1] for lv in sorted({Q.level for Q in cubes})}
    lhs = lp_norm(from_aligned(lat, sum(diffs.values())), p, schatten) ** p

    count = ens.samples
    rng = np.random.default_rng(ens.seed + 1)
    offsets = sampler.draws(cubes, count)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(count, len(cubes)))
    return lat, cubes, diffs, lhs, offsets, signs


def _ratio(lhs: float, vals: np.ndarray) -> tuple[float, float]:
    """(lhs / mean of vals, its standard error); 1 when both sides vanish."""
    count = len(vals)
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
        rhs *= rad_norm(list(es[jj]), ps[jj], ens)
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


def martingale_transform_ratio(f: GridFunction, p: float, schatten: float,
                               ens: SignEnsemble) -> float:
    """Worst sign-pattern ratio || sum eps_Q Delta_Q f || / || f - <f> ||
    in L^p(X; S^schatten), over the ensemble patterns (cubes above the
    finest level, ordered by level then index)."""
    lat = f.lattice
    cubes = [Q for lv in range(lat.depth) for Q in lat.cubes(lv)]
    if len(cubes) > ens.M:
        raise ValueError("ensemble too small for the cube count")
    diffs = np.stack([martingale_diff(f, Q).values for Q in cubes])
    base = f.values - np.mean(f.values, axis=grid_axes(lat), keepdims=True)
    den = lp_norm(GridFunction(lat, base), p, schatten)
    if den == 0.0:
        return 1.0
    eps = ens.patterns()[:, : len(cubes)]
    rows = max(1, _CHUNK_BYTES // diffs[0].nbytes)
    worst = 0.0
    for a in range(0, len(eps), rows):
        v = np.tensordot(eps[a:a + rows], diffs, axes=(1, 0))
        worst = max(worst, float(lp_norm(v, p, schatten, lat).max(initial=0.0)))
    return worst / den

