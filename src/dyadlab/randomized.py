"""Randomized inequalities on finite sign ensembles.

The sign checks (moment comparison for randomized sums, the contraction
principle, conditional-expectation (Stein-type) comparison and the
randomized product bound for Schatten tuples) average over all 2^m sign
patterns of their m inputs, so expectations carry no sampling error and
the checks are exact.  Martingale decoupling against independent
resampling draws its signs and points from seeds and reports its
standard error; the martingale transform takes its sign patterns as
rows of an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (FieldError, GridFunction, Lattice, _heap_size, cell_cubes, grid_axes,
                      level_blocks)
from .ncspaces import (chain, conjugate_exponent, holder_exponent, lp_norm, lp_norms, power_mean,
                       scalar_pow, schatten_norm, schatten_norms)

EXHAUSTIVE_LIMIT = 20
# largest accumulator of one chunk of decoupling samples, in bytes
_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class SignEnsemble:
    """Independent uniform signs over an index set of size M, all 2^M
    patterns enumerated; ``decoupling_ratio`` draws from ``samples`` and ``seed``."""

    M: int
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.M > EXHAUSTIVE_LIMIT:
            raise ValueError(f"sign patterns are enumerated only for M <= {EXHAUSTIVE_LIMIT}")

    def patterns(self) -> np.ndarray:
        """All 2^M sign patterns, one per row, the first sign varying fastest."""
        m = self.M
        return 1.0 - 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1)


def _signed_norms(xs: Sequence, eps: np.ndarray, schatten: float) -> np.ndarray:
    """|sum_m eps_m x_m|_{S^schatten} for each sign pattern (row of eps);
    the x_m are N x N matrices of one N (a scalar is 1 x 1)."""
    stack = np.stack([np.asarray(x, dtype=np.complex128) for x in xs])
    return schatten_norms(np.tensordot(eps, stack, axes=(1, 0)), schatten)


def rad_norm(xs: Sequence, schatten: float) -> float:
    """(E |sum_m eps_m x_m|_{S^schatten}^2)^(1/2); zero for an empty list."""
    if len(xs) == 0:
        return 0.0
    vals = _signed_norms(xs, SignEnsemble(len(xs)).patterns(), schatten)
    return float(power_mean(vals, 2.0))


def kk_ratio(xs: Sequence, schatten: float, p: float, q: float) -> float:
    """Ratio of the p-th and q-th moment norms of the randomized sum, in S^schatten."""
    if p <= 0 or q <= 0:
        raise ValueError("moments must be positive")
    if len(xs) == 0:
        return 1.0
    vals = _signed_norms(xs, SignEnsemble(len(xs)).patterns(), schatten)
    den = float(power_mean(vals, q))
    num = float(power_mean(vals, p))
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    return num / den


def contraction_check(xs: Sequence, coeffs: Sequence[float], schatten: float,
                      p: float) -> tuple[float, float]:
    """S^schatten moments with and without real coefficients |a_m| <= max.

    Returns (lhs, rhs) with lhs the coefficient moment and rhs the bare
    moment scaled by max |a_m|; lhs <= rhs holds exactly (not only up
    to a constant) for p >= 1 and real coefficients.
    """
    if p < 1:
        raise ValueError("contraction regime needs p >= 1")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(xs),):
        raise ValueError("one real coefficient per element")
    eps = SignEnsemble(len(xs)).patterns()
    scaled = [a * np.asarray(x) for a, x in zip(coeffs, xs)]
    lhs = float(power_mean(_signed_norms(scaled, eps, schatten), p))
    rhs = float(np.abs(coeffs).max(initial=0.0)) * \
        float(power_mean(_signed_norms(xs, eps, schatten), p))
    return lhs, rhs


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------

def stein_check(lat: Lattice, values: np.ndarray, level, index, p: float,
                schatten: float) -> tuple[float, float]:
    """Compare E || sum eps_Q E_Q f_Q ||_{L^p(X; S^schatten)} with the same
    moment of the raw sum.

    ``values`` stacks M functions, shape (M,) + grid + value shape as
    ``lp_norms`` takes them; f_Q is row i restricted to its cube Q =
    (level[i], index[i]) (zero off Q).  The rows take their signs in the
    order of their cubes by level, then index, and the norms are taken in
    aligned cells (``GridFunction.aligned``)."""
    level = np.asarray(level)
    index = np.reshape(index, (len(level), lat.dim))
    if len(level) == 0 or len(values) != len(level):
        raise ValueError("need one function per cube, and at least one cube")
    raw, avg = [], []
    for i in np.lexsort(tuple(index.T[::-1]) + (level,)):
        lv = int(level[i])
        inside = cell_cubes(lat, lv) == np.ravel_multi_index(index[i], (1 << lv,) * lat.dim)
        inside = inside[..., None, None]
        a = GridFunction(lat, values[i]).aligned() * inside
        raw.append(a)
        avg.append(np.where(inside, level_blocks(lat, a, lv)[0], 0))
    eps = SignEnsemble(len(level)).patterns()
    sums = [np.tensordot(eps, np.stack(x), axes=(1, 0)) for x in (avg, raw)]
    return tuple(float(np.mean(lp_norms(v, p, schatten))) for v in sums)


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

def decoupling_levels(depth: int, j: int, k: int, l: int) -> list[int]:
    """The cube levels of decoupling at step k, residue j and order l: the
    separated subcollection (side lengths 2^(m(k+1)+j), m an integer, so
    levels congruent to -j mod k+1) where Delta^l exists, level + l <= depth - 1.
    The rules of a decoupling step: 0 <= j <= k, l <= k and at least one
    level; a broken rule raises FieldError naming ``j``, ``l`` or ``depth``."""
    if j < 0:
        raise FieldError("j", "the residue j must not be negative")
    if j > k:
        raise FieldError("j", "the residue j must not exceed the step k")
    if l > k:
        raise FieldError("l", "the order l must not exceed the step k")
    levels = [lv for lv in range(depth - l) if (lv + j) % (k + 1) == 0]
    if not levels:
        raise FieldError("depth", "no decoupling level leaves room for l more levels")
    return levels


@dataclass(frozen=True)
class DecouplingSampler:
    """Independent uniform points: one finest cell per cube per draw."""

    seed: int = 0

    def draws(self, lat: Lattice, levels: Sequence[int], count: int) -> np.ndarray:
        """Array (count, cubes) of within-cube flat cell offsets on ``lat``,
        a column per cube of the levels in turn, each level in heap order: the
        stream of one ``integers(0, cells, size=count)`` per cube, in one draw per level."""
        rng = np.random.default_rng(self.seed)
        d, L = lat.dim, lat.depth
        return np.concatenate([rng.integers(0, 1 << ((L - lv) * d), size=(1 << (lv * d), count))
                               for lv in levels]).T


def decoupling_ratio(f: GridFunction, j: int, k: int, l: int, p: float,
                     schatten: float, sampler: DecouplingSampler,
                     ens: SignEnsemble) -> tuple[float, float]:
    """Ratio of the plain p-th power integral of sum_Q Delta_Q^l f to the
    Monte Carlo estimate of its decoupled counterpart.

    Returns (ratio, stderr of the ratio).  Cubes run over the separated
    subcollection of step k and residue j, restricted to those where
    Delta^l exists on the lattice (``decoupling_levels``); both sides zero
    reports ratio 1.  Values are normed in S^schatten.

    The samples are taken in chunks of at most ``_CHUNK_BYTES`` of
    accumulator.  Per chunk and level, one gather reads each sample's point
    of Delta_Q^l f in every cube Q of the level, and one add spreads the
    signed values over the cubes' blocks of the (samples, cells..., value)
    accumulator; one ``lp_norms`` call takes the norms, in aligned cells
    (``GridFunction.aligned``) as on the plain side.  The oracle
    ``_decoupling_ratio_per_sample`` agrees bit for bit.
    """
    lat, levels, diffs, lhs, offsets, signs = _decoupling_inputs(f, j, k, l, p, schatten,
                                                                 sampler, ens)
    count = len(offsets)
    d, vs = lat.dim, f.value_shape
    rows = max(1, _CHUNK_BYTES // (lat.num_cells * f.N ** 2 * 16))
    vals = np.empty(count)
    for a in range(0, count, rows):
        b = min(a + rows, count)
        acc = np.zeros((b - a,) + (lat.cells_per_axis,) * d + vs, dtype=np.complex128)
        first = 0
        for lv in levels:
            m, w = 1 << lv, 1 << (lat.depth - lv)
            cols = slice(first, first + m ** d)
            first += m ** d
            # sample s of the q-th cube reads cell (cube index) * w + (offset position)
            cells = zip(np.unravel_index(np.arange(m ** d), (m,) * d),
                        np.unravel_index(offsets[a:b, cols], (w,) * d))
            v = diffs[lv][tuple(i * w + r for i, r in cells)]
            v = signs[a:b, cols][..., None, None] * v
            # axis 2t + 1 of the view runs over the cube's cells along axis t
            acc.reshape((b - a,) + (m, w) * d + vs)[...] += v.reshape((b - a,) + (m, 1) * d + vs)
        vals[a:b] = scalar_pow(lp_norms(acc, p, schatten), p)
    return _ratio(lhs, vals)


def _decoupling_ratio_per_sample(f: GridFunction, j: int, k: int, l: int, p: float,
                                 schatten: float, sampler: DecouplingSampler,
                                 ens: SignEnsemble) -> tuple[float, float]:
    """Oracle of ``decoupling_ratio``: one sample and one cube at a time,
    each cube's cells worked out from its level and index."""
    lat, levels, diffs, lhs, offsets, signs = _decoupling_inputs(f, j, k, l, p, schatten,
                                                                 sampler, ens)
    d = lat.dim
    cubes = [(lv, idx) for lv in levels for idx in np.ndindex(*(1 << lv,) * d)]
    vals = np.empty(len(offsets))
    shape = (lat.cells_per_axis,) * d + f.value_shape
    for i in range(len(offsets)):
        acc = np.zeros(shape, dtype=np.complex128)
        for c, (lv, idx) in enumerate(cubes):
            w = 1 << (lat.depth - lv)
            rel = np.unravel_index(int(offsets[i, c]), (w,) * d)
            v = diffs[lv][tuple(q * w + r for q, r in zip(idx, rel))]
            acc[tuple(slice(q * w, (q + 1) * w) for q in idx)] += signs[i, c] * v
        vals[i] = lp_norm(acc, p, schatten) ** p
    return _ratio(lhs, vals)


def _decoupling_inputs(f, j, k, l, p, schatten, sampler, ens):
    """What both forms of ``decoupling_ratio`` start from: the lattice,
    the cube levels, Delta^l f of each level (``level_blocks``: cube Q's
    block of ``diffs[level of Q]`` holds the aligned Delta_Q^l f), the
    plain side (normed in aligned cells), and the sampled offsets and
    signs (one row per sample, one column per cube, as
    ``DecouplingSampler.draws`` orders them)."""
    lat = f.lattice
    levels = decoupling_levels(lat.depth, j, k, l)
    a = f.aligned()
    diffs = {lv: level_blocks(lat, a, lv, l)[1] for lv in levels}
    lhs = lp_norm(sum(diffs.values()), p, schatten) ** p

    count = ens.samples
    rng = np.random.default_rng(ens.seed + 1)
    offsets = sampler.draws(lat, levels, count)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=offsets.shape)
    return lat, levels, diffs, lhs, offsets, signs


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
                  exponents: Sequence[float]) -> tuple[float, float]:
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
    if len(ps) != n + 1 or abs(holder_exponent(ps) - 1.0) > 1e-9:
        raise ValueError("exponents must form a Holder tuple of length n+1")
    prod = chain([coeffs[:, None, None] * es[0], *es[1:]])
    lhs = schatten_norm(prod.sum(axis=0), conjugate_exponent(ps[n]))
    rhs = 1.0
    for jj in range(n):
        rhs *= rad_norm(list(es[jj]), ps[jj])
    return lhs, rhs


def key_product_inequality(es: np.ndarray, last: np.ndarray,
                           exponents: Sequence[float]) -> tuple[float, float]:
    """Submultiplicative bound peeling one factor off a product sum.

    ``es`` has shape (n-1, K, N, N) with n >= 2; returns (lhs, rhs) with
    lhs = |sum_k prod_j e_{j,k} last|_{S^{p_{n+1}'}} and
    rhs = |sum_k prod_j e_{j,k}|_{S^{r'}} |last|_{S^{p_n}}, where
    1/r' = 1/p_1 + ... + 1/p_{n-1}.
    """
    es = np.asarray(es, dtype=np.complex128)
    ps = [float(p) for p in exponents]
    n = es.shape[0] + 1
    if n < 2:
        raise ValueError("need n >= 2")
    if len(ps) != n + 1:
        raise ValueError("exponent tuple length mismatch")
    core = chain(es).sum(axis=0)
    lhs = schatten_norm(chain([core, last]), conjugate_exponent(ps[n]))
    rhs = schatten_norm(core, holder_exponent(ps[:n - 1])) * schatten_norm(last, ps[n - 1])
    return lhs, rhs


def martingale_transform_ratio(f: GridFunction, p: float, schatten: float,
                               eps: np.ndarray) -> float:
    """Worst sign-pattern ratio || sum eps_Q Delta_Q f || / || f - <f> ||
    in L^p(X; S^schatten), over the sign patterns that are the rows of
    ``eps`` (a column per cube above the finest level, ordered by level
    then index).  A chunk of patterns at a time, each level's Delta f
    (``level_blocks``) is multiplied cell by cell by the sign of the
    cell's cube (``cell_cubes``), in aligned cells."""
    lat, d = f.lattice, f.lattice.dim
    # column of each cell's cube in the patterns, level by level, with two
    # unit axes for the value
    cols = [(_heap_size(lv - 1, d) + cell_cubes(lat, lv))[..., None, None]
            for lv in range(lat.depth)]
    if cols[-1].max() >= eps.shape[1]:
        raise ValueError("too few signs for the cube count")
    aligned = f.aligned()
    deltas = [level_blocks(lat, aligned, lv)[1] for lv in range(lat.depth)]
    base = f.values - np.mean(f.values, axis=grid_axes(lat), keepdims=True)
    den = lp_norm(base, p, schatten)
    if den == 0.0:
        return 1.0
    rows = max(1, _CHUNK_BYTES // deltas[0].nbytes)
    worst = 0.0
    for a in range(0, len(eps), rows):
        v = sum(eps[a:a + rows, c] * delta for c, delta in zip(cols, deltas))
        worst = max(worst, float(lp_norms(v, p, schatten).max(initial=0.0)))
    return worst / den
