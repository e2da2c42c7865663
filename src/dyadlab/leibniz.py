"""Spectral fractional derivative and frequency-split products on the torus.

Functions are periodic on [0,1)^d, sampled on R points per axis, with
values scalar or matrix.  The derivative of order s is the Fourier
multiplier |2 pi k|^s with the zero frequency annihilated.  Products
split into three frequency-interaction parts by a smooth dyadic
partition built from a compactly supported radial profile equal to one
on [0,1] and vanishing beyond 2 (exponential bridge in between): the
annulus bump is supported in 1/2 <= |xi| <= 2 and the partition is
exact on every occupied discrete frequency, so reconstruction defects
come only from rounding.

The comparable-frequency part has an integral kernel assembled from the
dilated profiles; ``cz_kernel_constant`` estimates its size and
smoothness constants by a running supremum over a deterministic sample
stream (budgets extend the stream, so estimates grow monotonically).
All of this runs on a periodic surrogate of the whole space, so kernel
constants are analogues and the ratio studies are scale comparisons,
not claims about sharp constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import power_mean
from .ncspaces import value_norms


# ---------------------------------------------------------------------------
# torus functions
# ---------------------------------------------------------------------------

class TorusFunction:
    """Periodic grid function with cached Fourier coefficients.

    ``values`` has shape (R,)*d + value_shape; coefficients follow the
    FFT layout with integer frequencies in [-R/2, R/2) per axis and the
    convention f(x) = sum_k c_k exp(2 pi i k.x).
    """

    def __init__(self, dim: int, resolution: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape[:dim] != (resolution,) * dim:
            raise ValueError("grid shape mismatch")
        self.dim = dim
        self.resolution = resolution
        self.values = values
        self._coeffs = None

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.values.shape[self.dim:]

    @property
    def N(self) -> int:
        vs = self.value_shape
        return 1 if vs == () else vs[-1]

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            axes = tuple(range(self.dim))
            self._coeffs = np.fft.fftn(self.values, axes=axes) / self.resolution ** self.dim
        return self._coeffs

    @classmethod
    def from_coeffs(cls, dim: int, resolution: int, coeffs: np.ndarray) -> "TorusFunction":
        axes = tuple(range(dim))
        vals = np.fft.ifftn(np.asarray(coeffs, dtype=np.complex128) * resolution ** dim,
                            axes=axes)
        out = cls(dim, resolution, vals)
        out._coeffs = np.asarray(coeffs, dtype=np.complex128)
        return out

    def frequencies(self) -> np.ndarray:
        """Integer frequency magnitude |k| on the coefficient grid."""
        R = self.resolution
        k1 = np.fft.fftfreq(R) * R
        grids = np.meshgrid(*([k1] * self.dim), indexing="ij")
        return np.sqrt(sum(g ** 2 for g in grids))

    def __add__(self, other):
        return TorusFunction(self.dim, self.resolution, self.values + other.values)

    def __sub__(self, other):
        return TorusFunction(self.dim, self.resolution, self.values - other.values)

    def __mul__(self, c):
        return TorusFunction(self.dim, self.resolution, self.values * c)

    __rmul__ = __mul__


def product(f: TorusFunction, g: TorusFunction) -> TorusFunction:
    """Pointwise product; matrix values multiply as matrices."""
    if (f.dim, f.resolution) != (g.dim, g.resolution):
        raise ValueError("grids do not match")
    return TorusFunction(f.dim, f.resolution,
                         _multiply(f.values, g.values, f.value_shape, g.value_shape))


def _multiply(fv: np.ndarray, gv: np.ndarray, fvs: tuple, gvs: tuple) -> np.ndarray:
    """Pointwise product of value arrays whose trailing axes hold values of
    shapes fvs and gvs; the leading axes broadcast."""
    if fvs == () and gvs == ():
        return fv * gv
    if fvs == ():
        return fv.reshape(fv.shape + (1,) * len(gvs)) * gv
    if gvs == ():
        return fv * gv.reshape(gv.shape + (1,) * len(fvs))
    if fvs == gvs:
        return fv @ gv
    raise ValueError("value shapes do not match")


def random_torus_function(dim: int, resolution: int, band: int, N: int = 1,
                          seed: int = 0, scalar: bool = False) -> TorusFunction:
    """Random band-limited data: coefficients supported in |k|_inf <= band."""
    rng = np.random.default_rng(seed)
    vs = () if scalar else (N, N)
    shape = (resolution,) * dim + vs
    coeffs = np.zeros(shape, dtype=np.complex128)
    k1 = (np.fft.fftfreq(resolution) * resolution).astype(int)
    sel = np.abs(k1) <= band
    idx = np.ix_(*([np.where(sel)[0]] * dim))
    block = rng.standard_normal((sel.sum(),) * dim + vs) \
        + 1j * rng.standard_normal((sel.sum(),) * dim + vs)
    coeffs[idx] = block
    return TorusFunction.from_coeffs(dim, resolution, coeffs)


def fractional_derivative(f: TorusFunction, s: float) -> TorusFunction:
    """Fourier multiplier |2 pi k|^s; the zero frequency is annihilated."""
    if s < 0:
        raise ValueError("order must be nonnegative")
    r = f.frequencies()
    mult = np.where(r > 0, (2.0 * np.pi * r) ** s, 0.0)
    mult = mult.reshape(mult.shape + (1,) * len(f.value_shape))
    return TorusFunction.from_coeffs(f.dim, f.resolution, f.coeffs * mult)


def lp_schatten_norm(f: TorusFunction, p: float, q: float) -> float:
    """Mixed norm (mean_x |f(x)|_{S^q}^p)^(1/p); p = inf takes the max."""
    flat = f.values.reshape((-1,) + f.value_shape)
    return float(power_mean(value_norms(flat, len(f.value_shape), q), p))


# ---------------------------------------------------------------------------
# smooth dyadic partition
# ---------------------------------------------------------------------------

def _bridge(t):
    """exp(-1/t) glued to zero at t <= 0 (all derivatives vanish at 0)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def lowpass_profile(r):
    """Radial profile: 1 on [0,1], 0 beyond 2, smooth in between."""
    r = np.asarray(r, dtype=float)
    a = _bridge(2.0 - r)
    b = _bridge(r - 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0, a / np.where(a + b > 0, a + b, 1.0), 0.0)
    out = np.where(r <= 1.0, 1.0, out)
    out = np.where(r >= 2.0, 0.0, out)
    return out


def annulus_profile(r):
    """Bump supported in 1/2 <= r <= 2: difference of dilated profiles."""
    r = np.asarray(r, dtype=float)
    return lowpass_profile(r) - lowpass_profile(2.0 * r)


@dataclass
class ParaproductParts:
    """Frequency-split contributions to the derivative of a product."""

    high_low: TorusFunction      # f carries the high frequencies
    low_high: TorusFunction      # g carries the high frequencies
    diagonal: TorusFunction      # comparable frequencies
    partition_defect: float      # max |1 - partition sum| on occupied modes

    def total(self) -> TorusFunction:
        return self.high_low + self.low_high + self.diagonal


def paraproduct_split(f: TorusFunction, g: TorusFunction, s: float) -> ParaproductParts:
    """Split D^s(fg) by frequency interaction.

    Both functions decompose into a mean block plus dyadic annulus
    blocks m = 0..M with M chosen so the partition is exact on the
    grid.  Pairs with block indices at distance >= 2 go to the high-low
    or low-high part (the mean block counts as lowest), pairs within
    distance 1 and the mean-mean pair go to the diagonal part.

    With the mean block as index 0 and annulus m as index m + 1, the
    parts are taken from prefix sums G_t = g_0 + ... + g_t (F_t alike):
    high-low is sum_{i >= 1} f_i G_{max(0, i-2)}, low-high its mirror
    sum_{j >= 1} F_{max(0, j-2)} g_j, and the diagonal part comes from
    its own block products, f_0 g_0 + sum_{i >= 1} f_i (g_{i-1} + g_i +
    g_{i+1}) over the annulus neighbours that exist.  It is never the
    total minus the other two parts, which would make the reconstruction
    of D^s(fg) hold by construction.  All blocks of a function come from
    one inverse FFT and each part from one batched product: 3M + 4
    products instead of (M + 2)^2.  ``_paraproduct_split_pairwise``,
    one product per pair of blocks, is the oracle.
    """
    d, R, r, M, defect = _split_grid(f, g)
    windows = np.stack([r == 0] + [annulus_profile(r / 2.0 ** m) for m in range(M + 1)])
    fb, gb = _block_values(f, windows), _block_values(g, windows)
    fvs, gvs = f.value_shape, g.value_shape
    low = np.maximum(np.arange(1, M + 2) - 2, 0)  # prefix end for blocks 1 .. M+1
    hl = _multiply(fb[1:], np.cumsum(gb, axis=0)[low], fvs, gvs).sum(axis=0)
    lh = _multiply(np.cumsum(fb, axis=0)[low], gb[1:], fvs, gvs).sum(axis=0)
    near = gb[1:].copy()  # g_{i-1} + g_i + g_{i+1} for i = 1 .. M+1, annuli only
    near[1:] += gb[1:-1]
    near[:-1] += gb[2:]
    dg = _multiply(fb[0], gb[0], fvs, gvs) + _multiply(fb[1:], near, fvs, gvs).sum(axis=0)
    ds = lambda arr: fractional_derivative(TorusFunction(d, R, arr), s)
    return ParaproductParts(ds(hl), ds(lh), ds(dg), defect)


def _paraproduct_split_pairwise(f: TorusFunction, g: TorusFunction,
                                s: float) -> ParaproductParts:
    """Oracle of ``paraproduct_split``: one product per pair of blocks."""
    d, R, r, M, defect = _split_grid(f, g)

    def blocks(h: TorusFunction) -> list[TorusFunction]:
        out = []
        mean = np.zeros_like(h.coeffs)
        zero = (0,) * d
        mean[zero] = h.coeffs[zero]
        out.append(TorusFunction.from_coeffs(d, R, mean))
        for m in range(M + 1):
            w = annulus_profile(r / 2.0 ** m)
            w = w.reshape(w.shape + (1,) * len(h.value_shape))
            out.append(TorusFunction.from_coeffs(d, R, h.coeffs * w))
        return out

    fb = blocks(f)
    gb = blocks(g)
    zero_shape = (R,) * d + _product_shape(f, g)
    hl = np.zeros(zero_shape, dtype=np.complex128)
    lh = np.zeros(zero_shape, dtype=np.complex128)
    dg = np.zeros(zero_shape, dtype=np.complex128)
    # index 0 is the mean block (acts as index -inf), annulus m is index m+1
    for i, fpart in enumerate(fb):
        for jdx, gpart in enumerate(gb):
            pv = product(fpart, gpart).values
            if i == 0 and jdx == 0:
                dg += pv
            elif jdx == 0:
                hl += pv
            elif i == 0:
                lh += pv
            elif i - jdx >= 2:
                hl += pv
            elif jdx - i >= 2:
                lh += pv
            else:
                dg += pv
    ds = lambda arr: fractional_derivative(TorusFunction(d, R, arr), s)
    return ParaproductParts(ds(hl), ds(lh), ds(dg), defect)


def _split_grid(f: TorusFunction, g: TorusFunction):
    """Grid of a split: (d, R, frequency magnitudes r, top annulus M,
    partition defect on the modes occupied by f or g)."""
    if (f.dim, f.resolution) != (g.dim, g.resolution):
        raise ValueError("grids do not match")
    d, R = f.dim, f.resolution
    r = f.frequencies()
    rmax = float(r.max())
    M = max(0, math.ceil(math.log2(max(rmax, 1.0))))
    window_sum = lowpass_profile(r / 2.0 ** M)
    occupied = (np.abs(f.coeffs).reshape(r.shape + (-1,)).max(axis=-1) > 0) | \
               (np.abs(g.coeffs).reshape(r.shape + (-1,)).max(axis=-1) > 0)
    defect = float(np.abs(1.0 - window_sum)[occupied].max(initial=0.0))
    return d, R, r, M, defect


def _block_values(h: TorusFunction, windows: np.ndarray) -> np.ndarray:
    """Values of the blocks of h, one per frequency window (stacked on
    the leading axis), from one inverse FFT."""
    windows = windows.reshape(windows.shape + (1,) * len(h.value_shape))
    axes = tuple(range(1, h.dim + 1))
    return np.fft.ifftn(h.coeffs * windows * h.resolution ** h.dim, axes=axes)


def _product_shape(f, g):
    return f.value_shape if f.value_shape != () else g.value_shape


# ---------------------------------------------------------------------------
# kernel constants
# ---------------------------------------------------------------------------

@dataclass
class KernelSample:
    """Sampling plan for kernel constants.

    ``kernel(x, y1, .., yn)`` evaluates off the diagonal; ``alpha`` is
    the smoothness exponent, ``n`` the linearity, ``budget`` the sample
    count.  Samples are drawn from a deterministic stream, so a larger
    budget extends a smaller one.
    """

    kernel: Callable
    alpha: float
    n: int = 2
    budget: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


def cz_kernel_constant(ks: KernelSample) -> tuple[float, float]:
    """Running-sup estimates of the size and smoothness constants.

    Points lie on the line (dimension one).  Size: sup |K(x)|
    (sum_m |x_1 - x_m|)^n.  Smoothness: sup of the quotient
    |K(x) - K(x')| (sum_m |x_1 - x_m|)^{n + alpha} /
    |x_j - x_j'|^alpha over single-coordinate moves constrained by
    |x_j - x_j'| <= max_m |x_1 - x_m| / 2.  Both are lower bounds of
    the true suprema, nondecreasing in the budget.  Radii are stratified
    log-uniformly; configurations touching the diagonal are rejected.
    """
    rng = np.random.default_rng(ks.seed)
    n1 = ks.n + 1
    size_c = 0.0
    holder_c = 0.0
    strata = 16
    for i in range(ks.budget):
        # log-uniform radius, stratified by sample index
        band = i % strata
        u = (band + rng.uniform()) / strata
        radius = 10.0 ** (-2.0 + 4.0 * u)
        pts = rng.uniform(-1.0, 1.0, size=n1) * radius
        pts[0] += rng.uniform(-1.0, 1.0)  # move the base point around
        pts[1:] += pts[0] - np.mean(pts[1:])
        sep = sum(abs(pts[0] - pts[m]) for m in range(1, n1))
        if sep <= 0:
            continue
        val = ks.kernel(*pts)
        size_c = max(size_c, abs(val) * sep ** ks.n)
        # smoothness: perturb one coordinate within the allowed range
        j = int(rng.integers(n1))
        mx = max(abs(pts[0] - pts[m]) for m in range(1, n1))
        frac = 10.0 ** rng.uniform(-2.0, 0.0)
        delta = 0.5 * mx * frac * (1.0 if rng.uniform() < 0.5 else -1.0)
        if delta == 0.0:
            continue
        moved = pts.copy()
        moved[j] += delta
        sep_moved = sum(abs(moved[0] - moved[m]) for m in range(1, n1))
        if sep_moved <= 0:
            continue
        val2 = ks.kernel(*moved)
        quot = abs(val - val2) * sep ** (ks.n + ks.alpha) / abs(delta) ** ks.alpha
        holder_c = max(holder_c, quot)
    return size_c, holder_c


class DiagonalKernel:
    """The comparable-frequency kernel of the derivative-of-product split.

    Assembled from profile transforms: with psi the inverse transform
    of the annulus bump and phi_s the order-s derivative of the low-pass
    profile's inverse transform,

        K(x, y1, y2) = sum_m 2^{2m} integral
            phi_s(v - 2^m x) psi(v - 2^m y1) psi(v - 2^m y2) dv

    (dimension one).  The profiles are tabulated on a grid of step
    ``table_step`` over [-halfwidth, halfwidth] by quadrature over the
    compact frequency support, a block of table rows at a time; on a
    symmetric grid the rows with x > 0 are mirrored from those with x < 0.
    The scales m run over a window around the scale of the triple; a scale
    whose centers c = 2^m (x, y1, y2) lie more than 2 halfwidth apart is
    dropped.  On every other scale the v-integral is the Riemann sum over
    v_i = lo + i v_step, lo = min c - halfwidth, of the profiles read by
    linear interpolation in the tables and taken as zero off them.

    Evaluation.  ``v_step`` is a whole number of table steps, so the
    smallest center reads table nodes, and every other center reads one
    interpolation with the same node shift and fraction at every point
    of the scale.

    * Near-diagonal scales (all centers within one table step): a center
      t table steps above the smallest reads T[k] - t (T[k] - T[k-1]) at
      node k, so the sum over the interior points is exactly
      M00 - tA M10 - tB M01 + tA tB M11, with four moment sums for each
      profile that can sit at the smallest center, computed once.
    * All other scales, and the two end points of near-diagonal ones:
      one gather of node values and slopes for all their points at once.
      Positions are taken relative to lo as rounded, not min c -
      halfwidth, as the interpolation of the Riemann sum sees them.

    Table ends.  A point counts for a center exactly when the float test
    of the Riemann sum admits it: when (lo + i v_step) - c lies in
    [xs[0], xs[-1]].  Each center's range of i comes from that test, not
    from exact arithmetic: phi_s is still about -1e-5 at the table ends,
    so an end point counted or dropped by mistake moves the sum by far
    more than rounding does.

    ``_naive_terms`` evaluates the Riemann sums scale by scale with
    ``np.interp``, the oracle of the fast path.
    """

    _TABLE_ROWS = 512  # rows of the cosine matrix built at a time

    def __init__(self, s: float, halfwidth: float = 60.0, table_step: float = 1.0 / 64,
                 quad_points: int = 4000, v_step: float = 1.0 / 16):
        stride = round(v_step / table_step)
        if stride < 2 or stride * table_step != v_step:
            raise ValueError("v_step must be a whole number (at least 2) of table steps")
        self.s = s
        self.halfwidth = halfwidth
        self.table_step = table_step
        self.v_step = v_step
        self.stride = stride
        xs = np.arange(-halfwidth, halfwidth + table_step, table_step)
        xi = np.linspace(0.0, 2.0, quad_points)
        wphi = (2.0 * np.pi * xi) ** s * lowpass_profile(xi)
        wpsi = annulus_profile(xi)
        dxi = xi[1] - xi[0]
        # cosine transforms of even profiles (trapezoid over the support);
        # each row is summed alone, so the blocks do not change any bit.
        # When xs is symmetric (xs[::-1] == -xs) the row of -x negates every
        # cosine argument of the row of x, and cos is even bit for bit, so
        # the rows with x <= 0 are built and mirrored
        n = len(xs)
        half = (n + 1) // 2 if np.array_equal(xs[::-1], -xs) else n
        tables = np.empty((2, n))
        for start in range(0, half, self._TABLE_ROWS):
            rows = slice(start, min(start + self._TABLE_ROWS, half))
            cosmat = np.cos(2.0 * np.pi * np.outer(xs[rows], xi))
            tables[0, rows] = 2.0 * (cosmat * wphi).sum(axis=1) * dxi
            tables[1, rows] = 2.0 * (cosmat * wpsi).sum(axis=1) * dxi
        if half < n:
            tables[:, half:] = tables[:, n - 1 - half::-1]
        self.xs = xs
        self.phi_s, self.psi = tables
        # (node value, slope to the next node) per profile, with each end
        # node repeated once: row k + 1 interpolates at table position k + f
        padded = np.pad(tables, ((0, 0), (1, 1)), mode="edge")
        self._lerp = np.stack([padded[:, :-1], np.diff(padded, axis=1)], axis=2)
        # moment sums over the interior points i = 1 .. last - 1 of a
        # near-diagonal scale; node k = stride i, D the backward difference
        self._last = (len(xs) - 1) // stride
        k = stride * np.arange(1, self._last)
        phi, psi = tables[:, k]
        dphi, dpsi = tables[:, k] - tables[:, k - 1]
        self._moments = np.array([
            # phi_s at the smallest center; A and B are the two psi centers
            [np.sum(phi * psi * psi), np.sum(phi * dpsi * psi),
             np.sum(phi * psi * dpsi), np.sum(phi * dpsi * dpsi)],
            # psi at the smallest center; A is the phi_s center, B the psi one
            [np.sum(psi * phi * psi), np.sum(psi * dphi * psi),
             np.sum(psi * phi * dpsi), np.sum(psi * dphi * dpsi)]])

    @staticmethod
    def _window(x: float, y1: float, y2: float) -> tuple[int, int]:
        """First and last scale m of the dyadic sum."""
        scale = max(abs(x - y1), abs(x - y2), abs(y1 - y2))
        if scale == 0.0:
            raise ValueError("kernel evaluated on the diagonal")
        return math.floor(-math.log2(scale)) - 24, math.ceil(-math.log2(scale)) + 12

    def _phi(self, x):
        return np.interp(x, self.xs, self.phi_s, left=0.0, right=0.0)

    def _psi(self, x):
        return np.interp(x, self.xs, self.psi, left=0.0, right=0.0)

    def _naive_terms(self, x: float, y1: float, y2: float) -> list[float]:
        """Oracle: the Riemann sum of each scale with ``np.interp``; their
        sum in this order is the kernel."""
        pts = np.array([x, y1, y2])
        m_lo, m_hi = self._window(x, y1, y2)
        terms = []
        for m in range(m_lo, m_hi + 1):
            lam = 2.0 ** m
            centers = lam * pts
            if centers.max() - centers.min() > 2.0 * self.halfwidth:
                continue  # bumps no longer overlap
            lo = centers.min() - self.halfwidth
            hi = centers.max() + self.halfwidth
            v = np.arange(lo, hi, self.v_step)
            integrand = self._phi(v - centers[0]) * self._psi(v - centers[1]) \
                * self._psi(v - centers[2])
            terms.append(lam ** 2 * integrand.sum() * self.v_step)
        return terms

    def __call__(self, x: float, y1: float, y2: float) -> float:
        m_lo, m_hi = self._window(x, y1, y2)
        hw, vs, ts = self.halfwidth, self.v_step, self.table_step
        lam = np.ldexp(1.0, np.arange(m_lo, m_hi + 1))
        c = lam[:, None] * np.array([x, y1, y2], dtype=float)
        cmin, cmax = c.min(axis=1), c.max(axis=1)
        keep = ~(cmax - cmin > 2.0 * hw)  # the bumps still overlap
        lam, c, cmin, cmax = lam[keep], c[keep], cmin[keep], cmax[keep]
        lo = cmin - hw
        count = np.ceil((cmax + hw - lo) / vs)  # points of the Riemann sum
        d = c - cmin[:, None]
        r = d / ts  # offset of each center above the smallest, in table steps

        # in-table range first..last of i for each center: the float test
        # xs[0] <= (lo + i v_step) - c <= xs[-1] itself decides, next to
        # the bounds of exact arithmetic, which are off by at most one
        lo2 = lo[:, None]
        first = np.ceil(d / vs)
        first += 1 - ((lo2 + first * vs) - c >= self.xs[0]) \
            - ((lo2 + (first - 1) * vs) - c >= self.xs[0])
        last = np.floor((self.xs[-1] - self.xs[0] + d) / vs)
        last += -1 + ((lo2 + last * vs) - c <= self.xs[-1]) \
            + ((lo2 + (last + 1) * vs) - c <= self.xs[-1])
        start = np.maximum(first.max(axis=1), 0).astype(np.intp)
        stop = np.minimum(last.min(axis=1), count - 1).astype(np.intp)

        sums = np.zeros(len(lam))
        near = r.max(axis=1) <= 1.0
        sums[near] = self._near_interior(c[near], r[near])
        # gathered: whole far scales, then the end points of near ones
        far_s, near_s = np.flatnonzero(~near), np.flatnonzero(near)
        seg = np.concatenate([far_s, near_s, near_s])
        seg_start = np.concatenate([start[far_s], start[near_s],
                                    np.maximum(start[near_s], self._last)])
        seg_stop = np.concatenate([stop[far_s], np.minimum(stop[near_s], 0), stop[near_s]])
        lo_dev = lo - cmin
        lo_err = (cmin - (lo - lo_dev)) + (-hw - lo_dev)  # (min c - hw) - lo, exactly
        np.add.at(sums, seg, self._gathered(seg_start, seg_stop, (d + lo_err[:, None])[seg] / ts))
        return sum((lam ** 2 * sums * vs).tolist())  # in the order of the scales

    def _near_interior(self, c: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Sums over i = 1 .. last - 1 of near-diagonal scales (rows of
        centers c and offsets r <= 1 in table steps), in closed form."""
        jmin = c.argmin(axis=1)
        rows = np.arange(len(c))
        tA = np.where(jmin == 0, r[:, 1], r[:, 0])
        tB = r[rows, np.where(jmin == 2, 1, 2)]
        M = self._moments[(jmin != 0).astype(np.intp)]
        return M[:, 0] - tA * M[:, 1] - tB * M[:, 2] + tA * tB * M[:, 3]

    def _gathered(self, start: np.ndarray, stop: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Sums over i = start .. stop of each segment; center j of a
        segment reads table position stride i - pos[:, j]."""
        lens = np.maximum(stop - start + 1, 0)
        offs = np.cumsum(lens) - lens
        q = np.ceil(pos).astype(np.intp)
        frac = q - pos
        # padded table row of each point: stride (i - offs) + stride start + 1 - q
        base = self.stride * np.arange(lens.sum())
        shift = self.stride * (start - offs)[:, None] + 1 - q
        prod = 1.0
        for j, profile in enumerate((0, 1, 1)):
            g = self._lerp[profile].take(base + np.repeat(shift[:, j], lens), axis=0)
            prod = prod * (g[:, 0] + np.repeat(frac[:, j], lens) * g[:, 1])
        sums = np.zeros(len(lens))
        nz = lens > 0
        if nz.any():
            sums[nz] = np.add.reduceat(prod, offs[nz])
        return sums


# ---------------------------------------------------------------------------
# ratio studies
# ---------------------------------------------------------------------------

def leibniz_ratio(f: TorusFunction, g: TorusFunction, s: float,
                  exponents: Sequence[float]) -> float:
    """Derivative-of-product norm over the two cross terms.

    ``exponents`` is (p1, p2, q3, r1, r2) with 1/q3 = 1/p1 + 1/p2 =
    1/r1 + 1/r2, all inner exponents in (1, inf], q3 in (1/2, inf), and
    s > d.  Schatten indices are the conjugates of the outer exponents.
    """
    p1, p2, q3, r1, r2 = [float(p) for p in exponents]
    for p in (p1, p2, r1, r2):
        if not 1.0 < p:
            raise ValueError("inner exponents must exceed 1")
    if not 0.5 < q3 < math.inf:
        raise ValueError("target exponent out of range")
    inv = lambda p: 0.0 if math.isinf(p) else 1.0 / p
    if abs(inv(p1) + inv(p2) - 1.0 / q3) > 1e-12 or abs(inv(r1) + inv(r2) - 1.0 / q3) > 1e-12:
        raise ValueError("exponents do not satisfy the scaling relation")
    if s <= f.dim:
        raise ValueError("derivative order must exceed the dimension")
    from .ncspaces import conjugate_exponent

    def conj(p):
        # Schatten index dual to the outer exponent; degenerates to the
        # operator norm once the outer exponent reaches 1
        return math.inf if p <= 1.0 else conjugate_exponent(p)

    num = lp_schatten_norm(fractional_derivative(product(f, g), s), q3, conj(q3))
    den = (lp_schatten_norm(fractional_derivative(f, s), p1, conj(p1))
           * lp_schatten_norm(g, p2, conj(p2))
           + lp_schatten_norm(f, r1, conj(r1))
           * lp_schatten_norm(fractional_derivative(g, s), r2, conj(r2)))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den
