"""Spectral fractional derivative and frequency-split products on the torus.

Functions are periodic on [0,1)^d, sampled on R points per axis, with
N x N matrix values (a scalar function is N = 1) that multiply through
``ncspaces.chain``.  The derivative of order s is the Fourier
multiplier |2 pi k|^s with the zero frequency annihilated.  Products
split into three frequency-interaction parts by a smooth dyadic
partition built from a compactly supported radial profile equal to one
on [0,1] and vanishing beyond 2 (exponential bridge in between): the
annulus bump is supported in 1/2 <= |xi| <= 2 and the partition sums
to one on every frequency of the grid, so reconstruction defects come
only from rounding.

The comparable-frequency part has an integral kernel assembled from the
dilated profiles; ``cz_kernel_constant`` estimates its size and
smoothness constants by a running supremum over a deterministic sample
stream (budgets extend the stream, so estimates grow monotonically).
All of this runs on a periodic surrogate of the whole space, so kernel
constants are analogues and the ratio studies are scale comparisons,
not claims about sharp constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ncspaces import chain, conjugate_exponent, holder_exponent, lp_norm


# ---------------------------------------------------------------------------
# torus functions
# ---------------------------------------------------------------------------

class TorusFunction:
    """Periodic grid function with cached Fourier coefficients.

    ``values`` has shape (R,)*d + (N, N); an array of exactly the grid
    shape holds scalars and gets two unit axes appended (N = 1).
    Coefficients follow the FFT layout with integer frequencies in
    [-R/2, R/2) per axis and the convention f(x) = sum_k c_k exp(2 pi i k.x).
    """

    def __init__(self, dim: int, resolution: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape[:dim] != (resolution,) * dim:
            raise ValueError("grid shape mismatch")
        if values.ndim == dim:
            values = values[..., None, None]
        vs = values.shape[dim:]
        if len(vs) != 2 or vs[0] != vs[1]:
            raise ValueError(f"value shape {vs} is not N x N")
        self.dim = dim
        self.resolution = resolution
        self.values = values
        self._coeffs = None

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.values.shape[self.dim:]

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

    def __add__(self, other):
        return TorusFunction(self.dim, self.resolution, self.values + other.values)


@functools.lru_cache(maxsize=4)
def _frequencies(d: int, R: int) -> np.ndarray:
    """|k| of every mode of the (d, R) grid, built once per grid and
    read-only."""
    k1 = np.fft.fftfreq(R) * R
    grids = np.meshgrid(*([k1] * d), indexing="ij")
    r = np.sqrt(sum(g ** 2 for g in grids))
    r.setflags(write=False)
    return r


def _grid(f: TorusFunction, g: TorusFunction) -> tuple[int, int]:
    """The (d, R) grid of f and g, which must share it."""
    if (f.dim, f.resolution) != (g.dim, g.resolution):
        raise ValueError("grids do not match")
    return f.dim, f.resolution


def product(f: TorusFunction, g: TorusFunction) -> TorusFunction:
    """Pointwise product: the matrix values multiply through ``chain``."""
    return TorusFunction(*_grid(f, g), chain([f.values, g.values]))


def random_torus_function(dim: int, resolution: int, band: int, N: int = 1,
                          seed: int = 0) -> TorusFunction:
    """Random band-limited N x N data: coefficients supported in
    |k|_inf <= band."""
    rng = np.random.default_rng(seed)
    vs = (N, N)
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
    r = _frequencies(f.dim, f.resolution)
    mult = np.where(r > 0, (2.0 * np.pi * r) ** s, 0.0)[..., None, None]
    return TorusFunction.from_coeffs(f.dim, f.resolution, f.coeffs * mult)


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
    # 2 - r or r - 1 is at least 1/2, so a + b > 0
    a = _bridge(2.0 - r)
    return a / (a + _bridge(r - 1.0))


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

    def total(self) -> TorusFunction:
        return self.high_low + self.low_high + self.diagonal


def paraproduct_split(f: TorusFunction, g: TorusFunction, s: float) -> ParaproductParts:
    """Split D^s(fg) by frequency interaction.

    Both functions decompose into a mean block plus dyadic annulus
    blocks m = 0..M with M chosen so the partition sums to one on the
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
    d, R = _grid(f, g)
    _, M, windows = _split_windows(d, R)
    fb, gb = _block_values(f, windows), _block_values(g, windows)
    low = np.maximum(np.arange(1, M + 2) - 2, 0)  # prefix end for blocks 1 .. M+1
    hl = chain([fb[1:], np.cumsum(gb, axis=0)[low]]).sum(axis=0)
    lh = chain([np.cumsum(fb, axis=0)[low], gb[1:]]).sum(axis=0)
    near = gb[1:].copy()  # g_{i-1} + g_i + g_{i+1} for i = 1 .. M+1, annuli only
    near[1:] += gb[1:-1]
    near[:-1] += gb[2:]
    dg = chain([fb[0], gb[0]]) + chain([fb[1:], near]).sum(axis=0)
    ds = lambda arr: fractional_derivative(TorusFunction(d, R, arr), s)
    return ParaproductParts(ds(hl), ds(lh), ds(dg))


def _paraproduct_split_pairwise(f: TorusFunction, g: TorusFunction,
                                s: float) -> ParaproductParts:
    """Oracle of ``paraproduct_split``: one product per pair of blocks."""
    d, R = _grid(f, g)
    r, M, _ = _split_windows(d, R)

    def blocks(h: TorusFunction) -> list[TorusFunction]:
        out = []
        mean = np.zeros_like(h.coeffs)
        zero = (0,) * d
        mean[zero] = h.coeffs[zero]
        out.append(TorusFunction.from_coeffs(d, R, mean))
        for m in range(M + 1):
            w = annulus_profile(r / 2.0 ** m)[..., None, None]
            out.append(TorusFunction.from_coeffs(d, R, h.coeffs * w))
        return out

    fb = blocks(f)
    gb = blocks(g)
    zero_shape = (R,) * d + f.value_shape
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
    return ParaproductParts(ds(hl), ds(lh), ds(dg))


@functools.lru_cache(maxsize=4)
def _split_windows(d: int, R: int):
    """What a split needs of the (d, R) grid, built once per grid and
    read-only: (frequency magnitudes r, top annulus M, the windows of the
    mean block and of annuli 0 .. M stacked on the leading axis).  With
    2^M >= max r the windows sum to one on every mode: they telescope to
    [r = 0] + lowpass(r / 2^M) - lowpass(2 r)."""
    r = _frequencies(d, R)
    M = max(0, math.ceil(math.log2(max(float(r.max()), 1.0))))
    windows = np.stack([r == 0] + [annulus_profile(r / 2.0 ** m) for m in range(M + 1)])
    windows.setflags(write=False)
    return r, M, windows


def _block_values(h: TorusFunction, windows: np.ndarray) -> np.ndarray:
    """Values of the blocks of h, one per frequency window (stacked on
    the leading axis), from one inverse FFT."""
    axes = tuple(range(1, h.dim + 1))
    return np.fft.ifftn(h.coeffs * windows[..., None, None] * h.resolution ** h.dim, axes=axes)


# ---------------------------------------------------------------------------
# kernel constants
# ---------------------------------------------------------------------------

@dataclass
class KernelSample:
    """Sampling plan for bilinear kernel constants.

    ``kernel(x, y1, y2)`` evaluates off the diagonal; ``alpha`` is the
    smoothness exponent, ``budget`` the sample count.  Samples are drawn
    from a deterministic stream, so a larger budget extends a smaller
    one.
    """

    kernel: Callable
    alpha: float
    budget: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


def cz_kernel_constant(ks: KernelSample) -> tuple[float, float]:
    """Running-sup estimates of the size and smoothness constants.

    Points lie on the line (dimension one).  Size: sup |K(x)|
    (sum_m |x_1 - x_m|)^2.  Smoothness: sup of the quotient
    |K(x) - K(x')| (sum_m |x_1 - x_m|)^{2 + alpha} /
    |x_j - x_j'|^alpha over single-coordinate moves constrained by
    |x_j - x_j'| <= max_m |x_1 - x_m| / 2.  Both are lower bounds of
    the true suprema, nondecreasing in the budget.  Radii are stratified
    log-uniformly; configurations touching the diagonal are rejected.
    """
    rng = np.random.default_rng(ks.seed)
    n1 = 3  # the points x, y1, y2
    size_c = 0.0
    holder_c = 0.0
    strata = 16
    # three points as Python floats: numpy calls on 3-element arrays would
    # cost more than the arithmetic, and give the same values
    for i in range(ks.budget):
        # log-uniform radius, stratified by sample index
        band = i % strata
        u = (band + rng.uniform()) / strata
        radius = 10.0 ** (-2.0 + 4.0 * u)
        x, y1, y2 = [p * radius for p in rng.uniform(-1.0, 1.0, size=n1).tolist()]
        x += rng.uniform(-1.0, 1.0)  # move the base point around
        shift = x - (y1 + y2) / 2.0  # then center y1 and y2 on it
        y1, y2 = y1 + shift, y2 + shift
        sep = abs(x - y1) + abs(x - y2)
        if sep <= 0:
            continue
        val = ks.kernel(x, y1, y2)
        size_c = max(size_c, abs(val) * sep ** 2)
        # smoothness: perturb one coordinate within the allowed range
        j = int(rng.integers(n1))
        mx = max(abs(x - y1), abs(x - y2))
        frac = 10.0 ** rng.uniform(-2.0, 0.0)
        delta = 0.5 * mx * frac * (1.0 if rng.uniform() < 0.5 else -1.0)
        if delta == 0.0:
            continue
        moved = [x, y1, y2]
        moved[j] += delta
        sep_moved = abs(moved[0] - moved[1]) + abs(moved[0] - moved[2])
        if sep_moved <= 0:
            continue
        val2 = ks.kernel(*moved)
        quot = abs(val - val2) * sep ** (2 + ks.alpha) / abs(delta) ** ks.alpha
        holder_c = max(holder_c, quot)
    return size_c, holder_c


def _doublings(a: float, b: float) -> int:
    """The number of j >= 0 with a 2^j <= b, for a > 0, b > 0, exactly."""
    (f, e), (g, h) = math.frexp(a), math.frexp(b)
    return max(h - e + (f <= g), 0)


class DiagonalKernel:
    """The comparable-frequency kernel of the derivative-of-product split.

    Assembled from profile transforms: with psi the inverse transform
    of the annulus bump and phi_s the order-s derivative of the low-pass
    profile's inverse transform,

        K(x, y1, y2) = sum_m 2^{2m} integral
            phi_s(v - 2^m x) psi(v - 2^m y1) psi(v - 2^m y2) dv

    (dimension one).  The profiles are tabulated on the grid x_k =
    (k - k0) h of [-halfwidth, halfwidth], h = ``table_step`` = 1/64 and
    ``halfwidth`` = 60 = k0 h, by quadrature over the compact frequency
    support: phi_s(x_k) = 2 dxi sum_j w_j cos(2 pi x_k xi_j) on the
    nodes xi_j = j dxi of [0, 2], dxi = 2 / (quad_points - 1), with w_j
    = (2 pi xi_j)^s times the low-pass profile (the annulus bump for
    psi).  As h dxi = 1 / nfft with nfft = 32 (quad_points - 1), each
    table is 2 dxi Re of one length-nfft FFT of the w_j, row k being
    bin (k - k0) mod nfft.

    The scales m run over a window around the scale of the triple; a scale
    whose centers c = 2^m (x, y1, y2) lie more than 2 halfwidth apart is
    dropped.  On every other scale the v-integral is the Riemann sum over
    v_i = lo + i v_step, lo = min c - halfwidth, of the profiles read by
    linear interpolation in the tables and taken as zero off them.

    Evaluation.  ``v_step`` = 1/16 is ``stride`` = 4 table steps, so the
    smallest center reads table nodes, and every other center reads one
    interpolation with the same node shift and fraction at every point
    of the scale.

    * Scales whose largest offset is at most LAGS table steps: a center
      r = n + t table steps above the smallest (n whole, 0 <= t < 1)
      reads T[k - n] - t (T[k - n] - T[k - n - 1]) at node k = stride i,
      so the scale's sum is M00 - tA M10 - tB M01 + tA tB M11, read for
      the lags (nA, nB) of the two other centers from one table of
      moment sums built once.  A term counts where all three reads are
      in the table (k - n - 1 >= 0), so the table sums i = i0 =
      ceil((max(nA, nB) + 1) / stride) .. last, the last point
      included.  A scale takes it only where the float test below
      admits exactly that range.
    * All other scales (a larger offset, or at or above a scale whose
      in-table range is not i0 .. last, which only rounding at the last
      point or next to a whole lag brings about) are segments i =
      start .. stop.  Center j of a segment reads row stride i + a_j
      of a table of (node value, slope) pairs at one fraction f_j, so
      its rows are one contiguous run i + b_j of the rows of residue
      class a_j mod stride.  The tables are split by residue class and
      zero-padded once, under one sliding window view; a call copies
      each center's runs as (segments, 2, W) blocks, interpolates them
      as (1, f_j) @ block, multiplies the three centers and sums each
      segment over its own length with one ``np.add.reduceat``, so the
      padding is never summed.  Positions are taken relative to lo as
      rounded, not min c - halfwidth, as the interpolation of the
      Riemann sum sees them.

    Table ends.  A point counts for a center exactly when the float test
    of the Riemann sum admits it: when (lo + i v_step) - c lies in
    [xs[0], xs[-1]].  Each center's range of i comes from that test, not
    from exact arithmetic: phi_s is still about -1e-5 at the table ends,
    so an end point counted or dropped by mistake moves the sum by far
    more than rounding does.

    ``_naive_terms`` evaluates the Riemann sums scale by scale with
    ``np.interp``, the oracle of the fast path.
    """

    LAGS = 64  # largest lag of the moment table
    halfwidth = 60.0  # a whole number of table steps
    table_step = 1.0 / 64  # h, a power of two: the FFT length below is whole
    stride = 4
    v_step = stride * table_step

    def __init__(self, s: float, quad_points: int = 4000):
        hw, ts, stride = self.halfwidth, self.table_step, self.stride
        xs = np.arange(-hw, hw + ts, ts)
        xi = np.linspace(0.0, 2.0, quad_points)
        dxi = xi[1] - xi[0]
        # cosine transforms of even profiles (trapezoid over the support),
        # one FFT each: h dxi = 1 / nfft and x_k = (k - k0) h, so row k is
        # bin (k - k0) mod nfft, and nfft >= quad_points leaves no fold
        nfft = round((quad_points - 1) / (2.0 * ts))
        k = (np.arange(len(xs)) - round(hw / ts)) % nfft
        tables = np.empty((2, len(xs)))
        for row, w in enumerate(((2.0 * np.pi * xi) ** s * lowpass_profile(xi),
                                 annulus_profile(xi))):
            tables[row] = 2.0 * dxi * np.fft.fft(w, nfft).real[k]
        self.xs = xs
        self.phi_s, self.psi = tables
        # (node value, slope to the next node) per profile, with each end
        # node repeated once: row k + 1 interpolates at table position k + f
        padded = np.pad(tables, ((0, 0), (1, 1)), mode="edge")
        self._lerp = np.stack([padded[:, :-1], np.diff(padded, axis=1)], axis=2)
        # the same rows by residue class mod stride, zero-padded:
        # classes[p, a, :, t] is (value, slope) of _lerp row stride t + a.
        # A segment reads rows stride i + const in 0 .. len(xs), at most
        # _width of them: one run of a class, from t0 <= len(xs) // stride
        self._width = len(xs) // stride + 1
        runs = len(xs) // stride + self._width
        classes = np.zeros((2, runs * stride, 2))
        classes[:, :len(xs) + 1] = self._lerp
        classes = classes.reshape(2, runs, stride, 2).transpose(0, 2, 3, 1).copy()
        self._windows = np.lib.stride_tricks.sliding_window_view(classes, self._width, axis=3)
        # moments (M00, M10, M01, M11)[case, nA, nB]: sums over k = stride i,
        # i = 1 .. last, of S[k] X[k - nA] Y[k - nB], X and Y the value or
        # backward difference of A and B, zero where k - n - 1 < 0; phi_s
        # at S (case 0) or A (case 1), psi elsewhere.  Row lags + j of rows
        # is node j >= 1; blocks of 96 nodes stay below the FFT's memory
        self._last = (len(xs) - 1) // stride
        lags = self.LAGS
        rows = np.zeros((2, lags + len(xs), 2))
        rows[:, lags + 1:] = np.stack([tables[:, 1:], np.diff(tables, axis=1)], axis=2)
        # in reverse node order: windows[p, len(xs) - 1 - k, :, n] is node k - n
        windows = np.lib.stride_tricks.sliding_window_view(rows[:, ::-1], lags + 1, axis=1)
        sums = np.zeros((2, 2 * lags + 2, 2 * lags + 2))
        nodes = stride * np.arange(1, self._last + 1)
        for block in np.split(nodes, range(96, len(nodes), 96)):
            phi, psi = windows[:, len(xs) - 1 - block].reshape(2, len(block), -1)
            sums[0] += (tables[0, block, None] * psi).T @ psi
            sums[1] += (tables[1, block, None] * phi).T @ psi
        # [case, a nA, b nB] -> [case, nA, nB, 2 b + a]
        self._moments = sums.reshape(2, 2, lags + 1, 2, lags + 1).transpose(
            0, 2, 4, 3, 1).reshape(2, lags + 1, lags + 1, 4)
        self._pow2 = 2.0 ** np.arange(40)  # a window spans at most 38 scales

    @staticmethod
    def _window(x: float, y1: float, y2: float) -> tuple[int, int]:
        """First and last scale m of the dyadic sum."""
        scale = max(abs(x - y1), abs(x - y2), abs(y1 - y2))
        if scale == 0.0:
            raise ValueError("kernel evaluated on the diagonal")
        return math.floor(-math.log2(scale)) - 24, math.ceil(-math.log2(scale)) + 12

    def _naive_terms(self, x: float, y1: float, y2: float) -> list[float]:
        """Oracle: the Riemann sum of each scale with ``np.interp``; their
        sum in this order is the kernel.  The grid points of all scales
        are interpolated together, and each scale's points summed alone."""
        m_lo, m_hi = self._window(x, y1, y2)
        lam = np.ldexp(1.0, np.arange(m_lo, m_hi + 1))
        c = np.array([x, y1, y2])[:, None] * lam
        lo, hi = c.min(axis=0), c.max(axis=0)
        keep = hi - lo <= 2.0 * self.halfwidth  # the bumps still overlap
        v = [np.arange(a, b, self.v_step)
             for a, b in zip(lo[keep] - self.halfwidth, hi[keep] + self.halfwidth)]
        sizes = np.array([len(part) for part in v])
        v, (c0, c1, c2) = np.concatenate(v), np.repeat(c[:, keep], sizes, axis=1)
        read = lambda table, c: np.interp(v - c, self.xs, table, left=0.0, right=0.0)
        integrand = read(self.phi_s, c0) * read(self.psi, c1) * read(self.psi, c2)
        ends = np.cumsum(sizes)
        sums = np.array([integrand[a:b].sum() for a, b in zip(ends - sizes, ends)])
        return list(lam[keep] ** 2 * sums * self.v_step)

    def __call__(self, x: float, y1: float, y2: float) -> float:
        m_lo, m_hi = self._window(x, y1, y2)
        hw, vs, ts = self.halfwidth, self.v_step, self.table_step
        p = [x, y1, y2]
        pmin, pmax = min(p), max(p)
        jmin = p.index(pmin)
        # scaling by lam = 2^m is exact, so min c = lam min p and the
        # spread of the centers is lam (max p - min p): a scale whose
        # bumps no longer overlap lies above every kept one, and a
        # closed-form scale below every other
        spread = math.ldexp(pmax - pmin, m_lo)
        n = min(_doublings(spread, 2.0 * hw), m_hi - m_lo + 1)
        nc = min(_doublings(spread / ts, self.LAGS), n)
        lam = math.ldexp(1.0, m_lo) * self._pow2[:n]
        c = lam[:, None] * np.array(p)
        cmin = lam * pmin
        lo = cmin - hw
        d = c - cmin[:, None]

        # in-table range first..last of i for each center: the float test
        # xs[0] <= (lo + i v_step) - c <= xs[-1] itself decides, next to
        # the bounds of exact arithmetic, which are off by at most one
        first = np.ceil(d / vs)
        last = np.floor((self.xs[-1] - self.xs[0] + d) / vs)
        v = (lo[:, None] + np.array([first, first - 1, last, last + 1]) * vs) - c
        first += 1 - (v[:2] >= self.xs[0]).sum(axis=0)
        last += -1 + (v[2:] <= self.xs[-1]).sum(axis=0)
        start = np.maximum(first.max(axis=1), 0).astype(np.intp)
        count = np.ceil((lam * pmax + hw - lo) / vs)  # points of the Riemann sum
        stop = np.minimum(last.min(axis=1), count - 1).astype(np.intp)

        # closed-form scales: lags of the two other centers (A, then B), and
        # the sum over i0 .. last from the moment table, where the float test
        # admits exactly that range (start = i0 = max lag // stride + 1 and
        # stop = last).  From the first scale whose range ends elsewhere,
        # which only rounding at the last point or next to a whole lag
        # brings about, the scales take the segments
        r = d[:nc, (slice(1, 3), slice(0, 3, 2), slice(0, 2))[jmin]] / ts
        lag = np.floor(r).astype(np.intp)
        ok = (start[:nc] == lag.max(axis=1) // self.stride + 1) & (stop[:nc] == self._last)
        nc = nc if ok.all() else int(ok.argmin())
        tA, tB = (r[:nc] - lag[:nc]).T
        m00, m10, m01, m11 = self._moments[int(jmin != 0), lag[:nc, 0], lag[:nc, 1]].T
        sums = np.empty(n)
        sums[:nc] = m00 - tA * m10 - tB * m01 + tA * tB * m11
        lo, cmin = lo[nc:], cmin[nc:]  # the segment scales
        lo_dev = lo - cmin
        lo_err = (cmin - (lo - lo_dev)) + (-hw - lo_dev)  # (min c - hw) - lo, exactly
        sums[nc:] = self._gathered(start[nc:], stop[nc:], (d[nc:] + lo_err[:, None]) / ts)
        return sum((lam ** 2 * sums * vs).tolist())  # in the order of the scales

    def _gathered(self, start: np.ndarray, stop: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Sums over i = start .. stop of each segment; center j of a
        segment reads table position stride i - pos[:, j]."""
        lens = np.maximum(stop - start + 1, 0)
        w = int(lens.max(initial=0))
        if w == 0:
            return np.zeros(len(lens))
        q = np.ceil(pos)
        # _lerp row stride i + 1 - q is row i + b of residue class a; the
        # run of an empty segment may start anywhere
        b, a = np.divmod(1 - q.astype(np.intp), self.stride)
        t0 = np.minimum(np.maximum(start[:, None] + b, 0), self._windows.shape[3] - 1)
        f = np.ones(pos.shape + (1, 2))
        f[..., 0, 1] = q - pos
        # (1, f) @ (value, slope) rows, a product over the centers in order
        prod = f[:, 0] @ self._windows[0][a[:, 0], :, t0[:, 0], :w]
        prod *= f[:, 1] @ self._windows[1][a[:, 1], :, t0[:, 1], :w]
        prod *= f[:, 2] @ self._windows[1][a[:, 2], :, t0[:, 2], :w]
        # each segment over its own length; a segment that ends the buffer
        # sums to its end
        cuts = np.repeat(np.arange(0, len(lens) * w, w), 2)
        cuts[1::2] += lens
        sums = np.add.reduceat(prod.ravel(), cuts[:-1] if lens[-1] == w else cuts)[::2]
        sums[lens == 0] = 0.0
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
    if any(abs(holder_exponent(pair) - q3) > 1e-12 * q3 for pair in ((p1, p2), (r1, r2))):
        raise ValueError("exponents do not satisfy the scaling relation")
    if s <= f.dim:
        raise ValueError("derivative order must exceed the dimension")

    def conj(p):
        # Schatten index dual to the outer exponent; degenerates to the
        # operator norm once the outer exponent reaches 1
        return math.inf if p <= 1.0 else conjugate_exponent(p)

    num = lp_norm(fractional_derivative(product(f, g), s).values, q3, conj(q3))
    den = (lp_norm(fractional_derivative(f, s).values, p1, conj(p1))
           * lp_norm(g.values, p2, conj(p2))
           + lp_norm(f.values, r1, conj(r1))
           * lp_norm(fractional_derivative(g, s).values, r2, conj(r2)))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den
