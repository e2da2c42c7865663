import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dyadlab import cli
from dyadlab import leibniz as lb
from dyadlab import ncspaces as nc

EXPS = (4.0, 4.0, 2.0, 4.0, 4.0)


def test_plancherel():
    f = lb.random_torus_function(1, 64, band=10, seed=1)
    grid = float(np.mean(np.abs(f.values) ** 2))
    spec = float((np.abs(f.coeffs) ** 2).sum())
    assert abs(grid - spec) < 1e-10


def test_fft_roundtrip_identity():
    f = lb.random_torus_function(2, 16, band=4, N=2, seed=2)
    again = lb.TorusFunction.from_coeffs(2, 16, f.coeffs)
    assert np.abs(again.values - f.values).max() < 1e-10


def test_derivative_single_frequency():
    R = 64
    x = np.arange(R) / R
    f = lb.TorusFunction(1, R, np.cos(2 * np.pi * x)[:, None, None])
    df = lb.fractional_derivative(f, 1.0)
    assert np.abs(df.values[:, 0, 0] - 2 * np.pi * np.cos(2 * np.pi * x)).max() < 1e-9


def test_derivative_annihilates_constants():
    f = lb.TorusFunction(1, 32, np.full((32, 1, 1), 5.0))
    assert np.abs(lb.fractional_derivative(f, 0.7).values).max() == 0.0


def test_derivative_composes():
    f = lb.random_torus_function(1, 64, band=6, seed=3)
    coeffs = f.coeffs.copy()
    coeffs[0] = 0.0
    f = lb.TorusFunction.from_coeffs(1, 64, coeffs)
    lhs = lb.fractional_derivative(lb.fractional_derivative(f, 0.7), 1.3)
    rhs = lb.fractional_derivative(f, 2.0)
    assert np.abs(lhs.values - rhs.values).max() / np.abs(rhs.values).max() < 1e-9


def test_derivative_rejects_negative_order():
    f = lb.random_torus_function(1, 16, band=2)
    with pytest.raises(ValueError):
        lb.fractional_derivative(f, -0.5)


def test_derivative_commutes_with_translation():
    f = lb.random_torus_function(1, 64, band=8, seed=4)
    shifted = lb.TorusFunction(1, 64, np.roll(f.values, 5, axis=0))
    a = lb.fractional_derivative(shifted, 1.5).values
    b = np.roll(lb.fractional_derivative(f, 1.5).values, 5, axis=0)
    assert np.abs(a - b).max() < 1e-9


def test_profiles():
    assert lb.lowpass_profile(0.5) == 1.0
    assert lb.lowpass_profile(2.5) == 0.0
    assert 0.0 < lb.lowpass_profile(1.5) < 1.0
    # the ends of the transition band, and their neighbours inside it, where
    # exp(-1/t) underflows to 0
    for r in (1.0, np.nextafter(1.0, 2.0)):
        assert lb.lowpass_profile(r) == 1.0
    for r in (2.0, np.nextafter(2.0, 1.0)):
        assert lb.lowpass_profile(r) == 0.0
    r = np.linspace(0.0, 3.0, 301)
    psi = lb.annulus_profile(r)
    assert np.all(psi[r < 0.5] == 0.0)
    assert np.all(psi[r > 2.0] == 0.0)


def test_split_constant_second_factor():
    f = lb.random_torus_function(1, 128, band=20, seed=5)
    one = lb.TorusFunction(1, 128, np.ones((128, 1, 1)))
    parts = lb.paraproduct_split(f, one, 1.5)
    ds = lb.fractional_derivative(f, 1.5)
    assert np.abs(parts.low_high.values).max() < 1e-12
    assert np.abs(parts.diagonal.values).max() < 1e-12
    assert np.abs(parts.high_low.values - ds.values).max() < 1e-9 * np.abs(ds.values).max()


def test_split_separated_frequencies():
    c1 = np.zeros((256, 1, 1), dtype=complex)
    c1[1] = 1.0
    c64 = np.zeros((256, 1, 1), dtype=complex)
    c64[64] = 1.0
    f = lb.TorusFunction.from_coeffs(1, 256, c1)
    g = lb.TorusFunction.from_coeffs(1, 256, c64)
    parts = lb.paraproduct_split(f, g, 1.5)
    assert np.abs(parts.high_low.values).max() < 1e-12
    assert np.abs(parts.diagonal.values).max() < 1e-12
    assert np.abs(parts.low_high.values).max() > 1.0


def test_split_reconstruction_banded(rng):
    for seed in range(5):
        f = lb.random_torus_function(1, 256, band=40, N=2, seed=seed)
        g = lb.random_torus_function(1, 256, band=40, N=2, seed=seed + 100)
        parts = lb.paraproduct_split(f, g, 1.5)
        full = lb.fractional_derivative(lb.product(f, g), 1.5)
        defect = np.abs(parts.total().values - full.values).max()
        assert defect / np.abs(full.values).max() < 1e-6


@pytest.mark.parametrize("d, R", [(1, 2), (1, 256), (1, 1000), (2, 30), (3, 16)])
def test_split_windows_sum_to_one_on_every_mode(d, R):
    # the mean indicator and the annuli 0 .. M telescope to one on the grid
    r, M, windows = lb._split_windows(d, R)
    assert windows.shape == (M + 2,) + r.shape and 2.0 ** M >= r.max()
    assert np.abs(windows.sum(axis=0) - 1.0).max() <= 1e-15


def _torus_function(d, R, kind, seed):
    """Random 2 x 2 data, or a random scalar function times the 2 x 2
    identity: a scalar in the matrix algebra."""
    band = max(1, R // 4)
    if kind == "matrix":
        return lb.random_torus_function(d, R, band=band, N=2, seed=seed)
    return lb.TorusFunction(d, R, lb.random_torus_function(d, R, band=band, seed=seed).values
                            * np.eye(2))


@pytest.mark.parametrize("d, R, f_kind, g_kind", [
    (1, 256, "matrix", "matrix"),
    (2, 32, "matrix", "matrix"),
    (1, 128, "scalar", "matrix"),
    (2, 16, "matrix", "scalar"),
    (1, 2, "matrix", "matrix"),    # M = 0: the mean block and one annulus
])
def test_split_matches_the_pairwise_oracle(d, R, f_kind, g_kind):
    for seed in range(3):
        f, g = [_torus_function(d, R, kind, 10 * seed + i)
                for i, kind in enumerate((f_kind, g_kind))]
        fast, oracle = lb.paraproduct_split(f, g, 1.5), lb._paraproduct_split_pairwise(f, g, 1.5)
        for part in ("high_low", "low_high", "diagonal"):
            a, b = getattr(fast, part).values, getattr(oracle, part).values
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_products_reject_a_scalar_by_matrix_product():
    # values multiply as matrices only: a 1 x 1 value, also one made from
    # grid-shaped values, does not scale a 2 x 2 one
    one = lb.random_torus_function(1, 16, band=2, N=1, seed=1)
    g = lb.random_torus_function(1, 16, band=2, N=2, seed=2)
    for f in (one, lb.TorusFunction(1, 16, one.values[:, 0, 0])):
        for multiply in (lb.product, lambda f, g: lb.paraproduct_split(f, g, 1.5)):
            with pytest.raises(ValueError, match="cannot multiply"):
                multiply(f, g)


def test_grid_shaped_torus_values_are_scalars():
    # read as 1 x 1 matrices, not as one matrix over the grid axes
    f = lb.random_torus_function(1, 16, band=2, N=1, seed=1)
    g = lb.TorusFunction(1, 16, f.values[:, 0, 0])
    assert g.value_shape == (1, 1) and np.array_equal(g.values, f.values)
    assert nc.lp_norm(g.values, 3.0, 2.0) == nc.lp_norm(f.values, 3.0, 2.0)
    for vs in [(3,), (2, 3), (1, 2, 2)]:
        with pytest.raises(ValueError, match="is not N x N"):
            lb.TorusFunction(1, 16, np.zeros((16,) + vs))


def test_split_diagonal_of_weakly_overlapping_frequencies():
    # f low, g high, plus a weak overlap: the diagonal part is 1e-6 of the
    # product, so it must come from its own blocks to match at 1e-12
    cf = np.zeros((256, 1, 1), dtype=complex)
    cf[[1, 2, 3], 0, 0] = [1.0, 0.5, 0.25]
    cg = np.zeros((256, 1, 1), dtype=complex)
    cg[[60, 70], 0, 0] = [1.0, -0.5]
    cg[2] = 1e-6
    f, g = lb.TorusFunction.from_coeffs(1, 256, cf), lb.TorusFunction.from_coeffs(1, 256, cg)
    fast, oracle = lb.paraproduct_split(f, g, 1.5), lb._paraproduct_split_pairwise(f, g, 1.5)
    diag = np.abs(oracle.diagonal.values).max()
    assert 0 < diag < 1e-5 * np.abs(oracle.low_high.values).max()
    assert np.abs(fast.diagonal.values - oracle.diagonal.values).max() <= 1e-12 * diag


def test_split_windows_are_built_once_per_grid(monkeypatch):
    calls = []
    profile = lb.lowpass_profile
    monkeypatch.setattr(lb, "lowpass_profile", lambda r: calls.append(1) or profile(r))
    lb._split_windows.cache_clear()
    f = lb.random_torus_function(1, 64, band=8, N=2, seed=1)
    g = lb.random_torus_function(1, 64, band=8, N=2, seed=2)
    lb.paraproduct_split(f, g, 1.5)
    built = len(calls)
    lb.paraproduct_split(g, f, 1.5)
    assert len(calls) == built > 0
    r, M, windows = lb._split_windows(1, 64)
    assert not any(a.flags.writeable for a in (r, windows))
    # the frequency magnitudes too, which fractional_derivative also reads
    assert r is lb._frequencies(1, 64)


def test_reconstruction_check_sees_a_broken_partition(monkeypatch, request):
    # annulus blocks that no longer sum to the function: the three parts
    # must stop adding up to D^s(fg)
    from dyadlab import criteria as cr
    f = lb.random_torus_function(1, 256, band=32, N=2, seed=1)
    g = lb.random_torus_function(1, 256, band=32, N=2, seed=2)
    assert cr.reconstruction_defect(f, g, 1.5) < cr.RECONSTRUCTION_TOL
    profile = lb.annulus_profile
    monkeypatch.setattr(lb, "annulus_profile", lambda r: 0.9 * profile(r))
    # windows are built once per grid: drop those of the true profile now
    # and the broken ones when the test ends
    lb._split_windows.cache_clear()
    request.addfinalizer(lb._split_windows.cache_clear)
    assert cr.reconstruction_defect(f, g, 1.5) > 1e3 * cr.RECONSTRUCTION_TOL


def test_leibniz_ratio_single_frequency_closed_form():
    for k, s in ((1, 1.5), (3, 1.5), (2, 2.0)):
        c = np.zeros((128, 1, 1), dtype=complex)
        c[k] = 1.0
        f = lb.TorusFunction.from_coeffs(1, 128, c)
        ratio = lb.leibniz_ratio(f, f, s, EXPS)
        assert abs(ratio - 2.0 ** (s - 1)) < 1e-9


@pytest.mark.parametrize("d, R, N, scalar, q, p", [
    (1, 64, 2, False, 4.0 / 3.0, 4.0),
    (2, 16, 3, False, 3.0, 1.5),
    (1, 128, 1, True, 2.0, math.inf),
])
def test_lp_norms_rows_equal_lp_norm_of_torus_functions(d, R, N, scalar, q, p):
    fs = [lb.random_torus_function(d, R, band=4, N=N, seed=s) for s in range(16)]
    rows = nc.lp_norms(np.stack([f.values for f in fs]), p, q)
    assert rows.shape == (16,)
    for f, row in zip(fs, rows):
        single = nc.lp_norm(f.values, p, q)
        assert type(single) is float and single == row
        # a scalar (1 x 1) value's norm is its modulus
        norms = np.abs(f.values).ravel() if scalar else nc.schatten_norms(f.values, q).ravel()
        ref = norms.max() if math.isinf(p) else np.mean(norms ** p) ** (1.0 / p)
        assert single == pytest.approx(float(ref), rel=1e-14)


def test_leibniz_ratio_identity_second_factor():
    N = 2
    f = lb.random_torus_function(1, 128, band=16, N=N, seed=6)
    eye = lb.TorusFunction(1, 128, np.broadcast_to(np.eye(N), (128, N, N)).copy())
    ratio = lb.leibniz_ratio(f, eye, 1.5, EXPS)
    # the denominator already contains |D^s f| |I| with the dual indices
    eye_norm = nc.lp_norm(eye.values, 4.0, 4.0 / 3.0)
    assert ratio <= 1.0 / eye_norm + 1e-12


def test_leibniz_ratio_homogeneous(rng):
    f = lb.random_torus_function(1, 128, band=16, N=2, seed=7)
    g = lb.random_torus_function(1, 128, band=16, N=2, seed=8)
    r1 = lb.leibniz_ratio(f, g, 1.5, EXPS)
    r2 = lb.leibniz_ratio(lb.TorusFunction(1, 128, 17.0 * f.values), g, 1.5, EXPS)
    assert abs(r1 - r2) < 1e-10


def test_leibniz_ratio_validates():
    f = lb.random_torus_function(1, 64, band=8)
    with pytest.raises(ValueError):
        lb.leibniz_ratio(f, f, 1.5, (4.0, 4.0, 3.0, 4.0, 4.0))
    with pytest.raises(ValueError):
        lb.leibniz_ratio(f, f, 0.5, EXPS)


def test_kernel_constant_definitional_kernel():
    ks = lb.KernelSample(kernel=lambda x, y1, y2: (abs(x - y1) + abs(x - y2)) ** -2.0,
                         alpha=0.25, budget=400, seed=1)
    size_c, holder_c = lb.cz_kernel_constant(ks)
    assert size_c == pytest.approx(1.0, abs=1e-9)
    assert holder_c > 0.0


def test_kernel_constant_zero_kernel():
    ks = lb.KernelSample(kernel=lambda x, y1, y2: 0.0, alpha=0.5, budget=50, seed=1)
    assert lb.cz_kernel_constant(ks) == (0.0, 0.0)


def test_kernel_constant_monotone_in_budget():
    kern = lambda x, y1, y2: (abs(x - y1) + abs(x - y2)) ** -2.0 \
        * math.sin(1.0 + x - y1)
    sizes = []
    holders = []
    for budget in (50, 200, 800):
        ks = lb.KernelSample(kernel=kern, alpha=0.25, budget=budget, seed=2)
        s, h = lb.cz_kernel_constant(ks)
        sizes.append(s)
        holders.append(h)
    assert sizes == sorted(sizes)
    assert holders == sorted(holders)


def test_diagonal_kernel_scaling_and_stability():
    dk = lb.DiagonalKernel(1.5)
    v1 = dk(0.0, 0.3, 0.45)
    v2 = dk(0.0, 0.6, 0.9)
    # exact dyadic 2-homogeneity of the scale sum
    assert v1 == pytest.approx(4.0 * v2, rel=1e-9)
    with pytest.raises(ValueError):
        dk(0.2, 0.2, 0.2)


@pytest.fixture(scope="module")
def kernel():
    return lb.DiagonalKernel(1.5)


def _kernel(halfwidth, s=1.5, quad_points=4000):
    """A DiagonalKernel whose tables reach +-halfwidth: the class itself at
    its own halfwidth, else a subclass that sets the constant."""
    cls = lb.DiagonalKernel
    if halfwidth != cls.halfwidth:
        cls = type("ShortKernel", (cls,), {"halfwidth": halfwidth})
    return cls(s, quad_points=quad_points)


def _sampler_triples(count, seed):
    """Triples like cz_kernel_constant's samples: radii log-uniform in
    [1e-2, 1e2], a base point x moved in [-1, 1], and y1, y2 centered on
    x.  Unlike those, they are not stratified by radius, and none is
    moved as the smoothness quotients move them
    (``_kernel_const_triples`` has both)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        radius = 10.0 ** (-2.0 + 4.0 * rng.uniform())
        pts = rng.uniform(-1.0, 1.0, size=3) * radius
        pts[0] += rng.uniform(-1.0, 1.0)
        pts[1:] += pts[0] - np.mean(pts[1:])
        out.append(tuple(pts))
    return out


def _kernel_const_triples(kernel):
    """Every distinct triple the default kernel-const run evaluates, in
    call order: the stratified samples of each budget and their moved
    copies, most of which are not midpoint-centered.  Recorded from
    cz_kernel_constant's calls to ``kernel``, which must be
    DiagonalKernel(s) at the default s."""
    config = cli.DEFAULTS["kernel-const"]
    assert config["s"] == 1.5
    calls = []

    def recorded(*t):
        calls.append(t)
        return kernel(*t)

    for budget in config["budgets"]:
        lb.cz_kernel_constant(lb.KernelSample(kernel=recorded, alpha=(config["s"] - 1.0) / 2.0,
                                              budget=budget, seed=config["seed"]))
    return list(dict.fromkeys(calls))


def _tie_and_order_triples():
    triples = []
    for x, y in ((0.3, 0.45), (-0.71, -0.7), (0.1, 25.0), (1e-3, -2e-3)):
        triples += [(x, x, y), (x, y, x), (x, y, y)]
    # each of x, y1 and y2 as the smallest and as the largest center
    for pts in _sampler_triples(20, seed=8):
        triples += list(itertools.permutations(pts))
    return triples


def _table_end_triples(count, seed):
    """Triples with x at one end, 57/256 to 63/256 from y1 and y2.  At
    m = 8 the centers of y1 and y2 sit within 3 of the middle of the bump
    of x, a grid point lies exactly on the end of the table for x, and
    the rounding of lo decides whether it counts.  As the smallest center
    x reads table nodes; as the largest it is a whole number of grid
    steps above y2 (dyadic offsets, checked exact)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        # the smallest point lies in [0.05, 0.117): 2^8 times it lies in
        # [12.8, 30), and minus 60 in a coarser binade, so lo is rounded
        delta, eps = rng.integers(57, 64) / 256.0, rng.integers(2) / 1024.0
        b = rng.uniform(0.0625, 0.117)
        out.append((b, b + delta, b + delta + eps))
        b = rng.uniform(0.3, 0.35)
        y1, y2 = b - delta, b - delta - eps
        assert (b - y1, b - y2) == (delta, delta + eps)
        out += [(b, y1, y2), (b, y1, b + delta)]
    return out


def _assert_matches_oracle(kernel, triples):
    """The fast path against the per-scale oracle at 1e-12, relative to the
    sum of the absolute scale terms: |K| itself unless scales cancel, and
    the size that rounding in either evaluation is relative to."""
    worst, where = 0.0, None
    for t in triples:
        terms = kernel._naive_terms(*t)
        dev = abs(kernel(*t) - sum(terms)) / np.abs(terms).sum()
        if dev > worst:
            worst, where = dev, t
    assert worst <= 1e-12, f"relative deviation {worst:.2e} at {where}"


def _per_scale_terms(kernel, x, y1, y2):
    """The oracle's scale terms, one scale at a time."""
    pts = np.array([x, y1, y2])
    m_lo, m_hi = kernel._window(x, y1, y2)
    terms = []
    for m in range(m_lo, m_hi + 1):
        lam = 2.0 ** m
        centers = lam * pts
        if centers.max() - centers.min() > 2.0 * kernel.halfwidth:
            continue  # bumps no longer overlap
        v = np.arange(centers.min() - kernel.halfwidth, centers.max() + kernel.halfwidth,
                      kernel.v_step)
        read = lambda table, c: np.interp(v - c, kernel.xs, table, left=0.0, right=0.0)
        integrand = read(kernel.phi_s, centers[0]) * read(kernel.psi, centers[1]) \
            * read(kernel.psi, centers[2])
        terms.append(lam ** 2 * integrand.sum() * kernel.v_step)
    return terms


@pytest.mark.parametrize("halfwidth", [60.0, 3.0])
def test_oracle_terms_equal_the_per_scale_loop(halfwidth):
    # the oracle interpolates all scales at once; each scale term is the
    # loop's to the bit
    k = _kernel(halfwidth)
    for t in _tie_and_order_triples()[::8] + _table_end_triples(4, seed=12):
        got, want = k._naive_terms(*t), _per_scale_terms(k, *t)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_diagonal_kernel_matches_oracle_on_sampled_triples(kernel):
    _assert_matches_oracle(kernel, _sampler_triples(2000, seed=7))


def test_diagonal_kernel_matches_oracle_on_kernel_const_triples(kernel):
    _assert_matches_oracle(kernel, _kernel_const_triples(kernel))


def test_diagonal_kernel_matches_oracle_on_ties_and_orders(kernel):
    _assert_matches_oracle(kernel, _tie_and_order_triples())


def test_diagonal_kernel_matches_oracle_at_table_ends(kernel):
    _assert_matches_oracle(kernel, _table_end_triples(40, seed=9))


def test_diagonal_kernel_matches_oracle_on_a_short_table():
    # both profiles are still a few percent of their peak at +-3, so the
    # end points of every scale weigh in the sums
    short = _kernel(3.0)
    _assert_matches_oracle(short, _sampler_triples(500, seed=10)
                           + _tie_and_order_triples() + _table_end_triples(40, seed=11))


def test_diagonal_kernel_matches_oracle_below_the_lag_cap():
    # a table of 65 nodes, too short for the closed form's LAGS: the
    # longest lags of the moment table are empty sums, and their scales
    # take the segments
    short = _kernel(0.5)
    assert len(short.xs) == short.LAGS + 1
    _assert_matches_oracle(short, _sampler_triples(300, seed=14))


def _lag_triples(kernel):
    """Triples whose scale m = 0 has its largest offset exactly 1, LAGS,
    LAGS -+ 2^-20 or a whole number of table steps (t = 0), the middle
    center at a whole or a fractional lag, and each of x, y1 and y2 as
    the smallest center (dyadic offsets, checked exact)."""
    ts, lags = kernel.table_step, kernel.LAGS
    triples = []
    for top in (1.0, lags, lags - 2.0 ** -20, lags + 2.0 ** -20, 12.0, 37.0):
        for mid in (0.0, 0.375, math.floor(top / 2), top):
            for base in (0.3125, -0.71875):
                pts = (base, base + mid * ts, base + top * ts)
                assert (pts[1] - base, pts[2] - base) == (mid * ts, top * ts)
                triples += itertools.permutations(pts)
    # largest offset a hair below 64 table steps at m = 0, where at
    # halfwidth 3 the rounding of lo puts the first interior point just
    # off the table, so that the scale must leave the closed form
    for pts in ((-1.8361059042552212, -1.5361059042552214, -0.8361059042552214),
                (-1.5292078569330907, -1.2292078569330909, -0.5292078569330908)):
        assert 64.0 - 1e-13 < (pts[2] - pts[0]) / ts < 64.0
        triples += itertools.permutations(pts)
    return triples


@pytest.mark.parametrize("halfwidth", [60.0, 3.0])
def test_diagonal_kernel_matches_oracle_at_whole_and_boundary_lags(halfwidth):
    # the closed form up to LAGS, the segments past it, and the segments
    # where a whole lag puts a grid point on the end of the table: the
    # point i0 - 1 = lag // stride, which the moment table leaves out
    k = _kernel(halfwidth)
    triples = _lag_triples(k)
    assert any(start == lag // k.stride for t in triples
               for lag, start, _ in _closed_form_ranges(k, *t))
    _assert_matches_oracle(k, triples)


# at halfwidth 0.5 the table has LAGS + 1 nodes: lag LAGS - 1 reads one
# node, and lag LAGS none (an empty sum)
@pytest.mark.parametrize("halfwidth", [60.0, 3.0, 0.5])
def test_lag_moments_match_a_direct_sum(halfwidth):
    k = _kernel(halfwidth)
    lags = k.LAGS
    assert k._moments.shape == (2, lags + 1, lags + 1, 4)
    # i = i0 .. last: the interior and the last point
    nodes = k.stride * np.arange(1, k._last + 1)
    for case, (small, a, b) in enumerate(((k.phi_s, k.psi, k.psi), (k.psi, k.phi_s, k.psi))):
        for na, nb in itertools.product((0, 1, 2, lags - 1, lags), repeat=2):
            # the terms where all three reads are in the table
            kk = nodes[nodes - max(na, nb) - 1 >= 0]
            pa, pb = a[kk - na], b[kk - nb]
            da, db = pa - a[kk - na - 1], pb - b[kk - nb - 1]
            for e, (u, w) in enumerate(((pa, pb), (da, pb), (pa, db), (da, db))):
                terms = small[kk] * u * w
                want = math.fsum(terms)
                assert abs(k._moments[case, na, nb, e] - want) <= 1e-13 * np.abs(terms).sum()


def _closed_form_ranges(kernel, x, y1, y2):
    """(largest lag, first i, last i) of each scale whose largest offset is
    at most LAGS table steps: the whole part of that offset, and the ends of
    the run of points of the oracle's Riemann sum at which all three
    centers are in the table."""
    pts = np.array([x, y1, y2])
    m_lo, m_hi = kernel._window(x, y1, y2)
    ranges = []
    for m in range(m_lo, m_hi + 1):
        c = 2.0 ** m * pts
        top = (c.max() - c.min()) / kernel.table_step
        if top > kernel.LAGS:
            break  # the offsets double with m
        v = np.arange(c.min() - kernel.halfwidth, c.max() + kernel.halfwidth,
                      kernel.v_step)[:, None] - c
        i = np.flatnonzero(((v >= kernel.xs[0]) & (v <= kernel.xs[-1])).all(axis=1))
        ranges.append((math.floor(top), i[0], i[-1]))
    return ranges


@pytest.mark.parametrize("halfwidth", [60.0, 3.0])
def test_diagonal_kernel_matches_oracle_where_the_last_point_is_dropped(halfwidth):
    # the moment table sums i0 .. last; a scale within LAGS table steps
    # whose float test drops the last point, as rounding of lo does at
    # about one closed-form scale in 150, takes the segments
    k = _kernel(halfwidth)
    last = (len(k.xs) - 1) // k.stride
    triples = [t for t in _sampler_triples(200, seed=13)
               if any(stop == last - 1 for _, _, stop in _closed_form_ranges(k, *t))]
    assert len(triples) >= 20
    _assert_matches_oracle(k, triples)


def _segment_sums_by_point(kernel, start, stop, pos):
    """Per point: center j reads _lerp row stride i + 1 - ceil(pos_j) at
    fraction ceil(pos_j) - pos_j."""
    sums, scales = [], []
    for a, b, p in zip(start, stop, pos):
        q = np.ceil(p)
        terms = [math.prod(kernel._lerp[profile, kernel.stride * i + 1 - int(qj)]
                           @ [1.0, qj - pj] for profile, qj, pj in zip((0, 1, 1), q, p))
                 for i in range(a, b + 1)]
        sums.append(math.fsum(terms))
        scales.append(math.fsum(map(abs, terms)))
    return np.array(sums), np.array(scales)


def _assert_segment_sums(kernel, segments):
    start, stop, pos = (np.array(v) for v in zip(*segments))
    lens = np.maximum(stop - start + 1, 0)
    # every point reads a row of the table
    first, last = (kernel.stride * i[lens > 0, None] + 1 - np.ceil(pos[lens > 0])
                   for i in (start, stop))
    assert np.all(first >= 0) and np.all(last <= len(kernel.xs))
    got = kernel._gathered(start, stop, pos)
    want, scale = _segment_sums_by_point(kernel, start, stop, pos)
    assert np.all(got[lens == 0] == 0.0)
    # a pairwise sum of at most 1,921 products of three interpolations
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_diagonal_kernel_segment_sums_match_the_points(kernel):
    width = kernel._width
    assert width == len(kernel.xs) // kernel.stride + 1 == 1921
    # (start, stop, pos): all four residue classes and whole-number
    # positions (fraction 0) among them
    _assert_segment_sums(kernel, [
        (5, 4, (0.3, 2.75, 6.5)),  # empty
        (10, 10, (0.3, 2.75, 6.5)),  # one point
        (100, 101, (1.2, 5.0, 0.0)),  # two points
        # ends 5 rows before the last table row; its window runs on into
        # the zero padding, so only the length cuts it
        (1905, 1915, (0.3, 0.6, 0.9)),
        # the whole window, and the last segment: it ends the buffer
        (0, width - 1, (1.0, 0.5, 0.25)),
    ])
    # short segments only; (1920, 1920, ...) reads the last row, the end
    # node with slope 0
    _assert_segment_sums(kernel, [(0, 0, (0.0, 0.25, 0.5)), (3, 1, (0.1, 0.2, 0.3)),
                                  (1920, 1920, (0.0, 0.5, 1.0))])
    _assert_segment_sums(kernel, [(7, 6, (0.3, 0.6, 0.9)), (2, 1, (0.0, 0.5, 1.0))])


def _one_shot_tables(xs, s, quad_points):
    xi = np.linspace(0.0, 2.0, quad_points)
    cosmat = np.cos(2.0 * np.pi * np.outer(xs, xi))
    return [2.0 * (cosmat * weight).sum(axis=1) * (xi[1] - xi[0])
            for weight in ((2.0 * np.pi * xi) ** s * lb.lowpass_profile(xi),
                           lb.annulus_profile(xi))]


def _assert_tables_match(dk, rows, s, quad_points):
    """The FFT-built tables against the direct cosine sum at 1e-12,
    relative to 2 sum |w| dxi, the size of every term of the sum."""
    xi = np.linspace(0.0, 2.0, quad_points)
    weights = ((2.0 * np.pi * xi) ** s * lb.lowpass_profile(xi), lb.annulus_profile(xi))
    for table, one_shot, w in zip((dk.phi_s, dk.psi),
                                  _one_shot_tables(dk.xs[rows], s, quad_points), weights):
        scale = 2.0 * np.abs(w).sum() * (xi[1] - xi[0])
        assert np.abs(table[rows] - one_shot).max() <= 1e-12 * scale


@pytest.mark.parametrize("s, halfwidth, quad_points", [
    (1.5, 60.0, 4000),
    (2.0, 60.0, 64),
    (1.5, 3.0, 4000),
    (1.5, 4.0, 4000),
], ids=["default", "quad64", "halfwidth3", "halfwidth4"])
def test_diagonal_kernel_tables_match_the_cosine_sum(s, halfwidth, quad_points):
    dk = _kernel(halfwidth, s, quad_points)
    n = len(dk.xs)
    rows = np.arange(n)
    if n * quad_points > 10 ** 7:
        # the default grid's 7,681 x 4,000 cosines would take 245 MB: its
        # ends, middle and 80 sampled rows
        rows = np.r_[:40, n // 2 - 20:n // 2 + 20, n - 40:n,
                     np.random.default_rng(3).choice(n, 80, replace=False)]
    _assert_tables_match(dk, rows, s, quad_points)


@pytest.mark.parametrize("halfwidth", [1 / 16, 5 / 64])
def test_diagonal_kernel_builds_from_four_table_steps(halfwidth):
    short = _kernel(halfwidth, quad_points=64)
    # a lag of len(xs) - 1 steps or more leaves no node k with k - lag - 1
    # >= 0 in the table: its moments are empty sums
    top = len(short.xs) - 1
    assert not short._moments[:, top:].any() and not short._moments[:, :, top:].any()
    _assert_matches_oracle(short, _sampler_triples(100, seed=15))


def test_diagonal_kernel_tables_take_little_memory():
    # the tables are 7,681 floats each; the quadrature is one FFT per
    # profile, and the lag moments are summed in blocks of nodes
    tracemalloc.start()
    try:
        lb.DiagonalKernel(1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
