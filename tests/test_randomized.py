import itertools
import math

import numpy as np
import pytest

import dyadlab as dl
from dyadlab import ncspaces as nc
from dyadlab import randomized as rz
from dyadlab.lattice import FieldError, _cell_block, from_aligned
from conftest import lattice_cubes, random_matrix


def test_ensemble_exhaustive_patterns():
    ens = rz.SignEnsemble(3)
    pats = ens.patterns()
    assert pats.shape == (8, 3)
    assert set(map(tuple, pats)) == set(
        (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))
    with pytest.raises(ValueError):
        rz.SignEnsemble(25)


def test_rad_norm_examples(rng):
    one = np.ones((1, 1))  # a scalar is a 1 x 1 matrix
    assert rz.rad_norm([one, one], 2.0) == pytest.approx(math.sqrt(2))
    e1 = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 1.0]).astype(complex)
    assert rz.rad_norm([e1, e2], math.inf) == pytest.approx(1.0)
    assert rz.rad_norm([], 2.0) == 0.0


def test_kk_ratio_degenerate_cases(rng):
    assert rz.kk_ratio([np.array([[3.0 + 1j]])], 2.0, 1.0, 2.0) == pytest.approx(1.0)
    xs = [random_matrix(rng, 2) for _ in range(4)]
    assert rz.kk_ratio(xs, 2.0, 3.0, 3.0) == pytest.approx(1.0)


def test_kk_ratio_khintchine_regime(rng):
    vals = list(rng.standard_normal((10, 1, 1)))
    r = rz.kk_ratio(vals, 2.0, 1.0, 2.0)
    assert 1.0 / math.sqrt(2) - 1e-12 <= r <= 1.0 + 1e-12


def test_contraction_exact(rng):
    xs = [random_matrix(rng, 2) for _ in range(8)]
    ones = np.ones(8)
    lhs, rhs = rz.contraction_check(xs, ones, 2.0, 2.0)
    assert lhs == pytest.approx(rhs)
    lhs, rhs = rz.contraction_check(xs, np.zeros(8), 2.0, 2.0)
    assert lhs == 0.0
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, size=8)
        lhs, rhs = rz.contraction_check(xs, coeffs, 2.0, 3.0)
        assert lhs <= rhs * (1 + 1e-10)


def test_contraction_rejects_bad_p(rng):
    with pytest.raises(ValueError):
        rz.contraction_check([np.ones((1, 1))], [1.0], 2.0, 0.5)


def _moment(xs, schatten, p):
    """(mean of |sum_m eps_m x_m|_{S^schatten}^p)^(1/p) over every sign
    pattern eps of itertools.product((1, -1), repeat=len(xs))."""
    vals = [nc.schatten_norm(sum(e * x for e, x in zip(signs, xs)), schatten) ** p
            for signs in itertools.product((1.0, -1.0), repeat=len(xs))]
    return (sum(vals) / len(vals)) ** (1.0 / p)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_sign_checks_average_over_every_pattern_of_their_inputs(rng, m):
    xs = [random_matrix(rng, 2) for _ in range(m)]
    coeffs = rng.uniform(-1, 1, size=m)
    close = lambda a, b: abs(a - b) <= 1e-12 * abs(b)
    assert close(rz.rad_norm(xs, 3.0), _moment(xs, 3.0, 2.0))
    assert close(rz.kk_ratio(xs, 2.0, 1.0, 3.0), _moment(xs, 2.0, 1.0) / _moment(xs, 2.0, 3.0))
    lhs, rhs = rz.contraction_check(xs, coeffs, 2.0, 3.0)
    assert close(lhs, _moment([a * x for a, x in zip(coeffs, xs)], 2.0, 3.0))
    assert close(rhs, np.abs(coeffs).max() * _moment(xs, 2.0, 3.0))
    # stein_check: m cubes of a d = 1 lattice, in (level, index) order
    lat = dl.build_lattice(1, 3)
    cubes = [(0, (0,)), (1, (0,)), (1, (1,)), (2, (1,)), (2, (2,))][:m]
    values = np.stack([_supported(lat, lv, ix, 40 + i, N=2) for i, (lv, ix) in enumerate(cubes)])
    raw = [dl.GridFunction(lat, v).aligned() for v in values]
    avg = [dl.expect(dl.GridFunction(lat, v), *Q).aligned() for v, Q in zip(values, cubes)]
    lhs, rhs = rz.stein_check(lat, values, [lv for lv, _ in cubes], [ix for _, ix in cubes],
                              3.0, 2.0)
    for got, fs in ((lhs, avg), (rhs, raw)):
        want = [nc.lp_norm(sum(e * f for e, f in zip(signs, fs)), 3.0, 2.0)
                for signs in itertools.product((1.0, -1.0), repeat=m)]
        assert close(got, sum(want) / len(want))


def _supported(lat, level, index, seed, N=1):
    """Random N x N values that vanish off the cube (level, index)."""
    g = dl.random_grid_function(lat, N=N, seed=seed)
    mask = np.zeros((lat.cells_per_axis,) * lat.dim)
    mask[_cell_block(lat, level, index)] = 1.0
    return g.values * from_aligned(lat, mask).values


def _stein(lat, cubes, p, seeds, N=1):
    values = np.stack([_supported(lat, lv, ix, seed, N) for (lv, ix), seed in zip(cubes, seeds)])
    level, index = [lv for lv, _ in cubes], [ix for _, ix in cubes]
    return rz.stein_check(lat, values, level, index, p, 2.0)


def _stein_per_cube(lat, values, level, index, p, schatten):
    """stein_check as a dict of cube functions: E_Q f_Q from ``expect`` on
    each cube, the cubes sorted by (level, index), the norms taken in
    aligned cells as stein_check takes them."""
    fqs = {(int(lv), tuple(int(i) for i in ix)): dl.GridFunction(lat, v)
           for v, lv, ix in zip(values, level, index)}
    cubes = sorted(fqs)
    # every sign pattern, the first sign varying fastest as in SignEnsemble
    eps = np.array(list(itertools.product((1.0, -1.0), repeat=len(cubes))))[:, ::-1]
    raw = np.stack([fqs[Q].aligned() for Q in cubes])
    avg = np.stack([dl.expect(fqs[Q], *Q).aligned() for Q in cubes])
    return tuple(float(np.mean(nc.lp_norms(np.tensordot(eps, x, axes=(1, 0)), p, schatten)))
                 for x in (avg, raw))


def test_stein_single_constant_cube():
    lat = dl.build_lattice(1, 3)
    c = np.full((1, 8, 1, 1), 1.5)
    lhs, rhs = rz.stein_check(lat, c, [0], [[0]], 2.0, 2.0)
    assert lhs == pytest.approx(rhs)


def test_stein_disjoint_p2():
    lat = dl.build_lattice(1, 3)
    lhs, rhs = _stein(lat, [(1, (0,)), (1, (1,))], 2.0, [1, 2])
    assert lhs <= rhs + 1e-12


def test_stein_nested_recorded_ratio():
    lat = dl.build_lattice(1, 3)
    lhs, rhs = _stein(lat, [(0, (0,)), (1, (0,))], 3.0, [3, 4])
    assert rhs > 0 and lhs / rhs < 10.0


def test_stein_matrix_valued_band():
    lat = dl.build_lattice(1, 3)
    lhs, rhs = _stein(lat, [(0, (0,)), (1, (1,)), (2, (1,))], 3.0, [10, 11, 12], N=2)
    assert rhs > 0 and lhs / rhs < 10.0


@pytest.mark.parametrize("p, schatten", [(3.0, 2.0), (1.5, 4.0)])
def test_stein_matches_the_per_cube_expectations(p, schatten):
    # d = 2 on a shifted lattice with matrix values; the cubes are not
    # given in (level, index) order
    lat = dl.build_lattice(2, 3, (0.25, 0.625))
    cubes = [(2, (3, 1)), (0, (0, 0)), (1, (1, 0)), (2, (0, 2)), (1, (0, 1))]
    values = np.stack([_supported(lat, lv, ix, 30 + i, N=2) for i, (lv, ix) in enumerate(cubes)])
    level, index = np.array([lv for lv, _ in cubes]), np.array([ix for _, ix in cubes])
    got = rz.stein_check(lat, values, level, index, p, schatten)
    assert got == _stein_per_cube(lat, values, level, index, p, schatten)
    assert got[1] > 0 and got[0] != got[1]


def test_stein_restricts_each_row_to_its_cube():
    # values off a row's cube do not count, on a shifted lattice too, where
    # the cube's cells are not its block of aligned cells
    for lat in (dl.build_lattice(1, 3), dl.build_lattice(2, 3, (0.25, 0.5))):
        cubes = [(1, (0,) * lat.dim), (2, (1,) * lat.dim)]
        level, index = [lv for lv, _ in cubes], [ix for _, ix in cubes]
        whole = np.stack([dl.random_grid_function(lat, seed=5 + i).values for i in range(2)])
        inside = np.stack([_supported(lat, lv, ix, 5 + i) for i, (lv, ix) in enumerate(cubes)])
        check = lambda v: rz.stein_check(lat, v, level, index, 2.0, 2.0)
        assert check(whole) == check(inside)
        assert check(whole) != check(whole[::-1])


@pytest.mark.parametrize("d, L, levels", [(1, 5, [0, 2, 4]), (2, 3, [0, 1, 2])])
def test_sampler_draws_one_stream_per_cube_in_heap_order(d, L, levels):
    lat = dl.build_lattice(d, L, 3)
    count = 37
    rng = np.random.default_rng(11)
    ref = [rng.integers(0, 2 ** ((L - lv) * d), size=count)
           for lv in levels for _ in lattice_cubes(lat, lv)]
    got = rz.DecouplingSampler(seed=11).draws(lat, levels, count)
    assert got.shape == (count, len(ref))
    assert np.array_equal(got, np.stack(ref, axis=1))


def test_sampler_marginal_uniform():
    lat = dl.build_lattice(1, 4)
    samp = rz.DecouplingSampler(seed=0)
    draws = samp.draws(lat, [0], 20_000)[:, 0]
    counts = np.bincount(draws, minlength=16)
    expected = 20_000 / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df = 15: anything below 60 is unremarkable
    assert chi2 < 60.0


def test_decoupling_scalar_p2_anchor():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=8)
    samp = rz.DecouplingSampler(seed=3)
    ens = rz.SignEnsemble(0, samples=10_000, seed=9)
    ratio, se = rz.decoupling_ratio(f, 0, 1, 1, 2.0, 2.0, samp, ens)
    assert abs(ratio - 1.0) <= 3.0 * se


def test_decoupling_constant_guarded():
    lat = dl.build_lattice(1, 4)
    c = dl.GridFunction(lat, np.ones(16))
    samp = rz.DecouplingSampler(seed=3)
    ens = rz.SignEnsemble(0, samples=50, seed=9)
    ratio, se = rz.decoupling_ratio(c, 0, 1, 0, 2.0, 2.0, samp, ens)
    assert ratio == 1.0 and se == 0.0


def test_decoupling_matrix_band():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, N=2, seed=13)
    samp = rz.DecouplingSampler(seed=5)
    ens = rz.SignEnsemble(0, samples=4000, seed=7)
    ratio, _ = rz.decoupling_ratio(f, 0, 1, 1, 4.0, 2.0, samp, ens)
    assert 0.1 <= ratio <= 10.0


def _decoupling_input(lat, N, scalar, seed):
    """Random N x N data; a scalar one made from grid-shaped values, which
    read as 1 x 1 matrices."""
    f = dl.random_grid_function(lat, N=N, seed=seed)
    return dl.GridFunction(lat, f.values[..., 0, 0]) if scalar else f


@pytest.mark.parametrize("d, L, shift, N, scalar, p, jkl", [
    (1, 4, None, 1, True, 2.0, (0, 1, 1)),
    (1, 4, None, 2, False, 4.0, (0, 1, 1)),
    (1, 5, (0.75,), 1, True, 3.0, (1, 2, 1)),
    (1, 6, (3 / 64,), 1, True, 1.0, (0, 1, 1)),   # p = 1: cell order shows in every bit
    (2, 3, (0.25, 0.625), 2, False, 3.0, (0, 1, 0)),
    (2, 3, (0.5, 0.125), 1, True, 4.0, (0, 1, 1)),
])
def test_decoupling_chunks_match_the_per_sample_oracle(monkeypatch, d, L, shift, N,
                                                       scalar, p, jkl):
    lat = dl.build_lattice(d, L, shift)
    assert (shift is None) == (not any(lat.shift_cells))
    f = _decoupling_input(lat, N, scalar, d + L)
    samp = rz.DecouplingSampler(seed=4)
    ens = rz.SignEnsemble(0, samples=300, seed=6)
    # 64 samples a chunk, so 300 samples end in a partial chunk
    monkeypatch.setattr(rz, "_CHUNK_BYTES", 64 * lat.num_cells * N * N * 16)
    assert rz.decoupling_ratio(f, *jkl, p, 2.0, samp, ens) == \
        rz._decoupling_ratio_per_sample(f, *jkl, p, 2.0, samp, ens)


def test_decoupling_default_chunk_matches_the_per_sample_oracle():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, N=2, seed=13)
    samp = rz.DecouplingSampler(seed=5)
    rows = rz._CHUNK_BYTES // (16 * 4 * 16)
    ens = rz.SignEnsemble(0, samples=rows + 37, seed=7)
    assert rz.decoupling_ratio(f, 0, 1, 1, 4.0, 2.0, samp, ens) == \
        rz._decoupling_ratio_per_sample(f, 0, 1, 1, 4.0, 2.0, samp, ens)


@pytest.mark.parametrize("d, L, shift, N, scalar, jkl", [
    (1, 5, None, 1, True, (0, 1, 1)),
    (1, 5, (0.75,), 2, False, (1, 2, 1)),
    (1, 6, (3 / 64,), 1, True, (0, 2, 2)),
    (2, 3, (0.25, 0.625), 2, False, (0, 1, 0)),
    (2, 3, None, 1, True, (0, 1, 1)),
    (2, 4, (0.5, 0.125), 2, False, (1, 1, 1)),
])
def test_decoupling_level_arrays_match_the_per_cube_differences(d, L, shift, N, scalar, jkl):
    lat = dl.build_lattice(d, L, shift)
    f = _decoupling_input(lat, N, scalar, d + L)
    samp = rz.DecouplingSampler(seed=4)
    ens = rz.SignEnsemble(0, samples=10, seed=6)
    _, levels, diffs, lhs, _, _ = rz._decoupling_inputs(f, *jkl, 3.0, 2.0, samp, ens)
    cubes = [Q for lv in levels for Q in lattice_cubes(lat, lv)]
    per_cube = [dl.martingale_diff(f, *Q, jkl[2]) for Q in cubes]
    for Q, g in zip(cubes, per_cube):
        block = _cell_block(lat, *Q)
        assert np.abs(diffs[Q[0]][block] - g.aligned()[block]).max() <= 1e-12
    total = sum(g.values for g in per_cube)
    assert abs(lhs - dl.lp_norm(total, 3.0, 2.0) ** 3.0) <= 1e-12 * max(1.0, lhs)


def test_decoupling_levels_residues():
    assert rz.decoupling_levels(6, 1, 2, 0) == [2, 5]
    assert rz.decoupling_levels(6, 1, 2, 1) == [2]
    for L, j, k, l, field in ((4, 2, 1, 0, "j"), (4, -1, 1, 0, "j"), (4, 0, 1, 2, "l"),
                              (2, 1, 2, 0, "depth")):
        with pytest.raises(FieldError, match=f"^field {field} is rejected: "):
            rz.decoupling_levels(L, j, k, l)
    for L in range(1, 7):
        for k in range(5):
            for l in range(k + 1):
                seen = []
                for j in range(k + 1):
                    # cubes of side 2^(m(k+1)+j), m an integer, where Delta^l exists
                    side = [lv for lv in range(L + 1) if lv + l <= L - 1
                            and any(-lv == m * (k + 1) + j for m in range(-L - 1, 1))]
                    if side:
                        assert rz.decoupling_levels(L, j, k, l) == side
                    else:
                        with pytest.raises(FieldError, match="^field depth is rejected: "):
                            rz.decoupling_levels(L, j, k, l)
                    seen += side
                # the residues j = 0..k partition the levels that leave room for l more
                assert sorted(seen) == list(range(L - l))


def test_decoupling_validates_levels():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=8)
    samp = rz.DecouplingSampler(seed=3)
    ens = rz.SignEnsemble(0, samples=10, seed=0)
    with pytest.raises(ValueError):
        rz.decoupling_ratio(f, 0, 1, 2, 2.0, 2.0, samp, ens)


def test_rscalar_identity_case():
    es = np.ones((2, 1, 1, 1), dtype=complex)
    lhs, rhs = rz.rscalar_check(es, [1.0], [3.0, 3.0, 3.0])
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)


def test_rscalar_zero_coeffs(rng):
    es = np.stack([np.stack([random_matrix(rng, 2) for _ in range(3)])
                   for _ in range(2)])
    lhs, rhs = rz.rscalar_check(es, [0.0, 0.0, 0.0], [3.0, 3.0, 3.0])
    assert lhs == 0.0 and rhs > 0.0


def test_rscalar_exhaustive_grid(rng):
    for n in (2, 3):
        for K in (1, 2, 4):
            for N in (2, 3):
                es = np.stack([np.stack([random_matrix(rng, N) for _ in range(K)])
                               for _ in range(n)])
                coeffs = rng.uniform(size=K) * np.exp(2j * np.pi * rng.uniform(size=K))
                ps = [float(n + 1)] * (n + 1)
                lhs, rhs = rz.rscalar_check(es, coeffs, ps)
                assert lhs <= rhs * (1 + 1e-9)


def test_rscalar_validates(rng):
    es = np.ones((1, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        rz.rscalar_check(es, [1.0, 1.0], [2.0, 2.0])
    es2 = np.ones((2, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        rz.rscalar_check(es2, [2.0, 1.0], [3.0, 3.0, 3.0])


def test_key_product_inequality(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        K = int(rng.integers(1, 5))
        es = np.stack([np.stack([random_matrix(rng, 3) for _ in range(K)])
                       for _ in range(n - 1)])
        last = random_matrix(rng, 3)
        ps = [float(n + 1)] * (n + 1)
        lhs, rhs = rz.key_product_inequality(es, last, ps)
        assert lhs <= rhs * (1 + 1e-10)


def test_martingale_transform_statistic():
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, seed=21)
    eps = rz.SignEnsemble(7).patterns()
    stat = rz.martingale_transform_ratio(f, 2.0, 2.0, eps)
    # p = 2 is an isometry class: every sign choice preserves the norm
    assert stat == pytest.approx(1.0, abs=1e-10)
    stat3 = rz.martingale_transform_ratio(f, 3.0, 2.0, eps)
    assert stat3 >= 1.0 - 1e-12
    with pytest.raises(ValueError, match="too few signs"):  # 7 cubes above the cells
        rz.martingale_transform_ratio(f, 2.0, 2.0, eps[:, :6])


def _transform_ratio_per_cube(f, p, schatten, eps):
    """martingale_transform_ratio with Delta_Q f from ``martingale_diff`` on each cube."""
    lat = f.lattice
    cubes = [Q for lv in range(lat.depth) for Q in lattice_cubes(lat, lv)]
    diffs = np.stack([dl.martingale_diff(f, *Q).values for Q in cubes])
    base = f.values - f.values.mean(axis=tuple(range(lat.dim)), keepdims=True)
    den = dl.lp_norm(base, p, schatten)
    signed = np.tensordot(eps[:, :len(cubes)], diffs, axes=(1, 0))
    return float(nc.lp_norms(signed, p, schatten).max()) / den


@pytest.mark.parametrize("L, eps", [
    (2, rz.SignEnsemble(5).patterns()),
    # 21 cubes: more sample rows than one chunk holds
    (3, 1.0 - 2.0 * np.random.default_rng(1).integers(0, 2, size=(200, 21))),
], ids=["exhaustive", "monte-carlo"])
def test_martingale_transform_matches_the_per_cube_differences(L, eps):
    lat = dl.build_lattice(2, L, (0.25, 0.5))
    f = dl.random_grid_function(lat, N=2, seed=22)
    got = rz.martingale_transform_ratio(f, 3.0, 2.0, eps)
    assert got == pytest.approx(_transform_ratio_per_cube(f, 3.0, 2.0, eps), rel=1e-12)
    assert got > 1.0
