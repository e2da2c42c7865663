import math

import numpy as np
import pytest

import dyadlab as dl
from dyadlab import randomized as rz
from dyadlab.lattice import _cell_block
from conftest import random_matrix


def test_ensemble_exhaustive_patterns():
    ens = rz.SignEnsemble(3)
    pats = ens.patterns()
    assert pats.shape == (8, 3)
    assert set(map(tuple, pats)) == set(
        (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))
    with pytest.raises(ValueError):
        rz.SignEnsemble(25)


def test_rad_norm_examples(rng):
    ens = rz.SignEnsemble(2)
    assert rz.rad_norm([1.0, 1.0], 2.0, ens) == pytest.approx(math.sqrt(2))
    e1 = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 1.0]).astype(complex)
    assert rz.rad_norm([e1, e2], math.inf, ens) == pytest.approx(1.0)
    assert rz.rad_norm([], 2.0, ens) == 0.0


def test_rad_norm_monte_carlo_matches_exhaustive(rng):
    xs = [random_matrix(rng, 2) for _ in range(3)]
    exact = rz.rad_norm(xs, 2.0, rz.SignEnsemble(3))
    mc = rz.rad_norm(xs, 2.0,
                     rz.SignEnsemble(3, "monte_carlo", samples=100_000, seed=4))
    assert abs(mc - exact) / exact < 0.01


def test_kk_ratio_degenerate_cases(rng):
    ens = rz.SignEnsemble(1)
    assert rz.kk_ratio([3.0 + 1j], 2.0, 1.0, 2.0, ens) == pytest.approx(1.0)
    xs = [random_matrix(rng, 2) for _ in range(4)]
    assert rz.kk_ratio(xs, 2.0, 3.0, 3.0,
                       rz.SignEnsemble(4)) == pytest.approx(1.0)


def test_kk_ratio_khintchine_regime(rng):
    vals = list(rng.standard_normal(10))
    r = rz.kk_ratio(vals, 2.0, 1.0, 2.0, rz.SignEnsemble(10))
    assert 1.0 / math.sqrt(2) - 1e-12 <= r <= 1.0 + 1e-12


def test_contraction_exact(rng):
    ens = rz.SignEnsemble(8)
    xs = [random_matrix(rng, 2) for _ in range(8)]
    ones = np.ones(8)
    lhs, rhs = rz.contraction_check(xs, ones, 2.0, 2.0, ens)
    assert lhs == pytest.approx(rhs)
    lhs, rhs = rz.contraction_check(xs, np.zeros(8), 2.0, 2.0, ens)
    assert lhs == 0.0
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, size=8)
        lhs, rhs = rz.contraction_check(xs, coeffs, 2.0, 3.0, ens)
        assert lhs <= rhs * (1 + 1e-10)


def test_contraction_rejects_bad_p(rng):
    with pytest.raises(ValueError):
        rz.contraction_check([1.0], [1.0], 2.0, 0.5, rz.SignEnsemble(1))


def _supported(lat, Q, seed):
    g = dl.random_grid_function(lat, seed=seed, scalar=True)
    mask = np.zeros((lat.cells_per_axis,) * lat.dim)
    mask[_cell_block(lat, Q)] = 1.0
    return dl.GridFunction(lat, g.values * mask)


def test_stein_single_constant_cube():
    lat = dl.build_lattice(1, 3)
    Q = lat.top()
    c = dl.GridFunction(lat, np.full(8, 1.5))
    lhs, rhs = rz.stein_check({Q: c}, 2.0, 2.0, rz.SignEnsemble(1))
    assert lhs == pytest.approx(rhs)


def test_stein_disjoint_p2(rng):
    lat = dl.build_lattice(1, 3)
    fqs = {dl.Cube(1, (0,)): _supported(lat, dl.Cube(1, (0,)), 1),
           dl.Cube(1, (1,)): _supported(lat, dl.Cube(1, (1,)), 2)}
    lhs, rhs = rz.stein_check(fqs, 2.0, 2.0, rz.SignEnsemble(2))
    assert lhs <= rhs + 1e-12


def test_stein_nested_recorded_ratio(rng):
    lat = dl.build_lattice(1, 3)
    fqs = {dl.Cube(0, (0,)): _supported(lat, dl.Cube(0, (0,)), 3),
           dl.Cube(1, (0,)): _supported(lat, dl.Cube(1, (0,)), 4)}
    lhs, rhs = rz.stein_check(fqs, 3.0, 2.0, rz.SignEnsemble(2))
    assert rhs > 0 and lhs / rhs < 10.0


def test_stein_matrix_valued_band(rng):
    lat = dl.build_lattice(1, 3)
    fqs = {}
    for lv, idx, seed in ((0, (0,), 10), (1, (1,), 11), (2, (1,), 12)):
        Q = dl.Cube(lv, idx)
        g = dl.random_grid_function(lat, N=2, seed=seed)
        mask = np.zeros(8)
        mask[_cell_block(lat, Q)] = 1.0
        fqs[Q] = dl.GridFunction(lat, g.values * mask[:, None, None])
    lhs, rhs = rz.stein_check(fqs, 3.0, 2.0, rz.SignEnsemble(3))
    assert rhs > 0 and lhs / rhs < 10.0


def test_stein_rejects_unsupported():
    lat = dl.build_lattice(1, 3)
    g = dl.random_grid_function(lat, seed=5, scalar=True)
    with pytest.raises(ValueError):
        rz.stein_check({dl.Cube(1, (0,)): g}, 2.0, 2.0, rz.SignEnsemble(1))


def test_sampler_marginal_uniform():
    lat = dl.build_lattice(1, 4)
    samp = rz.DecouplingSampler(lat, seed=0)
    Q = lat.top()
    draws = samp.draws([Q], 20_000)[:, 0]
    counts = np.bincount(draws, minlength=16)
    expected = 20_000 / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df = 15: anything below 60 is unremarkable
    assert chi2 < 60.0


def test_decoupling_scalar_p2_anchor():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=8, scalar=True)
    samp = rz.DecouplingSampler(lat, seed=3)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=10_000, seed=9)
    ratio, se = rz.decoupling_ratio(f, 0, 1, 1, 2.0, 2.0, samp, ens)
    assert abs(ratio - 1.0) <= 3.0 * se


def test_decoupling_constant_guarded():
    lat = dl.build_lattice(1, 4)
    c = dl.GridFunction(lat, np.ones(16))
    samp = rz.DecouplingSampler(lat, seed=3)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=50, seed=9)
    ratio, se = rz.decoupling_ratio(c, 0, 1, 0, 2.0, 2.0, samp, ens)
    assert ratio == 1.0 and se == 0.0


def test_decoupling_matrix_band():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, N=2, seed=13)
    samp = rz.DecouplingSampler(lat, seed=5)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=4000, seed=7)
    ratio, _ = rz.decoupling_ratio(f, 0, 1, 1, 4.0, 2.0, samp, ens)
    assert 0.1 <= ratio <= 10.0


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
    f = dl.random_grid_function(lat, N=N, seed=d + L, scalar=scalar)
    samp = rz.DecouplingSampler(lat, seed=4)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=300, seed=6)
    # 64 samples a chunk, so 300 samples end in a partial chunk
    monkeypatch.setattr(rz, "_CHUNK_BYTES", 64 * lat.num_cells * N * N * 16)
    assert rz.decoupling_ratio(f, *jkl, p, 2.0, samp, ens) == \
        rz._decoupling_ratio_per_sample(f, *jkl, p, 2.0, samp, ens)


def test_decoupling_default_chunk_matches_the_per_sample_oracle():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, N=2, seed=13)
    samp = rz.DecouplingSampler(lat, seed=5)
    rows = rz._CHUNK_BYTES // (16 * 4 * 16)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=rows + 37, seed=7)
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
    from dyadlab.lattice import martingale_diff_k
    lat = dl.build_lattice(d, L, shift)
    f = dl.random_grid_function(lat, N=N, seed=d + L, scalar=scalar)
    samp = rz.DecouplingSampler(lat, seed=4)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=10, seed=6)
    _, cubes, diffs, lhs, _, _ = rz._decoupling_inputs(f, *jkl, 3.0, 2.0, samp, ens)
    per_cube = [martingale_diff_k(f, Q, jkl[2]) for Q in cubes]
    for Q, g in zip(cubes, per_cube):
        block = _cell_block(lat, Q)
        assert np.abs(diffs[Q.level][block] - g.aligned()[block]).max() <= 1e-12
    total = sum(per_cube[1:], per_cube[0])
    assert abs(lhs - dl.lp_norm(total, 3.0, 2.0) ** 3.0) <= 1e-12 * max(1.0, lhs)


def test_decoupling_validates_levels():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=8, scalar=True)
    samp = rz.DecouplingSampler(lat, seed=3)
    ens = rz.SignEnsemble(0, "monte_carlo", samples=10, seed=0)
    with pytest.raises(ValueError):
        rz.decoupling_ratio(f, 0, 1, 2, 2.0, 2.0, samp, ens)


def test_rscalar_identity_case():
    es = np.ones((2, 1, 1, 1), dtype=complex)
    lhs, rhs = rz.rscalar_check(es, [1.0], [3.0, 3.0, 3.0], rz.SignEnsemble(1))
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)


def test_rscalar_zero_coeffs(rng):
    es = np.stack([np.stack([random_matrix(rng, 2) for _ in range(3)])
                   for _ in range(2)])
    lhs, rhs = rz.rscalar_check(es, [0.0, 0.0, 0.0], [3.0, 3.0, 3.0],
                                rz.SignEnsemble(3))
    assert lhs == 0.0 and rhs > 0.0


def test_rscalar_exhaustive_grid(rng):
    for n in (2, 3):
        for K in (1, 2, 4):
            for N in (2, 3):
                es = np.stack([np.stack([random_matrix(rng, N) for _ in range(K)])
                               for _ in range(n)])
                coeffs = rng.uniform(size=K) * np.exp(2j * np.pi * rng.uniform(size=K))
                ps = [float(n + 1)] * (n + 1)
                lhs, rhs = rz.rscalar_check(es, coeffs, ps, rz.SignEnsemble(K))
                assert lhs <= rhs * (1 + 1e-9)


def test_rscalar_validates(rng):
    es = np.ones((1, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        rz.rscalar_check(es, [1.0, 1.0], [2.0, 2.0], rz.SignEnsemble(2))
    es2 = np.ones((2, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        rz.rscalar_check(es2, [2.0, 1.0], [3.0, 3.0, 3.0], rz.SignEnsemble(2))


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
    f = dl.random_grid_function(lat, seed=21, scalar=True)
    stat = rz.martingale_transform_ratio(f, 2.0, 2.0, rz.SignEnsemble(7))
    # p = 2 is an isometry class: every sign choice preserves the norm
    assert stat == pytest.approx(1.0, abs=1e-10)
    stat3 = rz.martingale_transform_ratio(f, 3.0, 2.0, rz.SignEnsemble(7))
    assert stat3 >= 1.0 - 1e-12
