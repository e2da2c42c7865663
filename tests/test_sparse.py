import math
import warnings

import numpy as np
import pytest

import dyadlab as dl
from dyadlab import modelops as mo
from dyadlab import sparse as sp
from dyadlab.lattice import _cell_block
from dyadlab.ncspaces import schatten_norms

from conftest import lattice_cubes


def _ones(lat, c=1.0):
    return dl.GridFunction(lat, np.full((lat.cells_per_axis,) * lat.dim, c))


def _tree(lat, cubes, parent):
    return sp.SparseCollection(lat, [Q[0] for Q in cubes], [Q[1] for Q in cubes], parent)


def _cubes(col):
    """The cubes of a collection as (level, index) pairs, in its order."""
    return [(lv, tuple(ix)) for lv, ix in zip(col.level.tolist(), col.index.tolist())]


def test_maximal_constants():
    lat = dl.build_lattice(1, 4)
    m = sp.multilinear_maximal([_ones(lat), _ones(lat)])
    assert np.allclose(m.values.real, 1.0)


def test_maximal_disjoint_halves():
    lat = dl.build_lattice(1, 3)
    f1 = dl.GridFunction(lat, (np.arange(8) < 4).astype(float))
    f2 = dl.GridFunction(lat, (np.arange(8) >= 4).astype(float))
    m = sp.multilinear_maximal([f1, f2])
    assert m.value_shape == (1, 1) and np.allclose(m.values.real, 0.25)
    # brute force over all cubes
    best = np.zeros(8)
    for Q in lattice_cubes(lat):
        prod = abs(dl.average(f1, *Q)[0, 0]) * abs(dl.average(f2, *Q)[0, 0])
        blk = _cell_block(lat, *Q)
        best[blk] = np.maximum(best[blk], prod)
    assert np.abs(m.values[..., 0, 0].real - best).max() < 1e-14


def test_maximal_matches_brute_force_at_d2():
    lat = dl.build_lattice(2, 3, (0.25, 0.625))
    fs = [dl.random_grid_function(lat, scalar=True, seed=s) for s in (4, 5)]
    m = sp.multilinear_maximal(fs)
    mods = [dl.GridFunction(lat, np.abs(f.values)) for f in fs]
    best = np.zeros((8, 8))  # aligned cells
    for Q in lattice_cubes(lat):
        prod = dl.average(mods[0], *Q)[0, 0] * dl.average(mods[1], *Q)[0, 0]
        blk = _cell_block(lat, *Q)
        best[blk] = np.maximum(best[blk], prod)
    assert np.abs(m.aligned()[..., 0, 0] - best).max() <= 1e-12 * best.max()


@pytest.mark.parametrize("d, L, shift", [(1, 5, (0.375,)), (2, 3, (0.25, 0.625)),
                                         (3, 2, (0.25, 0.5, 0.75))])
def test_pyramid_matches_block_means_of_each_cube(d, L, shift):
    lat = dl.build_lattice(d, L, shift)
    r = np.random.default_rng(d)
    fs = [dl.random_grid_function(lat, scalar=True, seed=d),
          dl.GridFunction(lat, r.standard_normal((1 << L,) * d))]
    got, pyr = sp._pyramid(fs)
    assert got == lat
    cubes = lattice_cubes(lat)
    assert pyr.shape == (len(cubes), 2)
    for row, Q in zip(pyr, cubes):
        blk = _cell_block(lat, *Q)
        for j, f in enumerate(fs):
            mean = np.abs(f.aligned()[..., 0, 0])[blk].mean()
            assert abs(row[j] - mean) <= 1e-12 * mean


def test_maximal_dominates_function():
    lat = dl.build_lattice(2, 2)
    h = dl.random_grid_function(lat, seed=1)
    f = dl.GridFunction(lat, schatten_norms(h.values, 2))
    m = sp.multilinear_maximal([f])
    assert np.all(m.values.real + 1e-13 >= np.abs(f.values))


def test_maximal_monotone(rng):
    lat = dl.build_lattice(1, 4)
    f = [dl.GridFunction(lat, np.abs(rng.standard_normal(16))) for _ in range(2)]
    g = [dl.GridFunction(lat, np.abs(f[i].values[..., 0, 0]) + np.abs(rng.standard_normal(16)))
         for i in range(2)]
    mf = sp.multilinear_maximal(f)
    mg = sp.multilinear_maximal(g)
    assert np.all(mf.values.real <= mg.values.real + 1e-13)


def test_maximal_is_real():
    # float() of a complex mean warns (ComplexWarning), so a complex
    # maximal function would fail here
    lat = dl.build_lattice(2, 3, (0.25, 0.5))
    fs = [dl.random_grid_function(lat, seed=s) for s in (1, 2)]
    mx = sp.multilinear_maximal(fs)
    assert mx.values.dtype == np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(mx.values.mean()) > 0.0


def test_maximal_rejects_empty_and_matrix():
    lat = dl.build_lattice(1, 2)
    with pytest.raises(ValueError):
        sp.multilinear_maximal([])
    with pytest.raises(ValueError):
        sp.multilinear_maximal([dl.random_grid_function(lat, N=2, seed=0)])


def test_is_sparse_top_cube():
    lat = dl.build_lattice(1, 3)
    col = _tree(lat, ((0, (0,)),), [-1])
    assert sp.is_sparse(col, 0.99)


def test_is_sparse_nested_chain_fails():
    lat = dl.build_lattice(1, 4)
    cubes = [(lv, (0,)) for lv in range(5)]  # each the first child of the one before
    # each cube keeps the half of it outside its child: 1/2-sparse, no more
    col = _tree(lat, cubes, [-1, 0, 1, 2, 3])
    assert not sp.is_sparse(col, 0.6)
    assert sp.is_sparse(col, 0.4)
    # the same cubes as five roots overlap
    assert not sp.is_sparse(_tree(lat, cubes, [-1] * 5), 0.0)


def test_is_sparse_detects_leakage():
    lat = dl.build_lattice(1, 2)
    Q = (1, (0,))
    mask = np.zeros(4, dtype=bool)
    mask[2] = True  # outside Q
    # a tree's E_Q lies inside Q by construction; the dense checker sees masks
    assert not sp._masks_sparse(lat, (Q,), {Q: mask}, 0.1)


def test_stopping_constant_inputs():
    lat = dl.build_lattice(1, 4)
    col = sp.build_sparse_stopping([_ones(lat), _ones(lat, 2.0)], theta=5.0)
    assert len(col) == 1
    assert sp.sparse_form(col, [_ones(lat), _ones(lat, 2.0)]) == pytest.approx(2.0)


def test_stopping_spike_descends():
    lat = dl.build_lattice(1, 4)
    spike = dl.GridFunction(lat, 16.0 * (np.arange(16) == 5))
    col = sp.build_sparse_stopping([spike], theta=2.5)
    # the collection follows the spike down to the finest level
    assert col.level.max() == 4
    deepest = col.index[col.level == 4]
    assert all(index[0] == 5 for index in deepest.tolist())


def test_stopping_sparsity_random_inputs():
    for trial in range(100):
        r = np.random.default_rng(trial)
        lat = dl.build_lattice(1, 5)
        n1 = int(r.integers(2, 5))
        fs = [dl.GridFunction(lat, np.abs(r.standard_normal(32)) ** 2)
              for _ in range(n1)]
        theta = 2.0 * n1
        col = sp.build_sparse_stopping(fs, theta)
        assert col.eta == pytest.approx(0.5)
        assert sp.is_sparse(col, 0.5)


def test_stopping_rejects_small_theta():
    lat = dl.build_lattice(1, 3)
    with pytest.raises(ValueError):
        sp.build_sparse_stopping([_ones(lat), _ones(lat)], theta=2.0)


def test_sparse_form_examples():
    lat = dl.build_lattice(1, 3)
    col = _tree(lat, ((0, (0,)),), [-1])
    assert sp.sparse_form(col, [_ones(lat, 2.0), _ones(lat, 3.0)]) == pytest.approx(6.0)
    empty = _tree(lat, (), [])
    assert sp.sparse_form(empty, [_ones(lat)]) == 0.0


def test_sparse_form_bounded_by_maximal(rng):
    lat = dl.build_lattice(1, 5)
    for _ in range(25):
        fs = [dl.GridFunction(lat, np.abs(rng.standard_normal(32)))
              for _ in range(3)]
        col = sp.build_sparse_stopping(fs, theta=2.0 * 3)
        form = sp.sparse_form(col, fs)
        m = sp.multilinear_maximal(fs)
        l1 = float(m.values.real.mean())
        assert form <= 2.0 * l1 + 1e-12


def test_maximal_bounded_by_best_sparse_form(rng):
    # reverse comparison of the same pair, with a measured constant
    lat = dl.build_lattice(1, 5)
    worst = 0.0
    for _ in range(25):
        fs = [dl.GridFunction(lat, np.abs(rng.standard_normal(32)))
              for _ in range(3)]
        col = sp.build_sparse_stopping(fs, theta=2.0 * 3)
        form = sp.sparse_form(col, fs)
        l1 = float(sp.multilinear_maximal(fs).values.real.mean())
        if form > 0:
            worst = max(worst, l1 / form)
    assert math.isfinite(worst) and worst < 100.0


def _oracle_inputs(d, L):
    """(fs, theta) cases: random |g|^4 inputs, all-zero input and a spike."""
    lat = dl.build_lattice(d, L)
    shape = (1 << L,) * d
    cases = []
    for seed in range(4):
        r = np.random.default_rng(100 * d + 10 * L + seed)
        n1 = 1 + seed % 3
        fs = [dl.GridFunction(lat, np.abs(r.standard_normal(shape)) ** 4) for _ in range(n1)]
        cases += [(fs, theta) for theta in (n1 + 0.25, 2.0 * n1, 4.0 * n1)]
    spike = np.zeros(shape)
    spike[(1,) * d] = 1.0
    cases.append(([dl.GridFunction(lat, np.zeros(shape))], 2.0))
    cases.append(([dl.GridFunction(lat, spike), _ones(lat)], 3.0))
    return cases


def _tree_masks(col):
    """Dense witness masks of a cube tree: each cube minus its children."""
    lat = col.lattice
    grid = (lat.cells_per_axis,) * lat.dim
    cubes = _cubes(col)
    masks = [np.zeros(grid, dtype=bool) for _ in cubes]
    for Q, m in zip(cubes, masks):
        m[_cell_block(lat, *Q)] = True
    for Q, p in zip(cubes, col.parent):
        if p >= 0:
            masks[p][_cell_block(lat, *Q)] = False
    return {Q: m.reshape(-1) for Q, m in zip(cubes, masks)}


@pytest.mark.parametrize("d, L", [(1, 1), (1, 6), (2, 2), (2, 4), (3, 1), (3, 3)])
def test_stopping_tree_matches_recursive_oracle(d, L):
    lat = dl.build_lattice(d, L)
    for fs, theta in _oracle_inputs(d, L):
        col = sp.build_sparse_stopping(fs, theta)
        cubes, masks = sp._stopping_masks(fs, theta)
        assert _cubes(col) == cubes
        tree = _tree_masks(col)
        assert all(np.array_equal(tree[Q], masks[Q]) for Q in cubes)
        for eta in (0.0, col.eta, 0.5, 0.75, 0.95):
            assert sp.is_sparse(col, eta) == sp._masks_sparse(lat, cubes, masks, eta)
        form, oracle = sp.sparse_form(col, fs), sp._sparse_form_per_cube(cubes, fs)
        assert abs(form - oracle) <= 1e-12 * abs(oracle)


def test_stopping_lists_cubes_by_level_and_index_parents_first():
    built = 0
    for d, L in [(1, 6), (2, 4), (3, 3)]:
        for fs, theta in _oracle_inputs(d, L):
            col = sp.build_sparse_stopping(fs, theta)
            keys = _cubes(col)
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert col.parent[0] == -1 and np.all(col.parent[1:] >= 0)
            assert np.all(col.parent[1:] < np.arange(1, len(col)))
            built += len(col) > 1
    assert built > 0


def test_sparse_form_of_a_built_collection_reads_the_inputs_it_is_given():
    lat = dl.build_lattice(2, 4, (0.25, 0.5))
    r = np.random.default_rng(7)
    fs = [dl.GridFunction(lat, np.abs(r.standard_normal((16, 16))) ** 4) for _ in range(2)]
    col = sp.build_sparse_stopping(fs, 4.0)
    bare = sp.SparseCollection(lat, col.level, col.index, col.parent)
    assert len(col) > 1
    expected = sp.sparse_form(bare, fs)
    assert sp.sparse_form(col, fs) == expected
    others = [
        [fs[0], dl.GridFunction(lat, 2.0 * fs[1].values)],  # one input changed
        [fs[1], fs[0]],                                  # the inputs swapped
        [fs[0]],                                         # fewer inputs
        fs + [fs[0]],                                    # more inputs
        [dl.GridFunction(lat, np.ones((16, 16)))] * 2,   # other functions
    ]
    fs[0].values[3, 5] += 100.0  # the built-from input itself, changed in place
    others.append(fs)
    for gs in others:
        assert sp.sparse_form(col, gs) == sp.sparse_form(bare, gs)
        oracle = sp._sparse_form_per_cube(_cubes(col), gs)
        assert abs(sp.sparse_form(col, gs) - oracle) <= 1e-12 * oracle
    assert sp.sparse_form(col, fs) != expected


def test_stopping_oracle_inputs_reach_both_verdicts():
    # the agreement above covers collections with several levels and both verdicts
    verdicts, depths = set(), set()
    for fs, theta in _oracle_inputs(2, 4):
        col = sp.build_sparse_stopping(fs, theta)
        depths.add(int(col.level.max()))
        verdicts |= {sp.is_sparse(col, eta) for eta in (0.5, 0.95)}
    assert verdicts == {True, False} and max(depths) == 4 and min(depths) == 0


def test_is_sparse_agrees_with_masks_on_regrafted_trees():
    # hang a cube from its grandparent: its old parent's E_Q now covers it
    lat = dl.build_lattice(2, 4)
    moved = 0
    for fs, theta in _oracle_inputs(2, 4)[:12]:
        col = sp.build_sparse_stopping(fs, theta)
        for i in np.flatnonzero(col.parent >= 0):
            p = col.parent[i]
            if col.parent[p] < 0:
                continue
            parent = col.parent.copy()
            parent[i] = col.parent[p]
            tree = sp.SparseCollection(lat, col.level, col.index, parent)
            for eta in (0.0, 0.5):
                assert sp.is_sparse(tree, eta) == sp._masks_sparse(
                    lat, _cubes(tree), _tree_masks(tree), eta)
            assert not sp.is_sparse(tree, 0.0)
            moved += 1
    assert moved > 0


def test_is_sparse_rejects_malformed_trees():
    lat = dl.build_lattice(1, 3)
    top, left, right = (0, (0,)), (1, (0,)), (1, (1,))
    quarter = (2, (0,))

    def verdict(cubes, parent, eta=0.25):
        return sp.is_sparse(_tree(lat, cubes, parent), eta)

    assert verdict([top, left, quarter], [-1, 0, 1])
    assert not verdict([top, right, quarter], [-1, 0, 1])  # not inside its parent
    assert not verdict([top, left, quarter], [-1, 0, 0])   # siblings overlap
    assert not verdict([top, left, left], [-1, 0, 0])      # a cube listed twice
    assert not verdict([top, left], [-1, 1])               # parent below the cube
    assert not verdict([top, left], [-1, 2])               # no such parent
    assert not verdict([top, left], [-1, -2])
    assert not verdict([top, left, right], [-1, 0, 0])     # |E_top| = 0
    assert not verdict([top, left, quarter], [-1, 0, 1], eta=0.6)  # |E_Q| = |Q| / 2
    assert not verdict([(4, (0,))], [-1])                  # below the finest level
    assert not sp.is_sparse(sp.SparseCollection(lat, [1], [[2]], [-1]), 0.1)  # outside
    assert sp.is_sparse(_tree(lat, [], []), 0.99)
    with pytest.raises(ValueError):
        sp.SparseCollection(lat, [0, 1], [[0]], [-1, 0])


def test_universal_grids():
    grids = sp.universal_grids(1, 4)
    assert len(grids) == 3
    assert grids[0].shift == (0.0,)
    grids2 = sp.universal_grids(2, 3)
    assert len(grids2) == 9


def test_universal_sparse_search(rng):
    lat = dl.build_lattice(1, 5)
    fs = [dl.GridFunction(lat, np.abs(rng.standard_normal(32))) for _ in range(3)]
    col = sp.build_sparse_stopping(fs, theta=6.0)
    value = sp.sparse_form(col, fs)
    rep = sp.universal_sparse_bound(fs, value)
    assert rep["form"] > 0
    assert rep["constant"] < 50.0


def test_domination_zero_operator():
    lat = dl.build_lattice(1, 4)
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=1, scale=0.0)
    fs = [dl.random_grid_function(lat, N=2, seed=i) for i in range(3)]
    rep = sp.verify_sparse_domination(abs(mo.eval_shift_form(spec, fs)), fs)
    assert rep["lhs"] == 0.0 and rep["constant"] == 0.0


def test_domination_constants_scale_invariant(rng):
    lat = dl.build_lattice(1, 5)
    spec = mo.make_random_shift(lat, 2, (2, 0, 1), {2, 3}, seed=3)
    fs = [dl.random_grid_function(lat, N=2, seed=30 + i) for i in range(3)]
    rep1 = sp.verify_sparse_domination(abs(mo.eval_shift_form(spec, fs)), fs)
    scaled = [dl.GridFunction(lat, c * f.values) for c, f in zip((2.0, 0.25, 5.0), fs)]
    rep2 = sp.verify_sparse_domination(abs(mo.eval_shift_form(spec, scaled)), scaled)
    assert rep1["constant"] == pytest.approx(rep2["constant"], abs=1e-10)


def test_scalar_inputs_are_n1():
    lat = dl.build_lattice(2, 3, 1)
    fs = [dl.random_grid_function(lat, seed=s) for s in (1, 2)]
    col = sp.build_sparse_stopping(fs, 4.0)
    assert len(col) >= 1 and sp.sparse_form(col, fs) > 0.0
    bad = [fs[0], dl.random_grid_function(lat, N=2, seed=3)]
    for run in (lambda: sp.build_sparse_stopping(bad, 4.0), lambda: sp.sparse_form(col, bad),
                lambda: sp.multilinear_maximal(bad)):
        with pytest.raises(ValueError, match=r"inputs must be scalar \(N = 1\) functions"):
            run()


def test_universal_bound_needs_a_function():
    with pytest.raises(ValueError, match="need at least one function"):
        sp.universal_sparse_bound([], 1.0)


def test_domination_constant_paraproduct_constants():
    lat = dl.build_lattice(1, 4)
    h = dl.random_grid_function(lat, seed=2)
    pp = mo.ParaproductSpec(lat, 2, 1, mo.make_bmo_coeffs(lat, h))
    eye = dl.GridFunction(lat, np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    fs = [eye, eye, eye]
    rep = sp.verify_sparse_domination(abs(mo.eval_paraproduct_form(pp, fs)), fs)
    assert rep["lhs"] < 1e-13


def test_domination_report_on_rewrite_terms():
    lat = dl.build_lattice(1, 5)
    spec = mo.make_random_shift(lat, 2, (2, 0, 1), {2, 3}, seed=6)
    fs = [dl.random_grid_function(lat, N=2, seed=40 + i) for i in range(3)]
    for term in mo.reduce_shift(spec):
        rep = sp.verify_sparse_domination(abs(mo.eval_shift_form(term, fs)), fs, eta=0.5)
        assert math.isfinite(rep["constant"])
