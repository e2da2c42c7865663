import itertools
import math

import numpy as np
import pytest

from dyadlab import ncspaces as nc
from conftest import random_matrix, random_psd


def test_trace_examples():
    assert nc.trace(np.eye(2)) == 2
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1, 0]], dtype=complex)
    assert nc.trace(a @ b) == pytest.approx(1.0)
    assert nc.trace(b @ a) == pytest.approx(1.0)


def test_trace_cyclic_random(rng):
    for _ in range(100):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert abs(nc.trace(a @ b) - nc.trace(b @ a)) < 1e-12


def test_trace_rejects_rectangular():
    with pytest.raises(ValueError):
        nc.trace(np.ones((2, 3)))


def test_schatten_norm_examples():
    a = np.diag([3.0, 4.0])
    assert nc.schatten_norm(a, 2) == pytest.approx(5.0)
    assert nc.schatten_norm(a, 1) == pytest.approx(7.0)
    assert nc.schatten_norm(a, math.inf) == pytest.approx(4.0)
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    for p in (1, 1.5, 2, 7, math.inf):
        assert nc.schatten_norm(nil, p) == pytest.approx(1.0)


def test_schatten_frobenius(rng):
    a = random_matrix(rng, 4)
    assert nc.schatten_norm(a, 2) == pytest.approx(np.sqrt((np.abs(a) ** 2).sum()),
                                                   abs=1e-10)


def test_schatten_rejects_small_p():
    with pytest.raises(ValueError):
        nc.schatten_norm(np.eye(2), 0.5)


def test_schatten_monotone(rng):
    for _ in range(20):
        a = random_matrix(rng, 3)
        ps = [1.0, 1.5, 2.0, 3.0, 10.0, math.inf]
        vals = [nc.schatten_norm(a, p) for p in ps]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo * (1 + 1e-10)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_value_norms_take_scalars_as_1x1_matrices(rng, p):
    z = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    scalar = nc.value_norms(z, 0, p)
    as_matrices = nc.schatten_norms(z[..., None, None], p)
    assert scalar.shape == as_matrices.shape == (6, 5)
    assert np.all(np.abs(scalar - as_matrices) <= 1e-15 * as_matrices)
    assert np.array_equal(nc.value_norms(z[..., None, None], 2, p), as_matrices)


def test_value_norms_reject_other_values_and_small_exponents():
    with pytest.raises(ValueError, match="scalars or matrices"):
        nc.value_norms(np.ones((3, 2)), 1, 2.0)
    for ndim in (0, 2):
        with pytest.raises(ValueError, match="exponent"):
            nc.value_norms(np.ones((3, 2, 2)), ndim, 0.5)


def test_power_pos(rng):
    assert np.allclose(nc.power_pos(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))
    a = random_psd(rng, 3)
    assert np.abs(nc.power_pos(a, 1.0) - a).max() < 1e-12
    assert np.abs(nc.power_pos(a, 0.3) @ nc.power_pos(a, 0.7) - a).max() < 1e-9
    with pytest.raises(ValueError):
        nc.power_pos(random_matrix(rng, 3), 0.5)
    with pytest.raises(ValueError):
        nc.power_pos(-np.eye(2), 0.5)


def test_duality_maximizer(rng):
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        a = random_matrix(rng, 3)
        b = nc.schatten_dual_maximizer(a, p)
        attained = abs(nc.trace(a @ b))
        target = nc.schatten_norm(a, nc.conjugate_exponent(p))
        assert abs(attained - target) < 1e-9
        assert nc.schatten_norm(b, p) <= 1 + 1e-8


def test_y_norm_single_space():
    tab = nc.holder_tuple([2.0, 2.0])
    res = nc.y_norm(np.diag([1.0, 2.0]).astype(complex), [1], tab, budget=200)
    assert res.analytic == pytest.approx(math.sqrt(5))
    assert res.empirical == pytest.approx(math.sqrt(5), rel=1e-9)


def test_y_norm_pair():
    tab = nc.holder_tuple([3.0, 3.0, 3.0])
    y = np.diag([1.0, 2.0]).astype(complex)
    res = nc.y_norm(y, [1, 2], tab, budget=10_000, seed=3)
    assert res.analytic == pytest.approx(9 ** (1 / 3))
    assert res.empirical >= 0.95 * res.analytic
    assert res.empirical <= res.analytic * (1 + 1e-9)


def test_y_norm_zero_and_empty():
    tab = nc.holder_tuple([2.0, 2.0])
    res = nc.y_norm(np.zeros((2, 2)), [1], tab, budget=10)
    assert res.analytic == 0.0 and res.empirical == 0.0
    with pytest.raises(ValueError):
        nc.y_norm(np.eye(2), [], tab)


def test_product_trace_bound(rng):
    # |tr(e_{s(1)} .. e_{s(m)})| <= prod |e_j| for every permutation
    import itertools
    for ps in ([2.0, 2.0], [3.0, 3.0, 3.0], [2.0, 4.0, 4.0]):
        es = [random_matrix(rng, 3) for _ in ps]
        bound = 1.0
        for e, p in zip(es, ps):
            bound *= nc.schatten_norm(e, p)
        for perm in itertools.permutations(range(len(ps))):
            prod = es[perm[0]]
            for i in perm[1:]:
                prod = prod @ es[i]
            assert abs(np.trace(prod)) <= bound * (1 + 1e-10)


def test_exponent_table_validation():
    with pytest.raises(ValueError):
        nc.ExponentTable(((2.0, 2.0), (3.0, 2.0)))  # first column not Holder
    with pytest.raises(ValueError):
        nc.ExponentTable(((1.0,), (math.inf,)))
    tab = nc.ExponentTable(((2.0, 4.0), (2.0, 4.0 / 3.0)))
    assert tab.m == 2 and tab.S == 1
    assert tab.q_col([1, 2]) == pytest.approx((1.0, 1.0))
    assert tab.p_col([1])[0] == pytest.approx(2.0)


def test_exponent_table_json_roundtrip():
    tab = nc.ExponentTable(((2.0, 3.0), (2.0, 1.5)))
    again = nc.ExponentTable.from_json(tab.to_json())
    assert again == tab
    with pytest.raises(ValueError):
        nc.ExponentTable.from_json('{"m": 2, "S": 0, "p": [[2.0], [3.0]]}')


def test_nested_norm_examples():
    tab = nc.ExponentTable(((2.0, 2.0), (2.0, 2.0)))
    sp = nc.MixedSpace(((0.5, 0.5),), 1, tab)
    vals = np.array([[[3.0]], [[4.0]]], dtype=complex)
    expected = math.sqrt((9 + 16) / 2)
    assert nc.nested_norm(vals, sp, 1) == pytest.approx(expected)
    # constant leaf: norm is the Schatten norm when weights sum to one
    tab2 = nc.ExponentTable(((2.0, 5.0), (2.0, 5.0 / 4.0)))
    sp2 = nc.MixedSpace(((0.25, 0.75),), 2, tab2)
    leaf = np.diag([1.0, 2.0]).astype(complex)
    vals2 = np.stack([leaf, leaf])
    assert nc.nested_norm(vals2, sp2, 1) == pytest.approx(math.sqrt(5))


def test_nested_norm_fubini(rng):
    tab = nc.ExponentTable(((3.0, 3.0, 3.0), (3.0, 3.0, 3.0), (3.0, 3.0, 3.0)))
    sp = nc.MixedSpace(((0.2, 0.8), (0.5, 0.25, 0.25)), 2, tab)
    vals = rng.standard_normal((3, 2, 2, 2)) + 1j * rng.standard_normal((3, 2, 2, 2))
    assert abs(nc.nested_norm(vals, sp, 1) - nc.flat_product_norm(vals, sp, 3.0)) < 1e-10


def test_nested_norm_shape_mismatch():
    tab = nc.ExponentTable(((2.0, 2.0), (2.0, 2.0)))
    sp = nc.MixedSpace(((0.5, 0.5),), 2, tab)
    with pytest.raises(ValueError):
        nc.nested_norm(np.zeros((3, 2, 2)), sp, 1)


def test_factorize_positive_examples(rng):
    a = np.diag([0.2, 0.8]).astype(complex)
    f1, f2 = nc.factorize_positive(a, 1.0, [2.0, 2.0])
    assert np.abs(f1 - np.diag(np.sqrt([0.2, 0.8]))).max() < 1e-12
    assert np.abs(f1 @ f2 - a).max() < 1e-12
    # single factor
    (g,) = nc.factorize_positive(a, 1.0, [1.0])
    assert np.abs(g - a).max() < 1e-12
    # random round trips
    for seed in range(20):
        r = np.random.default_rng(seed)
        a = random_psd(r, 3)
        a = a / nc.schatten_norm(a, 1.0)
        fs = nc.factorize_positive(a, 1.0, [3.0, 3.0, 3.0])
        prod = fs[0] @ fs[1] @ fs[2]
        assert np.abs(prod - a).max() < 1e-9
        for f in fs:
            assert abs(nc.schatten_norm(f, 3.0) - 1.0) < 1e-9


def test_factorize_positive_rejects_nonunit():
    with pytest.raises(ValueError):
        nc.factorize_positive(2 * np.eye(2), 1.0, [2.0, 2.0])
    with pytest.raises(ValueError):
        nc.factorize_positive(np.eye(2) / nc.schatten_norm(np.eye(2), 1.0),
                              1.0, [2.0, 3.0])


def _mixed_space(N):
    tab = nc.ExponentTable(((3.0, 3.0), (3.0, 3.0), (3.0, 3.0)))
    return tab, nc.MixedSpace(((0.4, 0.6),), N, tab)


def test_factorize_mixed_roundtrip(rng):
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    raw = np.stack([random_psd(rng, 2) for _ in range(2)])
    f = raw / nc.nested_norm(raw, sp, 1, column=qcol)
    facs = nc.factorize_mixed(f, [1, 2], sp)
    prod = np.einsum("tij,tjk->tik", facs[0], facs[1])
    assert np.abs(prod - f).max() < 1e-8
    for fac, j in zip(facs, (1, 2)):
        assert abs(nc.nested_norm(fac, sp, j) - 1.0) < 1e-8


def test_factorize_mixed_constant_in_t(rng):
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    leaf = random_psd(rng, 2)
    raw = np.stack([leaf, leaf])
    f = raw / nc.nested_norm(raw, sp, 1, column=qcol)
    facs = nc.factorize_mixed(f, [1, 2], sp)
    for fac in facs:
        assert np.abs(fac[0] - fac[1]).max() < 1e-10


def test_factorize_mixed_zero_atom(rng):
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    raw = np.stack([random_psd(rng, 2), np.zeros((2, 2), dtype=complex)])
    f = raw / nc.nested_norm(raw, sp, 1, column=qcol)
    facs = nc.factorize_mixed(f, [1, 2], sp)
    assert np.abs(facs[0][1]).max() == 0.0
    prod = np.einsum("tij,tjk->tik", facs[0], facs[1])
    assert np.abs(prod - f).max() < 1e-8


def test_factorize_mixed_continuity(rng):
    # factor distance shrinks along a vanishing perturbation
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    raw = np.stack([random_psd(rng, 2) for _ in range(2)])
    f = raw / nc.nested_norm(raw, sp, 1, column=qcol)
    base = nc.factorize_mixed(f, [1, 2], sp)
    bump = np.stack([random_psd(rng, 2) for _ in range(2)])
    dists = []
    for k in range(1, 11):
        g = raw + 2.0 ** (-k) * bump
        g = g / nc.nested_norm(g, sp, 1, column=qcol)
        facs = nc.factorize_mixed(g, [1, 2], sp)
        dists.append(max(np.abs(facs[u] - base[u]).max() for u in range(2)))
    assert dists[-1] < 0.05
    assert dists[-1] < dists[0]


@pytest.mark.parametrize("ps, J", [([2.0, 2.0], [1]), ([3.0, 3.0, 3.0], [1, 2]),
                                   ([4.0, 4.0, 4.0, 4.0], [1, 2, 3])])
def test_y_norm_chunks_match_the_per_draw_oracle(monkeypatch, ps, J):
    # seven proposals a chunk: budgets 8 and 9 draw one chunk and one more
    # Gaussian proposal (the SVD-aligned candidate is the first of a budget)
    rng = np.random.default_rng(len(J))
    e = random_matrix(rng, 3)
    tab = nc.holder_tuple(ps)
    slots = [tab.column(j)[0] for j in J]
    perms = list(itertools.permutations(range(len(J))))
    monkeypatch.setattr(nc, "_CHUNK_BYTES", 7 * len(J) * 9 * 16)
    for budget in (1, 2, 8, 9, 1000):
        fast = nc._best_gaussian(e, slots, perms, budget - 1, budget)
        oracle = nc._best_gaussian_per_draw(e, slots, perms, budget - 1, budget)
        assert abs(fast - oracle) <= 1e-12 * oracle
        assert (fast == 0.0) == (budget == 1)
        res = nc.y_norm(e, J, tab, budget=budget, seed=budget)
        assert res.empirical >= fast and res.empirical <= res.analytic * (1 + 1e-12)
