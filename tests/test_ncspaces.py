import itertools
import math

import numpy as np
import pytest

from dyadlab import criteria as cr
from dyadlab import ncspaces as nc
from conftest import random_matrix, random_psd


def test_trace_examples():
    assert np.trace(np.eye(2)) == 2
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.trace(a @ b) == pytest.approx(1.0)
    assert np.trace(b @ a) == pytest.approx(1.0)


def test_trace_cyclic_random(rng):
    for _ in range(100):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


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


def _svd_schatten_norms(stack, p):
    s = np.linalg.svd(stack, compute_uv=False)
    return s.max(axis=-1) if np.isinf(p) else (s ** p).sum(axis=-1) ** (1.0 / p)


def _norm_cases(rng, N):
    g = rng.standard_normal((40, N, N)) + 1j * rng.standard_normal((40, N, N))
    # small integer entries: u v has exact products, so it is exactly rank one
    u = rng.integers(-8, 9, (40, N, 1)) + 1j * rng.integers(-8, 9, (40, N, 1))
    v = rng.integers(-8, 9, (40, 1, N)) + 1j * rng.integers(-8, 9, (40, 1, N))
    q, _ = np.linalg.qr(g)
    return {
        "random": g,
        "hermitian-psd": g @ np.swapaxes(g.conj(), -1, -2),
        "rank-one": u @ v,
        "rank-one+noise": u @ v + 1e-9 * g,
        # equal singular values
        "scaled-unitary": q * rng.uniform(0.5, 2.0, (40, 1, 1)),
        "zero": np.zeros((3, N, N)),
        "leading-axes": g.reshape(2, 4, 5, N, N),
        "empty": np.zeros((0, N, N)),
    }


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 3.0, 4.0, math.inf])
def test_schatten_norms_match_the_svd(rng, p, N):
    scales = [1.0, 2.0 ** 60, 2.0 ** -60]
    # at 2^+-400, s^p of p = 3, 4 leaves the float range in the reduction
    if p <= 2 or np.isinf(p):
        scales += [2.0 ** 400, 2.0 ** -400]
    for name, stack in _norm_cases(rng, N).items():
        for scale in scales:
            a = stack * scale
            got, want = nc.schatten_norms(a, p), _svd_schatten_norms(a, p)
            assert got.shape == want.shape == a.shape[:-2]
            assert np.all(np.abs(got - want) <= 1e-12 * want), (name, scale)
    a = _norm_cases(rng, N)["random"][0]
    assert nc.schatten_norm(a, p) == float(nc.schatten_norms(a, p))


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 3.0, math.inf])
def test_schatten_norms_of_1x1_matrices_are_the_modulus(rng, p):
    # a scalar is a 1x1 matrix with one singular value, |z|, at every p:
    # equal to np.abs, not the Frobenius form sqrt(re^2 + im^2), which rounds
    # differently, and no overflow or underflow at 2^+-400
    z = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    for scale in (1.0, 2.0 ** 400, 2.0 ** -400):
        a = (z * scale)[..., None, None]
        got = nc.schatten_norms(a, p)
        assert got.shape == (6, 5)
        assert np.array_equal(got, np.abs(z * scale))
    real = rng.standard_normal((7, 1, 1))
    assert np.array_equal(nc.schatten_norms(real, p), np.abs(real[:, 0, 0]))
    assert nc.schatten_norm(np.array([[3 - 4j]]), p) == 5.0


def test_schatten_norms_of_1x1_matrices_reject_small_exponents():
    with pytest.raises(ValueError, match="exponent"):
        nc.schatten_norms(np.ones((3, 1, 1)), 0.5)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_chain_matches_matmul(N):
    # the broadcasts in use: (R, N, N) stacks in forms and Leibniz products,
    # (M + 1, R) stacks against (M + 1, R) stacks and (R,) against (R,) in
    # paraproduct_split, and one (N, N) matrix against a (B, N, N) stack in
    # _best_gaussian; (M + 1, R) against (R,) checks the broadcast over
    # leading axes that chain promises
    rng = np.random.default_rng(N)

    def stack(*lead):
        return rng.standard_normal(lead + (N, N)) + 1j * rng.standard_normal(lead + (N, N))

    blocks, other, mean, e = stack(7, 64), stack(7, 64), stack(64), stack()
    for f, g in ((blocks, other), (blocks, mean), (mean, blocks), (e, mean), (mean, e), (e, e)):
        got = nc.chain([f, g])
        want = f @ g
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * (np.abs(f) @ np.abs(g)))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_chain_rows_equal_single_chains(N):
    rng = np.random.default_rng(10 + N)
    mats = [rng.standard_normal((33, N, N)) + 1j * rng.standard_normal((33, N, N))
            for _ in range(4)]
    e = mats[0][0]
    rows = nc.chain(mats)
    with_e = nc.chain([e, *mats[1:]])
    for r in range(33):
        assert nc.chain([m[r] for m in mats]).tobytes() == rows[r].tobytes()
        assert nc.chain([e, *(m[r] for m in mats[1:])]).tobytes() == with_e[r].tobytes()


@pytest.mark.parametrize("a, b", [
    (np.ones((4, 2, 3)), np.ones((4, 2, 3))),   # not square
    (np.ones((2, 2)), np.ones((3, 3))),         # sizes differ
    (np.ones((4, 2, 2)), np.ones((4, 2))),      # not a matrix
    (np.ones(2), np.ones(2)),
])
def test_chain_rejects_mismatched_shapes(a, b):
    with pytest.raises(ValueError, match="cannot multiply"):
        nc.chain([a, b])


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
        b = nc.dual_maximizers(a, p)
        attained = abs(np.trace(a @ b))
        target = nc.schatten_norm(a, nc.conjugate_exponent(p))
        assert abs(attained - target) < 1e-9
        assert nc.schatten_norm(b, p) <= 1 + 1e-8


def test_power_pos_stack_equals_one_call_per_matrix_and_exponent(rng):
    stack = np.stack([random_psd(rng, 3) for _ in range(5)])
    stack[2] = 0.0
    thetas = [0.3, 0.5, 1.0, 2.5]
    powers = nc.power_pos(stack, thetas)
    assert len(powers) == len(thetas)
    for theta, power in zip(thetas, powers):
        assert power.shape == stack.shape
        for a, got in zip(stack, power):
            assert nc.power_pos(a, theta).tobytes() == got.tobytes()
    assert nc.power_pos(stack, 0.5).tobytes() == powers[1].tobytes()


@pytest.mark.parametrize("bad", ["Hermitian", "positive semidefinite"])
def test_power_pos_rejects_one_bad_member_of_a_stack(rng, bad):
    stack = np.stack([random_psd(rng, 3) for _ in range(4)])
    stack[2] = random_matrix(rng, 3) if bad == "Hermitian" else -stack[2]
    with pytest.raises(ValueError, match=bad):
        nc.power_pos(stack, 0.5)
    with pytest.raises(ValueError, match=bad):
        nc.power_pos(stack, [0.5, 1.0])


def _dual_stack(rng):
    """Five 3x3 matrices: two random, one whose SVD gives the tied
    singular values (4, 4, 1) exactly, a zero matrix and a rank-one
    matrix."""
    tied = np.array([[0.0, 4.0j, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    x, y = random_matrix(rng, 3)[:, :1], random_matrix(rng, 3)[:1]
    return np.stack([random_matrix(rng, 3), tied, np.zeros((3, 3)), x @ y,
                     random_matrix(rng, 3)])


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 4.0, math.inf])
def test_dual_maximizers_stack_equals_one_call_per_matrix(rng, p):
    stack = _dual_stack(rng)
    b = nc.dual_maximizers(stack, p)
    assert b.shape == stack.shape
    for a, got in zip(stack, b):
        assert nc.dual_maximizers(a, p).tobytes() == got.tobytes()


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 4.0, math.inf])
def test_dual_maximizers_attain_the_dual_norm_with_unit_norm(rng, p):
    stack = _dual_stack(rng)
    b = nc.dual_maximizers(stack, p)
    pairing = np.trace(nc.chain([stack, b]), axis1=-2, axis2=-1)
    target = nc.schatten_norms(stack, nc.conjugate_exponent(p))
    assert np.all(np.abs(pairing - target) <= 1e-12 * np.maximum(1.0, target))
    assert np.all(np.abs(nc.schatten_norms(b, p) - 1.0) <= 1e-12)
    # a zero matrix gets E_11; tied top singular values share the weight at p = 1
    assert np.array_equal(b[2], np.eye(3)[:1].T @ np.eye(3)[:1])
    if p == 1.0:
        assert np.allclose(np.linalg.svd(b[1], compute_uv=False), [0.5, 0.5, 0.0], atol=1e-12)


@pytest.mark.parametrize("ps", [[2.0, 2.0], [3.0, 3.0], [2.0, 4.0, 4.0], [4.0, 4.0, 4.0]])
def test_aligned_factors_are_unit_and_multiply_to_the_maximizer(rng, ps):
    q = 1.0 / sum(1.0 / p for p in ps)
    for e in _dual_stack(rng):
        factors = nc._aligned_factors(e, q, ps)
        assert np.abs(nc.chain(factors) - nc.dual_maximizers(e, q)).max() <= 1e-12
        for fac, p in zip(factors, ps):
            assert abs(nc.schatten_norm(fac, p) - 1.0) <= 1e-12


# the Hoelder cases (table, index set) of criterion 5
_HOLDER_CASES = [([2.0, 2.0], [1]), ([3.0, 3.0, 3.0], [1, 2]),
                 ([2.0, 4.0, 4.0], [1, 2]), ([4.0, 4.0, 4.0, 4.0], [1, 2, 3])]


def test_gaussian_search_alone_reaches_most_of_the_dual_norm():
    # the twelve cases of criterion 5, whose aligned candidate alone
    # attains the dual norm; here the 9,999 Gaussian proposals are scored
    # without it
    rng = np.random.default_rng(6)
    for N in (1, 2, 3):
        for ps, J in _HOLDER_CASES:
            e = random_matrix(rng, N)
            tab = nc.holder_tuple(ps)
            seed = int(rng.integers(2 ** 31))
            analytic = nc.y_norm(e, J, tab, budget=1).analytic
            perms = list(itertools.permutations(range(len(J))))
            best = nc._best_gaussian(e, [tab.column(j)[0] for j in J], perms, 9_999, seed)
            assert 0.6 * analytic <= best <= analytic * (1 + cr.DUAL_SLACK), (N, ps, J)


def _unpruned_best_gaussian(e, ps, perms, draws, seed):
    """Reference of ``nc._best_gaussian`` without its Frobenius bound:
    every proposal of every chunk normalized and scored."""
    rng = np.random.default_rng(seed)
    n, k = e.shape[0], len(ps)
    rows = max(1, nc._CHUNK_BYTES // (k * n * n * 16))
    eye = np.eye(n, dtype=np.complex128)
    best = 0.0
    for start in range(0, max(0, draws), rows):
        x = rng.standard_normal((min(rows, draws - start), k, 2, n, n))
        g = x[:, :, 0] + 1j * x[:, :, 1]
        for u, p in enumerate(ps):
            nrm = nc.schatten_norms(g[:, u], p)
            pos = nrm > 0
            g[pos, u] /= nrm[pos, None, None]
            g[~pos, u] = eye
        for perm in perms:
            prod = nc.chain([e, *(g[:, i] for i in perm)])
            best = max(best, float(np.abs(np.trace(prod, axis1=-2, axis2=-1)).max()))
    return best


def _slots_and_perms(ps, J):
    tab = nc.holder_tuple(ps)
    return [tab.column(j)[0] for j in J], list(itertools.permutations(range(len(J))))


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("ps, J", _HOLDER_CASES)
def test_pruned_gaussian_search_equals_the_unpruned_search(monkeypatch, ps, J, N):
    # seven proposals a chunk, so the bound prunes from the second chunk
    # on; 9,999 draws run at the default chunk size (1,429 chunks of seven
    # would take seconds)
    rng = np.random.default_rng(N)
    e = random_matrix(rng, N)
    slots, perms = _slots_and_perms(ps, J)
    default = nc._CHUNK_BYTES
    for draws in (0, 1, 7, 8, 999, 9_999):
        monkeypatch.setattr(nc, "_CHUNK_BYTES",
                            default if draws == 9_999 else 7 * len(J) * N * N * 16)
        seed = int(rng.integers(2 ** 31))
        want = _unpruned_best_gaussian(e, slots, perms, draws, seed)
        assert nc._best_gaussian(e, slots, perms, draws, seed) == want, draws


def test_gaussian_search_normalizes_few_proposals(monkeypatch):
    # every proposal is bounded by its Frobenius norms, and only the few
    # that can still win are normalized
    calls, schatten_norms = [], nc.schatten_norms

    def counted(stack, p):
        calls.append((p, len(stack)))
        return schatten_norms(stack, p)

    monkeypatch.setattr(nc, "schatten_norms", counted)
    e = random_matrix(np.random.default_rng(3), 3)
    slots, perms = _slots_and_perms([3.0, 3.0, 3.0], [1, 2])
    nc._best_gaussian(e, slots, perms, 9_999, 3)
    assert sum(n for p, n in calls if p == 2) == 2 * 9_999
    assert sum(n for p, n in calls if p != 2) <= 0.2 * 2 * 9_999


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_frobenius_bound_is_at_most_the_schatten_norm(rng, p, N):
    # |g|_p >= N^min(0, 1/p - 1/2) |g|_F, tight for the identity at
    # p >= 2 and for rank one at p <= 2
    u, v = random_matrix(rng, N)[:, :1], random_matrix(rng, N)[:, :1]
    stack = np.stack([*(random_matrix(rng, N) for _ in range(20)),
                      u @ v.conj().T, np.eye(N, dtype=complex)])
    bound = N ** min(0.0, 1.0 / p - 0.5) * nc.schatten_norms(stack, 2)
    exact = nc.schatten_norms(stack, p)
    assert np.all(bound <= exact * (1 + 1e-12))
    tight = [-1] if p >= 2 else [-2]
    assert np.all(np.abs(bound[tight] - exact[tight]) <= 1e-12 * exact[tight])


class _ZeroNormals:
    """A generator whose normal draws are all zero."""

    def __init__(self, seed):
        pass

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_zero_proposals_score_the_trace_of_e(monkeypatch):
    # every proposal is the zero matrix in each slot, normalized to the
    # identity, so each scores |tr e|; the bound, which keeps them from the
    # second chunk of seven on, must not divide 0 by 0.
    # The chunks take |.| with numpy's array absolute, the oracle with the
    # scalar one, and SIMD builds may round the two apart in the last bit.
    rng = np.random.default_rng(8)
    monkeypatch.setattr(np.random, "default_rng", _ZeroNormals)
    for N in (1, 2, 3):
        for ps, J in _HOLDER_CASES:
            e = random_matrix(rng, N)
            slots, perms = _slots_and_perms(ps, J)
            monkeypatch.setattr(nc, "_CHUNK_BYTES", 7 * len(J) * N * N * 16)
            for draws in (1, 20):
                assert nc._best_gaussian(e, slots, perms, draws, 0) == np.abs([np.trace(e)])[0]
                assert nc._best_gaussian_per_draw(e, slots, perms, draws, 0) == abs(np.trace(e))


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


def test_nested_norm_examples():
    tab = nc.ExponentTable(((2.0, 2.0), (2.0, 2.0)))
    sp = nc.MixedSpace(((0.5, 0.5),), 1, tab)
    vals = np.array([[[3.0]], [[4.0]]], dtype=complex)
    expected = math.sqrt((9 + 16) / 2)
    assert nc.nested_norm(vals, sp, tab.column(1)) == pytest.approx(expected)
    # constant leaf: norm is the Schatten norm when weights sum to one
    tab2 = nc.ExponentTable(((2.0, 5.0), (2.0, 5.0 / 4.0)))
    sp2 = nc.MixedSpace(((0.25, 0.75),), 2, tab2)
    leaf = np.diag([1.0, 2.0]).astype(complex)
    vals2 = np.stack([leaf, leaf])
    assert nc.nested_norm(vals2, sp2, tab2.column(1)) == pytest.approx(math.sqrt(5))


def test_nested_norm_fubini(rng):
    tab = nc.ExponentTable(((3.0, 3.0, 3.0), (3.0, 3.0, 3.0), (3.0, 3.0, 3.0)))
    sp = nc.MixedSpace(((0.2, 0.8), (0.5, 0.25, 0.25)), 2, tab)
    vals = rng.standard_normal((3, 2, 2, 2)) + 1j * rng.standard_normal((3, 2, 2, 2))
    assert abs(nc.nested_norm(vals, sp, tab.column(1))
               - nc.flat_product_norm(vals, sp, 3.0)) < 1e-10


def test_nested_norm_shape_mismatch():
    tab = nc.ExponentTable(((2.0, 2.0), (2.0, 2.0)))
    sp = nc.MixedSpace(((0.5, 0.5),), 2, tab)
    with pytest.raises(ValueError):
        nc.nested_norm(np.zeros((3, 2, 2)), sp, tab.column(1))


def test_factorize_positive_examples(rng):
    a = np.diag([0.2, 0.8]).astype(complex)
    f1, f2 = nc.factorize_positive(a, [2.0, 2.0])
    assert np.abs(f1 - np.diag(np.sqrt([0.2, 0.8]))).max() < 1e-12
    assert np.abs(f1 @ f2 - a).max() < 1e-12
    # single factor
    (g,) = nc.factorize_positive(a, [1.0])
    assert np.abs(g - a).max() < 1e-12
    # random round trips
    for seed in range(20):
        r = np.random.default_rng(seed)
        a = random_psd(r, 3)
        a = a / nc.schatten_norm(a, 1.0)
        fs = nc.factorize_positive(a, [3.0, 3.0, 3.0])
        prod = fs[0] @ fs[1] @ fs[2]
        assert np.abs(prod - a).max() < 1e-9
        for f in fs:
            assert abs(nc.schatten_norm(f, 3.0) - 1.0) < 1e-9


def test_factorize_positive_rejects_nonunit():
    with pytest.raises(ValueError):
        nc.factorize_positive(2 * np.eye(2), [2.0, 2.0])
    # 1/q = 1/2 + 1/3: a unit trace-norm matrix is not unit in S^(6/5)
    with pytest.raises(ValueError, match="unit S"):
        nc.factorize_positive(np.eye(2) / nc.schatten_norm(np.eye(2), 1.0), [2.0, 3.0])
    a = np.eye(2) / nc.schatten_norm(np.eye(2), 1.2)
    f1, f2 = nc.factorize_positive(a, [2.0, 3.0])
    assert np.abs(f1 @ f2 - a).max() < 1e-12
    assert abs(nc.schatten_norm(f1, 2.0) - 1.0) < 1e-12
    assert abs(nc.schatten_norm(f2, 3.0) - 1.0) < 1e-12


def test_factorization_roundtrips_scale_to_the_exponents_q():
    # 1/q = 1/2 + 1/3: the check scales diag(1, 2) to unit S^(6/5) norm, not
    # unit trace norm, which factorize_positive would reject
    flat, _ = cr.factorization_roundtrips([(np.diag([1.0, 2.0]), [2.0, 3.0])], [])
    assert flat["pass"] is True and flat["max_error"] < 1e-12


def _mixed_space(N):
    tab = nc.ExponentTable(((3.0, 3.0), (3.0, 3.0), (3.0, 3.0)))
    return tab, nc.MixedSpace(((0.4, 0.6),), N, tab)


def test_factorize_mixed_roundtrip(rng):
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    raw = np.stack([random_psd(rng, 2) for _ in range(2)])
    f = raw / nc.nested_norm(raw, sp, qcol)
    facs = nc.factorize_mixed(f, [1, 2], sp)
    prod = np.einsum("tij,tjk->tik", facs[0], facs[1])
    assert np.abs(prod - f).max() < 1e-8
    for fac, j in zip(facs, (1, 2)):
        assert abs(nc.nested_norm(fac, sp, sp.table.column(j)) - 1.0) < 1e-8


def test_factorize_mixed_constant_in_t(rng):
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    leaf = random_psd(rng, 2)
    raw = np.stack([leaf, leaf])
    f = raw / nc.nested_norm(raw, sp, qcol)
    facs = nc.factorize_mixed(f, [1, 2], sp)
    for fac in facs:
        assert np.abs(fac[0] - fac[1]).max() < 1e-10


def test_factorize_mixed_zero_atom(rng):
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    raw = np.stack([random_psd(rng, 2), np.zeros((2, 2), dtype=complex)])
    f = raw / nc.nested_norm(raw, sp, qcol)
    facs = nc.factorize_mixed(f, [1, 2], sp)
    assert np.abs(facs[0][1]).max() == 0.0
    prod = np.einsum("tij,tjk->tik", facs[0], facs[1])
    assert np.abs(prod - f).max() < 1e-8


def test_factorize_mixed_continuity(rng):
    # factor distance shrinks along a vanishing perturbation
    tab, sp = _mixed_space(2)
    qcol = tab.q_col([1, 2])
    raw = np.stack([random_psd(rng, 2) for _ in range(2)])
    f = raw / nc.nested_norm(raw, sp, qcol)
    base = nc.factorize_mixed(f, [1, 2], sp)
    bump = np.stack([random_psd(rng, 2) for _ in range(2)])
    dists = []
    for k in range(1, 11):
        g = raw + 2.0 ** (-k) * bump
        g = g / nc.nested_norm(g, sp, qcol)
        facs = nc.factorize_mixed(g, [1, 2], sp)
        dists.append(max(np.abs(facs[u] - base[u]).max() for u in range(2)))
    assert dists[-1] < 0.05
    assert dists[-1] < dists[0]


# p_j^s for j = 1, 2, 3 and levels s = 0..3: varies by level, and each
# column is a Holder tuple; atom weights of levels 1..3
_DEEP_TABLE = ((3.0, 4.0, 2.5, 6.0), (3.0, 2.0, 5.0, 2.0), (3.0, 4.0, 2.5, 3.0))
_DEEP_WEIGHTS = ((0.5, 0.25, 0.25), (0.3, 0.7), (0.6, 0.4))


def _deep_tree(rng, S, J, zero=None):
    """A positive value tree with S atom levels, of unit nested norm in
    the q_J column; the outermost subtree ``zero`` is zero."""
    tab = nc.ExponentTable(tuple(row[:S + 1] for row in _DEEP_TABLE))
    sp = nc.MixedSpace(_DEEP_WEIGHTS[:S], 2, tab)
    shape = sp.value_shape()
    raw = np.stack([random_psd(rng, 2) for _ in range(math.prod(shape[:-2]))]).reshape(shape)
    if zero is not None:
        raw[zero] = 0.0
    return raw / nc.nested_norm(raw, sp, tab.q_col(J)), sp


@pytest.mark.parametrize("S", [2, 3])
@pytest.mark.parametrize("J", [[1, 2], [1, 2, 3]])
def test_factorize_mixed_several_levels(rng, S, J):
    f, sp = _deep_tree(rng, S, J)
    facs = nc.factorize_mixed(f, J, sp)
    assert np.abs(nc.chain(facs) - f).max() < 1e-12
    for fac, j in zip(facs, J):
        assert abs(nc.nested_norm(fac, sp, sp.table.column(j)) - 1.0) < 1e-12


def test_factorize_mixed_zero_subtree(rng):
    f, sp = _deep_tree(rng, 2, [1, 2], zero=1)
    facs = nc.factorize_mixed(f, [1, 2], sp)
    for fac in facs:
        assert np.all(fac[1] == 0.0)
    assert np.abs(nc.chain(facs) - f).max() < 1e-12


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
