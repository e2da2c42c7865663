import json
import math
import tracemalloc

import numpy as np
import pytest

import dyadlab as dl
from dyadlab import lattice as lt
from dyadlab.criteria import IDENTITY_TOL
from dyadlab.lattice import _cell_block, from_aligned, haar_level

from conftest import lattice_cubes


def test_standard_grid_cells():
    lat = dl.build_lattice(1, 3)
    assert lat.num_cells == 8
    assert lat.shift == (0.0,)
    # level-l cube count
    for lv in range(4):
        assert len(lattice_cubes(lat, lv)) == 2 ** lv


def test_shift_by_cell_multiple_permutes_cells():
    lat = dl.build_lattice(1, 3, (0.5,))
    assert lat.shift_cells == (4,)
    # finest cells of the shifted lattice are the standard cells
    f = dl.GridFunction(lat, np.arange(8, dtype=float))
    for level, index in lattice_cubes(lat, 3):
        assert dl.average(f, level, index) == pytest.approx(f.values[(index[0] + 4) % 8])


def test_random_lattice_deterministic():
    a = dl.build_lattice(2, 2, 7)
    b = dl.build_lattice(2, 2, 7)
    assert a == b


def test_nonquantized_shift_rejected():
    with pytest.raises(ValueError):
        dl.build_lattice(1, 3, (0.3,))
    with pytest.raises(ValueError):
        dl.build_lattice(1, 3, (1.0,))


def test_shift_must_be_an_exact_multiple_at_every_depth():
    # s 2^L is exact in floating point, so half a cell, or less, is never rounded away
    for L in (27, 29, 30):
        with pytest.raises(lt.FieldError, match=rf"^field shift is rejected: 0.3 is not a "
                           rf"multiple of 2\^-{L}"):
            dl.build_lattice(1, L, (0.3,))
    for k in (3, 2 ** 53 - 1):
        assert dl.build_lattice(1, 62, (k * 2.0 ** -62,)).shift_cells == (k,)


@pytest.mark.parametrize("d, L", [(1, 62), (2, 31), (3, 20), (62, 1)])
def test_lattice_size_bound(d, L):
    # dim * depth <= 62, so the heap number of every cube fits an int64
    assert dl.build_lattice(d, L).depth == L
    for bad in [(d, L + 1), (d + 1, L)]:
        with pytest.raises(lt.FieldError, match=r"^field depth is rejected: dimension \* depth"):
            dl.build_lattice(*bad, 0)
        with pytest.raises(lt.FieldError, match=r"^field depth is rejected"):
            dl.Lattice(*bad, (0,) * bad[0])


def test_haar_values_1d():
    lat = dl.build_lattice(1, 3)
    h = dl.haar(lat, 0, (0,), 1)
    assert np.allclose(h.values[:4], 1.0) and np.allclose(h.values[4:], -1.0)
    h0 = dl.haar(lat, 1, (0,), 0)
    assert np.allclose(h0.values[:4], np.sqrt(2)) and np.allclose(h0.values[4:], 0.0)


def test_haar_tensor_2d_sign_pattern():
    lat = dl.build_lattice(2, 1)
    h = dl.haar(lat, 0, (0, 0), 1)
    # split in the first coordinate only
    assert np.allclose(h.values[0, :], 1.0)
    assert np.allclose(h.values[1, :], -1.0)


def test_haar_cancellative_needs_children():
    lat = dl.build_lattice(1, 2)
    with pytest.raises(ValueError):
        dl.haar(lat, 2, (0,), 1)


@pytest.mark.parametrize("cube, eta", [
    ((0, (0, 0)), -1),
    ((0, (0, 0)), 4),    # a mask needs eta < 2^d
    ((0, (0,)), 1),      # a 1-d cube on a 2-d lattice
    ((3, (0, 0)), 0),    # a level beyond the depth
    ((-1, (0, 0)), 0),
    ((1, (0, 2)), 1),    # an index outside [0, 2^level)
    ((1, (-1, 0)), 1),
])
def test_haar_rejects_bad_index(cube, eta):
    with pytest.raises(ValueError):
        dl.haar(dl.build_lattice(2, 2), *cube, eta)


def test_haar_l2_normalized(rng):
    lat = dl.build_lattice(2, 3, 11)
    for level, index, eta in [(0, (0, 0), 3), (2, (1, 3), 1), (1, (0, 1), 2), (3, (5, 2), 0)]:
        h = dl.haar(lat, level, index, eta)
        assert (np.abs(h.values) ** 2).sum() * lat.cell_volume == pytest.approx(1.0, abs=1e-12)


def test_orthonormality_small_lattices():
    for d, L in [(1, 4), (2, 3)]:
        lat = dl.build_lattice(d, L, 3)
        haars = [dl.haar(lat, level, index, eta)
                 for level, index in lattice_cubes(lat) if level < L
                 for eta in range(1, 1 << d)]
        vecs = np.stack([h.values.reshape(-1) for h in haars])
        gram = (vecs * lat.cell_volume) @ vecs.conj().T
        assert np.abs(gram - np.eye(len(haars))).max() < 1e-12


def test_average_examples():
    lat = dl.build_lattice(1, 3)
    c = dl.GridFunction(lat, np.full(8, 2.5 + 1j))
    assert dl.average(c, 2, (1,)) == pytest.approx(2.5 + 1j)
    ind = dl.GridFunction(lat, (np.arange(8) < 4).astype(float))
    assert dl.average(ind, 0, (0,)) == pytest.approx(0.5)


def test_average_matrix_entrywise(rng):
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, N=2, seed=5)
    Q = (1, (1,))
    m = dl.average(f, *Q)
    for i in range(2):
        for j in range(2):
            comp = dl.GridFunction(lat, f.values[:, i, j])
            assert m[i, j] == pytest.approx(dl.average(comp, *Q), abs=1e-12)


def test_martingale_diff_basics():
    lat = dl.build_lattice(1, 3)
    c = dl.GridFunction(lat, np.full(8, 3.0))
    Q = (1, (0,))
    assert np.abs(dl.martingale_diff(c, *Q).values).max() < 1e-15
    h = dl.haar(lat, *Q, 1)
    assert np.abs(dl.martingale_diff(h, *Q).values - h.values).max() < 1e-12


def test_martingale_diff_haar_expansion():
    lat = dl.build_lattice(2, 2)
    f = dl.random_grid_function(lat, seed=1)
    Q = (0, (0, 0))
    target = dl.martingale_diff(f, *Q)
    acc = np.zeros_like(f.values)
    for eta in range(1, 4):
        h = dl.haar(lat, *Q, eta)
        acc = acc + dl.pairing(f, h) * h.values
    assert np.abs(acc - target.values).max() < 1e-12


def test_martingale_diff_integral_zero():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=2)
    for level, index in lattice_cubes(lat):
        if level < 4:
            assert abs(dl.integral(dl.martingale_diff(f, level, index))) < 1e-12


def test_depth_k_operators():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=3)
    Q = (1, (1,))
    # brute-force sums over depth-2 descendants
    acc, avg = np.zeros_like(f.values), np.zeros_like(f.values)
    for R in lattice_cubes(lat, 3):
        if tuple(i >> 2 for i in R[1]) == Q[1]:  # Q is R's ancestor 2 levels up
            acc = acc + dl.martingale_diff(f, *R).values
            avg = avg + dl.expect(f, *R).values
    assert np.abs(dl.martingale_diff(f, *Q, 2).values - acc).max() < 1e-12
    assert np.abs(dl.expect(f, *Q, 2).values - avg).max() < 1e-12


def test_depth_overflow_rejected():
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, seed=1)
    for op, level, k in [(dl.expect, 1, 3), (dl.expect, 1, -1), (dl.martingale_diff, 1, 2),
                         (dl.martingale_diff, 3, 0), (dl.martingale_diff, 1, -1)]:
        with pytest.raises(ValueError, match="descendant level exceeds lattice depth"):
            op(f, level, (0,), k)


def test_average_expansion_identity():
    # E_K^k f = sum_{l<k} Delta_K^l f + E_K f for all admissible (K, k)
    for d, L in [(1, 4), (2, 3)]:
        lat = dl.build_lattice(d, L, 9)
        f = dl.random_grid_function(lat, N=2, seed=4)
        for K in lattice_cubes(lat):
            for k in range(L - K[0] + 1):
                lhs = dl.expect(f, *K, k)
                rhs = dl.expect(f, *K).values
                for l in range(k):
                    rhs = rhs + dl.martingale_diff(f, *K, l).values
                assert np.abs(lhs.values - rhs).max() < 1e-12


def test_telescoping():
    lat = dl.build_lattice(2, 3, 21)
    f = dl.random_grid_function(lat, N=2, seed=5)
    g = np.broadcast_to(dl.integral(f), f.values.shape).copy()
    for level, index in lattice_cubes(lat):
        if level < 3:
            g += dl.martingale_diff(f, level, index).values
    assert np.abs(g - f.values).max() < 1e-12


def test_projection_algebra():
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, seed=6)
    cubes = [Q for Q in lattice_cubes(lat) if Q[0] < 3]
    for Q in cubes:
        dq = dl.martingale_diff(f, *Q)
        assert np.abs(dl.martingale_diff(dq, *Q).values - dq.values).max() < 1e-12
        assert np.abs(dl.expect(dq, *Q).values).max() < 1e-12
        for R in cubes:
            if R != Q:
                assert np.abs(dl.martingale_diff(dq, *R).values).max() < 1e-12


def _lattices():
    """(d, L) with the standard grid and with a shift of 1, 2, .. cells."""
    for d, L in [(1, 4), (2, 3), (3, 2)]:
        yield dl.build_lattice(d, L)
        yield dl.build_lattice(d, L, tuple((a + 1) / (1 << L) for a in range(d)))


def _on_block(lat, aligned, Q):
    """The function that is ``aligned`` on Q's block and zero elsewhere."""
    out = np.zeros_like(aligned)
    out[_cell_block(lat, *Q)] = aligned[_cell_block(lat, *Q)]
    return from_aligned(lat, out).values


@pytest.mark.parametrize("lat", list(_lattices()),
                         ids=lambda lat: f"d{lat.dim}-L{lat.depth}-shift{lat.shift_cells}")
@pytest.mark.parametrize("scalar", [True, False])
def test_level_blocks_match_per_cube_operators(lat, scalar):
    # oracle: expect and martingale_diff, one cube at a time
    f = dl.random_grid_function(lat, N=1 if scalar else 2, seed=8)
    for level in range(lat.depth + 1):
        for k in range(lat.depth - level + 1):
            E, D = dl.level_blocks(lat, f.aligned(), level, k)
            assert E.shape == f.values.shape
            assert (D is None) == (level + k == lat.depth)
            for Q in lattice_cubes(lat, level):
                assert np.abs(_on_block(lat, E, Q) - dl.expect(f, *Q, k).values).max() < 1e-12
                if D is not None:
                    assert np.abs(_on_block(lat, D, Q)
                                  - dl.martingale_diff(f, *Q, k).values).max() < 1e-12


def test_level_blocks_rejects_levels_below_the_lattice():
    f = dl.random_grid_function(dl.build_lattice(1, 3), seed=1)
    for level, k in [(4, 0), (2, 2), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            dl.level_blocks(f.lattice, f.aligned(), level, k)


@pytest.mark.parametrize("lat", [dl.build_lattice(1, 4, (0.25,)),
                                 dl.build_lattice(2, 3, (0.125, 0.5))],
                         ids=["d1-shifted", "d2-shifted"])
def test_level_blocks_of_a_stack_equal_one_call_per_function(lat):
    # a stack of three aligned functions on the axis after the cells
    fs = [dl.random_grid_function(lat, N=2, seed=s) for s in range(3)]
    stack = np.stack([f.aligned() for f in fs], axis=lat.dim)
    for level in range(lat.depth + 1):
        for k in range(lat.depth - level + 1):
            blocks = dl.level_blocks(lat, stack, level, k)
            for i, f in enumerate(fs):
                for got, want in zip(blocks, dl.level_blocks(lat, f.aligned(), level, k)):
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert np.take(got, i, axis=lat.dim).tobytes() == want.tobytes()


@pytest.mark.parametrize("lat", list(_lattices()),
                         ids=lambda lat: f"d{lat.dim}-L{lat.depth}-shift{lat.shift_cells}")
def test_haar_level_equals_haar(lat):
    for level in range(lat.depth):
        stack = haar_level(lat, level)
        assert stack.dtype == np.float64
        assert stack.shape == (lat.cells_per_axis,) * lat.dim + (2 ** (level * lat.dim),
                                                                 2 ** lat.dim - 1)
        for q, Q in enumerate(lattice_cubes(lat, level)):  # heap order within the level
            for eta in range(2 ** lat.dim):
                h = dl.haar(lat, *Q, eta).values[..., 0, 0]
                assert h.dtype == np.float64
                if eta:
                    assert np.array_equal(stack[..., q, eta - 1], h)
    with pytest.raises(ValueError):
        haar_level(lat, lat.depth)


def test_haar_level_memory_follows_the_result():
    # written straight into physical cells: no second, rolled copy (the
    # finest level of a shifted d = 2, L = 5 lattice is a 12.6 MB result)
    lat = dl.build_lattice(2, 5, 0)
    assert any(lat.shift_cells)
    tracemalloc.start()
    try:
        stack = haar_level(lat, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stack.nbytes


def test_haar_pyramid_memory_follows_the_pyramid():
    # each level is contracted a block of cubes at a time, straight into the
    # pyramid, and the cell integrals too: beyond the 2.45 MB it holds at
    # d = 2, L = 7, N = 2, the whole-level sweep took 4.2 MB more
    lat = dl.build_lattice(2, 7)
    f = dl.random_grid_function(lat, N=2, seed=1)
    tracemalloc.start()
    try:
        pyr = dl.HaarPyramid(f)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= pyr.flat.nbytes
    assert peak - held <= 0.75 * pyr.flat.nbytes


@pytest.mark.parametrize("d", [1, 2, 3])
def test_haar_signs_are_the_product_of_axis_signs(d):
    signs = lt._haar_signs(d)
    assert signs.shape == (2 ** d, 2 ** d)
    for eta in range(2 ** d):
        for e in range(2 ** d):
            # eta_a is bit a of the mask; axis a of child e is bit d - 1 - a
            expected = math.prod((-1) ** (((eta >> a) & 1) * ((e >> (d - 1 - a)) & 1))
                                 for a in range(d))
            assert signs[eta, e] == expected
    # the butterfly of the identity: child e in, eta bits out on the child
    # axes, bit a on axis 2a + 1; the mask's bit 0 is the last axis of signs
    eye = np.eye(2 ** d).reshape((1, 2) * d + (2 ** d,))
    out = lt._haar_butterfly(eye, d).reshape((2,) * d + (2 ** d,))
    assert np.array_equal(out.transpose(tuple(range(d))[::-1] + (d,)).reshape(signs.shape),
                          signs)


@pytest.mark.parametrize("d, L", [(1, 4), (2, 3), (3, 2)])
def test_heap_order_is_the_one_cube_order(d, L):
    # levels 0..L, and within each level the indices in np.ndindex order
    level, index = lt._heap_cubes(L, d)
    order = [(lv, ix) for lv in range(L + 1) for ix in np.ndindex(*(2 ** lv,) * d)]
    assert [(lv, tuple(ix)) for lv, ix in zip(level.tolist(), index.tolist())] == order
    assert len(order) == lt._heap_size(L, d)
    # the heap number of each cube is its position in that list
    assert np.array_equal(lt._heap_number(level, index, d), np.arange(len(order)))


@pytest.mark.parametrize("lat", [dl.build_lattice(1, 4), dl.build_lattice(2, 3, (0.25, 0.5))],
                         ids=["d1", "d2-shifted"])
def test_cell_cubes_number_the_cubes_in_heap_order(lat):
    for lv in range(lat.depth + 1):
        for q, Q in enumerate(lattice_cubes(lat, lv)):
            inside = np.zeros((lat.cells_per_axis,) * lat.dim, dtype=bool)
            inside[_cell_block(lat, *Q)] = True
            assert np.array_equal(lt.cell_cubes(lat, lv) == q, inside)


def test_shift_equivariance():
    lat_s = dl.build_lattice(1, 4, (0.25,))
    s = lat_s.shift_cells[0]
    vals = np.arange(16, dtype=float) ** 2
    f_shift = dl.GridFunction(lat_s, vals)
    f_std = dl.GridFunction(dl.build_lattice(1, 4), np.roll(vals, -s))
    for Q in [(1, (1,)), (2, (3,)), (0, (0,))]:
        assert dl.average(f_shift, *Q) == pytest.approx(dl.average(f_std, *Q))
        if Q[0] < 4:
            a = dl.martingale_diff(f_shift, *Q).values
            b = np.roll(dl.martingale_diff(f_std, *Q).values, s)
            assert np.abs(a - b).max() < 1e-12


def test_pyramid_matches_direct_pairings():
    # d = 3 has 8 eta slots per cube; at depth 1 (depth 0 is no lattice)
    # the top cube is the only one with cancellative pairings
    for lat, N in [(dl.build_lattice(2, 3, 5), 2), (dl.build_lattice(1, 4, 2), 2),
                   (dl.build_lattice(3, 2, 1), 2), (dl.build_lattice(2, 1, 4), 1)]:
        f = dl.random_grid_function(lat, N=N, seed=3)
        pyr = dl.HaarPyramid(f)
        for heap, Q in enumerate(lattice_cubes(lat)):  # heap numbers follow heap order
            for eta in range(1 << lat.dim):
                if eta and Q[0] >= lat.depth:
                    with pytest.raises(ValueError, match="cancellative Haar needs level < depth"):
                        pyr.pairings(heap, eta)
                    continue
                direct = dl.pairing(f, dl.haar(lat, *Q, eta))
                assert np.abs(pyr.pairings(heap, eta) - direct).max() < 1e-12
        with pytest.raises(ValueError, match="eta mask must lie"):
            pyr.pairings(0, 1 << lat.dim)


def _full_layout(f):
    """The reference layout of a pyramid: every (cube, eta) slot, the
    finest level's cancellative ones zero, in an array of shape
    (#cubes, 2^d) + value shape indexed by heap number, from whole-level
    passes of ``_haar_butterfly``."""
    lat = f.lattice
    d, L, vs = lat.dim, lat.depth, f.value_shape
    sums = f.aligned() * lat.cell_volume
    flat = np.zeros((lt._heap_size(L, d), 1 << d) + vs, dtype=np.complex128)
    levels = lt._level_views(flat, L, d)
    levels[L][(slice(None),) * d + (0,)] = sums * 2.0 ** (L * d / 2.0)
    cur = sums
    for l in range(L - 1, -1, -1):
        r = lt._haar_butterfly(cur.reshape((1 << l, 2) * d + vs), d)
        lt._eta_interleaved(levels[l], d)[...] = r * 2.0 ** (l * d / 2.0)
        cur = r[(slice(None), 0) * d]
    return flat


@pytest.mark.parametrize("d, L", [(1, 6), (2, 4), (3, 2)])
@pytest.mark.parametrize("scalar", [True, False])
def test_pyramid_lookup_bit_equals_the_full_layout(d, L, scalar):
    lat = dl.build_lattice(d, L, 7)
    f = dl.random_grid_function(lat, N=1 if scalar else 2, seed=d)
    full, pyr = _full_layout(f), dl.HaarPyramid(f)
    coarse, m = lt._heap_size(L - 1, d), 1 << d
    assert not full[coarse:, 1:].any()
    assert np.array_equal(pyr.pairings(np.arange(coarse)[:, None], np.arange(m)), full[:coarse])
    assert np.array_equal(pyr.pairings(np.arange(coarse, len(full)), 0), full[coarse:, 0])
    # coarse and finest cubes mixed in one lookup, in random order
    rng = np.random.default_rng(L)
    heap = rng.integers(len(full), size=200)
    eta = np.where(heap < coarse, rng.integers(m, size=200), 0)
    assert np.array_equal(pyr.pairings(heap, eta), full[heap, eta])


_SHIFTED_LATTICES = pytest.mark.parametrize(
    "lat", [dl.build_lattice(1, 5, 3), dl.build_lattice(2, 3, 4), dl.build_lattice(3, 2, 5)],
    ids=["d1", "d2", "d3"])


@_SHIFTED_LATTICES
def test_synthesize_matches_the_sum_of_haar_functions(lat):
    # random rows with repeated (cube, eta) keys; cancellative etas only
    # above the finest level
    d, L = lat.dim, lat.depth
    rng = np.random.default_rng(d)
    level, index = lt._heap_cubes(L, d)
    heap = rng.integers(len(level), size=60)
    heap[30:] = heap[:30]
    eta = np.where(level[heap] < L, rng.integers(1 << d, size=60), 0)
    coef = rng.standard_normal((60, 2, 2)) + 1j * rng.standard_normal((60, 2, 2))
    naive = sum(c * dl.haar(lat, int(level[q]), tuple(index[q]), int(e)).values
                for q, e, c in zip(heap, eta, coef))
    out = from_aligned(lat, lt._synthesize(lat, heap, eta, coef)).values
    assert np.abs(out - naive).max() < 1e-12


@_SHIFTED_LATTICES
def test_synthesizing_every_pairing_rebuilds_f(lat):
    # f = <f, h^0_top> h^0_top + the sum of <f, h_Q^eta> h_Q^eta over the
    # cancellative Haar functions, from one pyramid
    d = lat.dim
    f = dl.random_grid_function(lat, N=2, seed=d)
    coarse = lt._heap_size(lat.depth - 1, d)
    heap = np.append(np.repeat(np.arange(coarse), (1 << d) - 1), 0)
    eta = np.append(np.tile(np.arange(1, 1 << d), coarse), 0)
    out = lt._synthesize(lat, heap, eta, dl.HaarPyramid(f).pairings(heap, eta))
    assert np.abs(from_aligned(lat, out).values - f.values).max() <= IDENTITY_TOL


def test_pyramid_stores_only_pairings_that_exist():
    # 21,845 cubes with 4 eta slots of 2x2 values would take 5.59 MB;
    # without the finest level's 3 x 16,384 empty slots they take 2.45 MB
    lat = dl.build_lattice(2, 7, 1)
    f = dl.random_grid_function(lat, N=2, seed=0)
    tracemalloc.start()
    try:
        pyr = dl.HaarPyramid(f)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pyr.flat.nbytes <= held <= 2.5e6


def test_serialization_roundtrip_bit_exact():
    lat = dl.build_lattice(2, 2, (0.25, 0.75))
    f = dl.random_grid_function(lat, N=3, seed=8)
    text = dl.grid_function_to_json(f)
    g = dl.grid_function_from_json(text)
    assert g.lattice == f.lattice
    assert np.array_equal(g.values, f.values)
    # a second trip produces identical bytes
    assert dl.grid_function_to_json(g) == text
    payload = json.loads(text)
    assert payload["kind"] == "matrix" and payload["N"] == 3


def test_serialization_scalar_and_kind():
    # a scalar function is written as a 1 x 1 matrix
    lat = dl.build_lattice(1, 2)
    f = dl.random_grid_function(lat, seed=1)
    text = dl.grid_function_to_json(f)
    payload = json.loads(text)
    assert payload["kind"] == "matrix" and payload["N"] == 1
    g = dl.grid_function_from_json(text)
    assert g.value_shape == (1, 1) and np.array_equal(g.values, f.values)


def test_legacy_scalar_file_loads_as_n1():
    # files of kind "scalar" come from outside; they read as 1 x 1 values
    # whatever their N field says
    lat = dl.build_lattice(2, 1, (0.5, 0.0))
    f = dl.random_grid_function(lat, seed=4)
    payload = json.loads(dl.grid_function_to_json(f))
    for N in (1, 7, None):
        legacy = dict(payload, kind="scalar", N=N)
        if N is None:
            del legacy["N"]
        g = dl.grid_function_from_json(json.dumps(legacy))
        assert g.lattice == lat and g.value_shape == (1, 1) and g.N == 1
        assert np.array_equal(g.values, f.values)


# from vs3 on, a stack of N x N functions on an axis between the grid and
# the values: that is no grid function, stacks are aligned arrays
# (level_blocks)
@pytest.mark.parametrize("d, vs", [(1, (2, 3)), (1, (3,)), (1, (3, 1, 2)),
                                   (1, (3, 2, 2)), (1, (3, 1, 1)), (1, (1, 1, 1)),
                                   (2, (2, 1, 1)), (2, (5, 3, 3))],
                         ids=[f"vs{i}" for i in range(8)])
def test_grid_function_values_end_in_n_by_n(d, vs):
    with pytest.raises(ValueError, match=r"is not N x N"):
        dl.GridFunction(dl.build_lattice(d, 2), np.zeros((4,) * d + vs))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_grid_shaped_values_are_scalars(dtype):
    lat = dl.build_lattice(2, 2, 3)
    vals = np.arange(16, dtype=dtype).reshape(4, 4)
    f = dl.GridFunction(lat, vals)
    assert f.value_shape == (1, 1) and f.N == 1
    assert f.values.dtype == dtype
    assert np.array_equal(f.values[..., 0, 0], vals)


def test_scalar_flag_is_n1():
    # the same random stream: the scalar flag draws exactly the N = 1 values
    lat = dl.build_lattice(2, 3, 1)
    a = dl.random_grid_function(lat, seed=5, scalar=True)
    b = dl.random_grid_function(lat, N=1, seed=5)
    assert a.value_shape == b.value_shape == (1, 1)
    assert a.values.tobytes() == b.values.tobytes()
    # and that is the stream of a grid-shaped draw: real parts, then imaginary
    rng = np.random.default_rng(5)
    ref = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert a.values[..., 0, 0].tobytes() == ref.tobytes()


def test_pairing_weight_is_scalar():
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, N=2, seed=1)
    h = dl.haar(lat, 0, (0,), 1)
    got = dl.pairing(f, h)
    assert got.shape == (2, 2)
    assert np.array_equal(got, (f.values * h.values[..., 0, 0][:, None, None]).sum(axis=0)
                          * lat.cell_volume)
    assert dl.pairing(dl.random_grid_function(lat, seed=2), h).shape == (1, 1)
    with pytest.raises(ValueError, match=r"pairing takes a scalar \(N = 1\) weight"):
        dl.pairing(h, f)


def test_aligned_roundtrip():
    lat = dl.build_lattice(1, 3, (0.25,))
    f = dl.random_grid_function(lat, seed=2)
    assert np.array_equal(from_aligned(lat, f.aligned()).values, f.values)


@pytest.mark.parametrize("edit, field", [
    (lambda o: o.pop("dim"), "dim"),
    (lambda o: o.pop("shift"), "shift"),
    (lambda o: o.pop("kind"), "kind"),
    (lambda o: o.update(N="two"), "N"),
    (lambda o: o["values"].pop(), "values"),
    (lambda o: o["values"][3].append(0.0), "values"),
    (lambda o: o["values"][3].__setitem__(0, float("nan")), "values"),
    # header integers out of range
    pytest.param(lambda o: o.update(dim=0), "dim", id="dim-zero"),
    pytest.param(lambda o: o.update(depth=0), "depth", id="depth-zero"),
    pytest.param(lambda o: o.update(N=-2), "N", id="N-negative"),
    pytest.param(lambda o: o.update(N=0), "N", id="N-zero"),
    # the values of 10^60 cells are counted with Python integers, not int64
    pytest.param(lambda o: o.update(N=10 ** 30), "values", id="N-beyond-int64"),
    # the kinds a file holds are scalar and matrix
    pytest.param(lambda o: o.update(kind="nested", shape=[-1, 2, 2]), "kind",
                 id="nested-shape-negative"),
    pytest.param(lambda o: o.update(kind="nested", shape=[1, 2, 2]), "kind", id="nested-kind"),
    # values that break a rule of the lattice; the payload has depth 2
    pytest.param(lambda o: o.update(depth=70), "depth", id="depth-bound"),
    pytest.param(lambda o: o.update(shift=[0.3]), "shift", id="shift-not-multiple"),
    pytest.param(lambda o: o.update(shift=["x"]), "shift", id="shift-not-numbers"),
    # the coefficient reader's number rule, though numpy would convert these
    pytest.param(lambda o: o["values"][5].__setitem__(1, "1.5"), "values", id="values-string"),
    pytest.param(lambda o: o["values"][5].__setitem__(1, True), "values", id="values-true"),
    pytest.param(lambda o: o["values"][5].__setitem__(1, False), "values", id="values-false"),
    pytest.param(lambda o: o["values"][5].__setitem__(1, None), "values", id="values-null"),
    pytest.param(lambda o: o["values"][5].__setitem__(1, 10 ** 400), "values",
                 id="values-beyond-float"),
])
def test_serialization_loader_names_bad_field(edit, field):
    lat = dl.build_lattice(1, 2)
    obj = json.loads(dl.grid_function_to_json(dl.random_grid_function(lat, N=2, seed=3)))
    edit(obj)
    with pytest.raises(ValueError, match=rf"field {field}( |$)"):
        dl.grid_function_from_json(json.dumps(obj))


@pytest.mark.parametrize("d, L, N, scalar, norm, p", [
    (1, 4, 1, True, "abs", 3.0),
    (2, 2, 2, False, "schatten2", 4.0),
    (1, 3, 3, False, "schatten2", math.inf),
])
def test_lp_norm_batch_rows_equal_single_calls(d, L, N, scalar, norm, p):
    from dyadlab import ncspaces as nc
    # scalars are 1x1 matrices: |v| is their S^2 norm
    norm_of = {"abs": lambda v: np.abs(v[0, 0]),
               "schatten2": lambda v: nc.schatten_norms(v[None], 2.0)[0]}[norm]
    lat = dl.build_lattice(d, L, 1)
    rows = [dl.random_grid_function(lat, N=N, seed=s) for s in range(64)]
    if scalar:  # made from grid-shaped values, which read as 1 x 1 matrices
        rows = [dl.GridFunction(lat, f.values[..., 0, 0]) for f in rows]
    batch = nc.lp_norms(np.stack([f.values for f in rows]), p, 2.0)
    assert batch.shape == (64,)
    for f, b in zip(rows, batch):
        single = dl.lp_norm(f.values, p, 2.0)
        assert type(single) is float and single == b
        # the definition with numpy's scalar power, cell by cell
        flat = f.values.reshape((lat.num_cells,) + f.value_shape)
        norms = np.array([float(norm_of(v)) for v in flat])
        ref = norms.max() if math.isinf(p) else np.mean(norms ** p) ** (1.0 / p)
        assert single == float(ref)
