import json
import math

import numpy as np
import pytest

import dyadlab as dl
from dyadlab.lattice import _cell_block, from_aligned, haar_level


def test_standard_grid_cells():
    lat = dl.build_lattice(1, 3)
    assert lat.num_cells == 8
    assert lat.shift == (0.0,)
    # level-l cube count
    for lv in range(4):
        assert sum(1 for _ in lat.cubes(lv)) == 2 ** lv
    for Q in lat.cubes(2):
        assert len(Q.children()) == 2


def test_shift_by_cell_multiple_permutes_cells():
    lat = dl.build_lattice(1, 3, (0.5,))
    assert lat.shift_cells == (4,)
    # finest cells of the shifted lattice are the standard cells
    f = dl.GridFunction(lat, np.arange(8, dtype=float))
    for Q in lat.cubes(3):
        assert dl.average(f, Q) == pytest.approx(f.values[(Q.index[0] + 4) % 8])


def test_random_lattice_deterministic():
    a = dl.build_lattice(2, 2, 7)
    b = dl.build_lattice(2, 2, 7)
    assert a == b


def test_nonquantized_shift_rejected():
    with pytest.raises(ValueError):
        dl.build_lattice(1, 3, (0.3,))
    with pytest.raises(ValueError):
        dl.build_lattice(1, 3, (1.0,))


def test_haar_values_1d():
    lat = dl.build_lattice(1, 3)
    h = dl.haar(lat, (dl.Cube(0, (0,)), (1,)))
    assert np.allclose(h.values[:4], 1.0) and np.allclose(h.values[4:], -1.0)
    h0 = dl.haar(lat, (dl.Cube(1, (0,)), (0,)))
    assert np.allclose(h0.values[:4], np.sqrt(2)) and np.allclose(h0.values[4:], 0.0)


def test_haar_tensor_2d_sign_pattern():
    lat = dl.build_lattice(2, 1)
    h = dl.haar(lat, (dl.Cube(0, (0, 0)), (1, 0)))
    # split in the first coordinate only
    assert np.allclose(h.values[0, :], 1.0)
    assert np.allclose(h.values[1, :], -1.0)


def test_haar_cancellative_needs_children():
    lat = dl.build_lattice(1, 2)
    with pytest.raises(ValueError):
        dl.haar(lat, (dl.Cube(2, (0,)), (1,)))


def test_haar_l2_normalized(rng):
    lat = dl.build_lattice(2, 3, 11)
    for Q, eta in [(dl.Cube(0, (0, 0)), 3), (dl.Cube(2, (1, 3)), 1),
                   (dl.Cube(1, (0, 1)), 2), (dl.Cube(3, (5, 2)), 0)]:
        h = dl.haar(lat, (Q, eta))
        assert dl.l2_inner(h, h) == pytest.approx(1.0, abs=1e-12)


def test_orthonormality_small_lattices():
    for d, L in [(1, 4), (2, 3)]:
        lat = dl.build_lattice(d, L, 3)
        haars = [dl.haar(lat, (Q, eta))
                 for Q in lat.cubes() if Q.level < L
                 for eta in range(1, 1 << d)]
        vecs = np.stack([h.values.reshape(-1) for h in haars])
        gram = (vecs * lat.cell_volume) @ vecs.conj().T
        assert np.abs(gram - np.eye(len(haars))).max() < 1e-12


def test_average_examples():
    lat = dl.build_lattice(1, 3)
    c = dl.GridFunction(lat, np.full(8, 2.5 + 1j))
    assert dl.average(c, dl.Cube(2, (1,))) == pytest.approx(2.5 + 1j)
    ind = dl.GridFunction(lat, (np.arange(8) < 4).astype(float))
    assert dl.average(ind, dl.Cube(0, (0,))) == pytest.approx(0.5)


def test_average_matrix_entrywise(rng):
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, N=2, seed=5)
    Q = dl.Cube(1, (1,))
    m = dl.average(f, Q)
    for i in range(2):
        for j in range(2):
            comp = dl.GridFunction(lat, f.values[:, i, j])
            assert m[i, j] == pytest.approx(dl.average(comp, Q), abs=1e-12)


def test_martingale_diff_basics():
    lat = dl.build_lattice(1, 3)
    c = dl.GridFunction(lat, np.full(8, 3.0))
    Q = dl.Cube(1, (0,))
    assert np.abs(dl.martingale_diff(c, Q).values).max() < 1e-15
    h = dl.haar(lat, (Q, 1))
    assert np.abs(dl.martingale_diff(h, Q).values - h.values).max() < 1e-12


def test_martingale_diff_haar_expansion():
    lat = dl.build_lattice(2, 2)
    f = dl.random_grid_function(lat, seed=1, scalar=True)
    Q = dl.Cube(0, (0, 0))
    target = dl.martingale_diff(f, Q)
    acc = np.zeros_like(f.values)
    for eta in range(1, 4):
        h = dl.haar(lat, (Q, eta))
        acc = acc + dl.pairing(f, h) * h.values
    assert np.abs(acc - target.values).max() < 1e-12


def test_martingale_diff_integral_zero():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=2, scalar=True)
    for Q in lat.cubes():
        if Q.level < 4:
            assert abs(dl.integral(dl.martingale_diff(f, Q))) < 1e-12


def test_depth_k_operators():
    lat = dl.build_lattice(1, 4)
    f = dl.random_grid_function(lat, seed=3, scalar=True)
    Q = dl.Cube(1, (1,))
    # k = 0 reduces to the one-step operators
    assert np.abs(dl.martingale_diff_k(f, Q, 0).values
                  - dl.martingale_diff(f, Q).values).max() < 1e-12
    assert np.abs(dl.expect_k(f, Q, 0).values - dl.expect(f, Q).values).max() < 1e-12
    # brute-force sum over depth-2 descendants
    acc = np.zeros_like(f.values)
    for R in lat.cubes(3):
        if R.ancestor(2) == Q:
            acc = acc + dl.martingale_diff(f, R).values
    assert np.abs(dl.martingale_diff_k(f, Q, 2).values - acc).max() < 1e-12


def test_depth_overflow_rejected():
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, seed=1, scalar=True)
    with pytest.raises(ValueError):
        dl.expect_k(f, dl.Cube(1, (0,)), 3)
    with pytest.raises(ValueError):
        dl.martingale_diff_k(f, dl.Cube(1, (0,)), 2)


def test_average_expansion_identity():
    # E_K^k f = sum_{l<k} Delta_K^l f + E_K f for all admissible (K, k)
    for d, L in [(1, 4), (2, 3)]:
        lat = dl.build_lattice(d, L, 9)
        f = dl.random_grid_function(lat, N=2, seed=4)
        for K in lat.cubes():
            for k in range(L - K.level + 1):
                lhs = dl.expect_k(f, K, k)
                rhs = dl.expect(f, K)
                for l in range(k):
                    rhs = rhs + dl.martingale_diff_k(f, K, l)
                assert np.abs(lhs.values - rhs.values).max() < 1e-12


def test_telescoping():
    lat = dl.build_lattice(2, 3, 21)
    f = dl.random_grid_function(lat, N=2, seed=5)
    g = dl.GridFunction(lat, np.broadcast_to(dl.integral(f), f.values.shape).copy())
    for Q in lat.cubes():
        if Q.level < 3:
            g = g + dl.martingale_diff(f, Q)
    assert np.abs(g.values - f.values).max() < 1e-12


def test_projection_algebra():
    lat = dl.build_lattice(1, 3)
    f = dl.random_grid_function(lat, seed=6, scalar=True)
    cubes = [Q for Q in lat.cubes() if Q.level < 3]
    for Q in cubes:
        dq = dl.martingale_diff(f, Q)
        assert np.abs(dl.martingale_diff(dq, Q).values - dq.values).max() < 1e-12
        assert np.abs(dl.expect(dq, Q).values).max() < 1e-12
        for R in cubes:
            if R != Q:
                assert np.abs(dl.martingale_diff(dq, R).values).max() < 1e-12


def _lattices():
    """(d, L) with the standard grid and with a shift of 1, 2, .. cells."""
    for d, L in [(1, 4), (2, 3), (3, 2)]:
        yield dl.build_lattice(d, L)
        yield dl.build_lattice(d, L, tuple((a + 1) / (1 << L) for a in range(d)))


def _on_block(lat, aligned, Q):
    """The function that is ``aligned`` on Q's block and zero elsewhere."""
    out = np.zeros_like(aligned)
    out[_cell_block(lat, Q)] = aligned[_cell_block(lat, Q)]
    return from_aligned(lat, out).values


@pytest.mark.parametrize("lat", list(_lattices()),
                         ids=lambda lat: f"d{lat.dim}-L{lat.depth}-shift{lat.shift_cells}")
@pytest.mark.parametrize("scalar", [True, False])
def test_level_blocks_match_per_cube_operators(lat, scalar):
    # oracle: expect_k and martingale_diff_k, one cube at a time
    f = dl.random_grid_function(lat, N=2, seed=8, scalar=scalar)
    for level in range(lat.depth + 1):
        for k in range(lat.depth - level + 1):
            E, D = dl.level_blocks(f, level, k)
            assert E.shape == f.values.shape
            assert (D is None) == (level + k == lat.depth)
            for Q in lat.cubes(level):
                assert np.abs(_on_block(lat, E, Q) - dl.expect_k(f, Q, k).values).max() < 1e-12
                if D is not None:
                    assert np.abs(_on_block(lat, D, Q)
                                  - dl.martingale_diff_k(f, Q, k).values).max() < 1e-12


def test_level_blocks_rejects_levels_below_the_lattice():
    f = dl.random_grid_function(dl.build_lattice(1, 3), seed=1, scalar=True)
    for level, k in [(4, 0), (2, 2), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            dl.level_blocks(f, level, k)


@pytest.mark.parametrize("lat", list(_lattices()),
                         ids=lambda lat: f"d{lat.dim}-L{lat.depth}-shift{lat.shift_cells}")
def test_haar_level_equals_haar(lat):
    for level in range(lat.depth):
        stack = haar_level(lat, level)
        assert stack.shape == (lat.cells_per_axis,) * lat.dim + (2 ** (level * lat.dim),
                                                                 2 ** lat.dim - 1)
        for q, Q in enumerate(lat.cubes(level)):
            for eta in range(1, 2 ** lat.dim):
                assert np.array_equal(stack[..., q, eta - 1], dl.haar(lat, (Q, eta)).values)
    with pytest.raises(ValueError):
        haar_level(lat, lat.depth)


def test_sublattice_residues():
    lat = dl.build_lattice(1, 5)
    levels = sorted({Q.level for Q in dl.sublattice(lat, 1, 2)})
    assert levels == [2, 5]
    # j = 0, k = 0 gives everything
    assert len(dl.sublattice(lat, 0, 0)) == sum(2 ** l for l in range(6))
    # residues partition the levels
    seen = sorted(Q.level for j in range(3) for Q in dl.sublattice(lat, j, 2))
    assert seen == sorted(Q.level for Q in lat.cubes())


def test_shift_equivariance():
    lat_s = dl.build_lattice(1, 4, (0.25,))
    s = lat_s.shift_cells[0]
    vals = np.arange(16, dtype=float) ** 2
    f_shift = dl.GridFunction(lat_s, vals)
    f_std = dl.GridFunction(dl.build_lattice(1, 4), np.roll(vals, -s))
    for Q in [dl.Cube(1, (1,)), dl.Cube(2, (3,)), dl.Cube(0, (0,))]:
        assert dl.average(f_shift, Q) == pytest.approx(dl.average(f_std, Q))
        if Q.level < 4:
            a = dl.martingale_diff(f_shift, Q).values
            b = np.roll(dl.martingale_diff(f_std, Q).values, s)
            assert np.abs(a - b).max() < 1e-12


def test_pyramid_matches_direct_pairings():
    lat = dl.build_lattice(2, 3, 5)
    f = dl.random_grid_function(lat, N=2, seed=3)
    pyr = dl.HaarPyramid(f)
    for Q in lat.cubes():
        for eta in range(4):
            if eta and Q.level >= 3:
                continue
            direct = dl.pairing(f, dl.haar(lat, (Q, eta)))
            assert np.abs(pyr.coef(Q, eta) - direct).max() < 1e-12


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
    lat = dl.build_lattice(1, 2)
    f = dl.random_grid_function(lat, seed=1, scalar=True)
    g = dl.grid_function_from_json(dl.grid_function_to_json(f))
    assert g.kind == "scalar"
    assert np.array_equal(g.values, f.values)


def test_serialization_nested_values():
    lat = dl.build_lattice(1, 2)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
    f = dl.GridFunction(lat, vals)
    assert f.kind == "nested"
    g = dl.grid_function_from_json(dl.grid_function_to_json(f))
    assert g.kind == "nested" and g.value_shape == (3, 2, 2)
    assert np.array_equal(g.values, f.values)


def test_aligned_roundtrip():
    lat = dl.build_lattice(1, 3, (0.25,))
    f = dl.random_grid_function(lat, seed=2, scalar=True)
    assert np.array_equal(from_aligned(lat, f.aligned()).values, f.values)


@pytest.mark.parametrize("edit, field", [
    (lambda o: o.pop("dim"), "dim"),
    (lambda o: o.pop("shift"), "shift"),
    (lambda o: o.pop("kind"), "kind"),
    (lambda o: o.update(N="two"), "N"),
    (lambda o: o["values"].pop(), "values"),
    (lambda o: o["values"][3].append(0.0), "values"),
    (lambda o: o["values"][3].__setitem__(0, float("nan")), "values"),
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
    norm_of = {"abs": lambda v: np.abs(v[None])[0],
               "schatten2": lambda v: nc.schatten_norms(v[None], 2.0)[0]}[norm]
    lat = dl.build_lattice(d, L, 1)
    rows = [dl.random_grid_function(lat, N=N, seed=s, scalar=scalar) for s in range(64)]
    batch = dl.lp_norm(np.stack([f.values for f in rows]), p, 2.0, lat)
    assert batch.shape == (64,)
    for f, b in zip(rows, batch):
        single = dl.lp_norm(f, p, 2.0)
        assert type(single) is float and single == b
        # the definition with numpy's scalar power, cell by cell
        flat = f.values.reshape((lat.num_cells,) + f.value_shape)
        norms = np.array([float(norm_of(v)) for v in flat])
        ref = norms.max() if math.isinf(p) else np.mean(norms ** p) ** (1.0 / p)
        assert single == float(ref)
