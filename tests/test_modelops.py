import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

import dyadlab as dl
from dyadlab import modelops as mo
from dyadlab.lattice import FieldError

from conftest import lattice_cubes


def _lat(L=4):
    return dl.build_lattice(1, L)


def _table(coeffs, shape=(3, 2)):
    """CoeffTable from a dict {(K, Qs, etas): a} or {(K, eta): a}, each
    cube a (level, index) pair; ``shape`` gives the cubes and etas per row
    of an empty dict."""
    rows = [((k[0], *k[1]), k[2]) if len(k) == 3 else ((k[0],), (k[1],)) for k in coeffs]
    if rows:
        shape = (len(rows[0][0]), len(rows[0][1]))
    d = len(rows[0][0][0][1]) if rows else 1
    return mo.CoeffTable(
        np.reshape([[c[0] for c in cs] for cs, _ in rows], (-1, shape[0])),
        np.reshape([[c[1] for c in cs] for cs, _ in rows], (-1, shape[0], d)),
        np.reshape([es for _, es in rows], (-1, shape[1])), list(coeffs.values()))


def _entries(t):
    """The rows of a table as (key, value) pairs, the inverse of ``_table``:
    keys (K, Qs, etas) or (K, eta), each cube a (level, index) pair."""
    out = []
    for lv, ix, es, a in zip(t.level.tolist(), t.index.tolist(), t.eta.tolist(),
                             t.value.tolist()):
        cs = [(l, tuple(i)) for l, i in zip(lv, ix)]
        out.append(((cs[0], es[0]) if len(cs) == 1 else (cs[0], tuple(cs[1:]), tuple(es)), a))
    return out


def _unit_shift(lat):
    K = (0, (0,))
    return mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, _table({(K, (K, K), (1, 1)): 1.0}))


def test_trivial_shift_on_haar():
    lat = _lat()
    spec = _unit_shift(lat)
    h = dl.haar(lat, 0, (0,), 1)
    assert mo.eval_shift_form(spec, [h, h]) == pytest.approx(1.0)


def test_constant_in_cancellative_slot_vanishes():
    lat = _lat()
    spec = _unit_shift(lat)
    one = dl.GridFunction(lat, np.ones(16))
    h = dl.haar(lat, 0, (0,), 1)
    assert abs(mo.eval_shift_form(spec, [one, h])) < 1e-15


def test_normalization_rejects_over_bound():
    lat = _lat()
    K, Q = (0, (0,)), (1, (0,))
    # bound for complexity (1,1): |Q1|^(1/2)|Q2|^(1/2)/|K| = 1/2
    coeffs = _table({(K, (Q, Q), (1, 1)): 0.9})
    with pytest.raises(FieldError, match=r"^field coeffs\[0\]\.re is rejected: .*exceeds the "
                       "bound 0.5") as err:
        mo.ShiftSpec(lat, 1, (1, 1), {1, 2}, coeffs)
    assert (err.value.field, err.value.row) == ("re", 0)


@pytest.mark.parametrize("kind", ["shift", "paraproduct"])
@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_specs_reject_a_non_finite_coefficient(kind, part, bad):
    # a NaN passes the bound test and the Carleson sup, as every comparison
    # with it is False; the table rejects it at its row and part
    lat = dl.build_lattice(1, 3)
    if kind == "shift":
        t = mo.make_random_shift(lat, 1, (0, 0), {1, 2}, seed=0).coeffs
        build = lambda table: mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, table)
    else:
        t = mo.make_bmo_coeffs(lat, dl.random_grid_function(lat, seed=5))
        build = lambda table: mo.ParaproductSpec(lat, 1, 1, table)
    value = t.value.copy()
    value[1] = complex(bad, 0.0) if part == "re" else complex(0.0, bad)
    with pytest.raises(FieldError, match=rf"^field coeffs\[1\]\.{part} is rejected: not a finite"):
        build(mo.CoeffTable(t.level, t.index, t.eta, value))


def test_spec_rejects_wrong_ancestry_or_eta():
    lat = _lat()
    K, Q = (0, (0,)), (1, (0,))
    with pytest.raises(ValueError):
        mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, _table({(K, (Q, K), (1, 1)): 0.1}))
    with pytest.raises(ValueError):
        mo.ShiftSpec(lat, 1, (1, 1), {1, 2}, _table({(K, (Q, Q), (0, 1)): 0.1}))
    with pytest.raises(ValueError):
        mo.ShiftSpec(lat, 1, (1, 1), {1}, _table({}))


def test_make_random_shift_deterministic_and_scaled():
    lat = _lat()
    a = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=3, scale=0.7)
    b = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=3, scale=0.7)
    assert a.coeffs == b.coeffs
    zero = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=3, scale=0.0)
    assert len(zero.coeffs) == 0
    # scale 1 with everything on the top cube: |a| = bound = 1
    full = mo.make_random_shift(lat, 1, (0, 0), {1, 2}, seed=1, scale=1.0,
                                blocks=1, tuples_per_block=1)
    val, = full.coeffs.value
    assert abs(abs(val) - mo._coeff_bound(full.coeffs.level, 1, 1)[0]) < 1e-12


def test_complexity_incompatible_with_depth():
    lat = dl.build_lattice(1, 2)
    with pytest.raises(FieldError, match="^field depth is rejected: too shallow"):
        mo.make_random_shift(lat, 1, (2, 2), {1, 2}, seed=0)


def test_make_random_shift_rejects_complexity_of_wrong_length():
    lat = dl.build_lattice(1, 4)
    with pytest.raises(FieldError, match=r"^field complexity is rejected: needs n \+ 1 = 3 "):
        mo.make_random_shift(lat, 2, (1, 0), {1, 3}, seed=0)


def test_fast_form_equals_naive(rng):
    for n, complexity, canc, N, L in [
        (1, (1, 1), {1, 2}, 1, 3),
        (2, (1, 0, 1), {1, 3}, 2, 3),
        (3, (0, 1, 0, 2), {2, 4}, 2, 4),
    ]:
        lat = dl.build_lattice(1, L)
        spec = mo.make_random_shift(lat, n, complexity, canc,
                                    seed=int(rng.integers(2 ** 31)),
                                    blocks=5, tuples_per_block=4)
        fs = [dl.random_grid_function(lat, N=N, seed=100 + i)
              for i in range(n + 1)]
        assert abs(mo.eval_shift_form(spec, fs)
                   - mo.eval_shift_form_naive(spec, fs)) < 1e-12


def test_form_multilinear(rng):
    lat = _lat()
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=5)
    fs = [dl.random_grid_function(lat, N=2, seed=i) for i in range(3)]
    g = dl.random_grid_function(lat, N=2, seed=9)
    a, b = 0.3 - 1.1j, -0.8 + 0.2j
    for slot in range(3):
        mixed = list(fs)
        mixed[slot] = dl.GridFunction(lat, a * fs[slot].values + b * g.values)
        lhs = mo.eval_shift_form(spec, mixed)
        alt = list(fs)
        alt[slot] = g
        rhs = a * mo.eval_shift_form(spec, fs) + b * mo.eval_shift_form(spec, alt)
        assert abs(lhs - rhs) < 1e-12


def test_mismatched_inputs_rejected():
    lat = _lat()
    spec = _unit_shift(lat)
    other = dl.random_grid_function(dl.build_lattice(1, 3), seed=0)
    mine = dl.random_grid_function(lat, seed=0)
    with pytest.raises(ValueError):
        mo.eval_shift_form(spec, [mine, other])
    m1 = dl.random_grid_function(lat, N=2, seed=1)
    with pytest.raises(ValueError):
        mo.eval_shift_form(spec, [mine, m1])


def test_paraproduct_examples():
    lat = _lat()
    K = (0, (0,))
    one = dl.GridFunction(lat, np.ones(16))
    h = dl.haar(lat, *K, 1)
    pp = mo.ParaproductSpec(lat, 1, 2, _table({(K, 1): 0.8}))
    assert mo.eval_paraproduct_form(pp, [one, h]) == pytest.approx(0.8)
    # constants in every slot pair a constant against a cancellative Haar
    eye = dl.GridFunction(lat, np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    pp2 = mo.ParaproductSpec(lat, 2, 1, _table({(K, 1): 1.0}))
    assert abs(mo.eval_paraproduct_form(pp2, [eye, eye, eye])) < 1e-14


def test_paraproduct_oracle(rng):
    lat = _lat()
    h = dl.random_grid_function(lat, seed=31)
    coeffs = mo.make_bmo_coeffs(lat, h)
    pp = mo.ParaproductSpec(lat, 2, 3, coeffs)
    fs = [dl.random_grid_function(lat, N=2, seed=50 + i) for i in range(3)]
    # direct enumeration with explicit averages and Haar pairings
    total = 0j
    order = [1, 2, 3]  # j0 = 3: cyclic order is 1, 2, 3
    for (K, eta), a in _entries(pp.coeffs):
        prod = dl.average(fs[0], *K) @ dl.average(fs[1], *K)
        prod = prod @ dl.pairing(fs[2], dl.haar(lat, *K, eta))
        total += a * np.trace(prod)
    assert abs(mo.eval_paraproduct_form(pp, fs) - total) < 1e-12


def test_bmo_coeffs():
    lat = _lat()
    K = (0, (0,))
    h = dl.haar(lat, *K, 1)
    coeffs = mo.make_bmo_coeffs(lat, h)
    assert dict(_entries(coeffs)).keys() == {(K, 1)}
    assert dict(_entries(coeffs))[(K, 1)] == pytest.approx(1.0)
    # homogeneity
    five = mo.make_bmo_coeffs(lat, dl.GridFunction(lat, 5.0 * h.values))
    assert dict(_entries(five))[(K, 1)] == pytest.approx(1.0)
    # normalized output attains Carleson constant one
    g = dl.random_grid_function(lat, seed=7)
    pp = mo.ParaproductSpec(lat, 1, 1, mo.make_bmo_coeffs(lat, g))
    assert pp.carleson_constant() == pytest.approx(1.0, abs=1e-12)


def test_bmo_rejects_constant():
    lat = _lat()
    with pytest.raises(ValueError):
        mo.make_bmo_coeffs(lat, dl.GridFunction(lat, np.full(16, 2.0)))


def test_bmo_needs_scalar_values():
    lat = dl.build_lattice(2, 3, 1)
    h = dl.random_grid_function(lat, seed=4)
    assert mo.bmo_norm(h) > 0.0 and len(mo.make_bmo_coeffs(lat, h)) > 0
    m = dl.random_grid_function(lat, N=2, seed=4)
    for run in (lambda: mo.bmo_norm(m), lambda: mo.bmo_norm(dl.HaarPyramid(m)),
                lambda: mo.make_bmo_coeffs(lat, m)):
        with pytest.raises(ValueError, match=r"BMO norm is for scalar \(N = 1\) functions"):
            run()


def test_make_bmo_coeffs_builds_one_pyramid(monkeypatch):
    lat = dl.build_lattice(1, 6)
    h = dl.random_grid_function(lat, seed=5)
    expected = mo.make_bmo_coeffs(lat, h)
    built = []
    init = dl.HaarPyramid.__init__
    monkeypatch.setattr(dl.HaarPyramid, "__init__",
                        lambda self, f: built.append(f) or init(self, f))
    coeffs = mo.make_bmo_coeffs(lat, h)
    assert [id(f) for f in built] == [id(h)]
    assert np.array_equal(coeffs.value, expected.value)
    # a pyramid in place of its function: the same norm, no second sweep
    pyr = dl.HaarPyramid(h)
    assert mo.bmo_norm(pyr) == mo.bmo_norm(h)
    assert len(built) == 3


def test_carleson_violation_rejected():
    lat = _lat()
    K = (0, (0,))
    with pytest.raises(ValueError):
        mo.ParaproductSpec(lat, 1, 1, _table({(K, 1): 2.0}))


def test_adjoint_trivial_shift_maps_haar_to_haar():
    lat = _lat()
    spec = _unit_shift(lat)
    h = dl.haar(lat, 0, (0,), 1)
    g = mo.adjoint_eval(spec, 2, [h])
    assert np.abs(g.values - h.values).max() < 1e-12
    zero = mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, _table({}))
    gz = mo.adjoint_eval(zero, 2, [h])
    assert np.abs(gz.values).max() == 0.0


def _dual_pair(lat, g, f):
    # integral of tau(g f)
    gv = g.values.reshape((-1,) + g.value_shape)
    fv = f.values.reshape((-1,) + f.value_shape)
    prod = np.einsum("xij,xjk->xik", gv, fv)
    return complex(np.einsum("xii->x", prod).sum() * lat.cell_volume)


# d = 2 on a shifted lattice: the synthesis then crosses cube edges that
# wrap around the torus, and spreads four eta masks per cube
_ADJOINT_D2 = dl.build_lattice(2, 3, (0.25, 0.625))


def test_adjoint_duality_all_slots(rng):
    for lat in (dl.build_lattice(1, 3), _ADJOINT_D2):
        spec = mo.make_random_shift(lat, 2, (1, 0, 1), {2, 3}, seed=8)
        fs = [dl.random_grid_function(lat, N=2, seed=70 + i) for i in range(3)]
        value = mo.eval_shift_form(spec, fs)
        for j0 in (1, 2, 3):
            rest = [fs[i] for i in range(3) if i != j0 - 1]
            g = mo.adjoint_eval(spec, j0, rest)
            assert abs(_dual_pair(lat, g, fs[j0 - 1]) - value) < 1e-12


def test_adjoint_duality_paraproduct(rng):
    for lat in (_lat(), _ADJOINT_D2):
        h = dl.random_grid_function(lat, seed=3)
        pp = mo.ParaproductSpec(lat, 2, 2, mo.make_bmo_coeffs(lat, h))
        fs = [dl.random_grid_function(lat, N=2, seed=80 + i) for i in range(3)]
        value = mo.eval_paraproduct_form(pp, fs)
        for j0 in (1, 2, 3):
            rest = [fs[i] for i in range(3) if i != j0 - 1]
            g = mo.adjoint_eval(pp, j0, rest)
            assert abs(_dual_pair(lat, g, fs[j0 - 1]) - value) < 1e-12


def test_reduce_all_cancellative_passthrough():
    lat = _lat()
    spec = mo.make_random_shift(lat, 1, (1, 1), {1, 2}, seed=4)
    terms = mo.reduce_shift(spec)
    assert len(terms) == 1
    assert terms[0].coeffs == spec.coeffs


def test_reduce_single_noncancellative_depth_one():
    lat = _lat()
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {2, 3}, seed=4)
    terms = mo.reduce_shift(spec)
    # slot 1 is averaged at K, then the delta at depth 0
    assert [(t.levels, t.cancellative) for t in terms] == [
        ((0, 0, 1), frozenset({2, 3})), ((0, 0, 1), frozenset({1, 2, 3}))]


def test_reduce_preserves_form_and_normalization(rng):
    lat = dl.build_lattice(1, 5)
    for seed in range(6):
        n = int(rng.integers(1, 4))
        complexity = [int(rng.integers(0, 3)) for _ in range(n + 1)]
        slots = list(rng.permutation(n + 1) + 1)
        canc = set(slots[:2])
        try:
            spec = mo.make_random_shift(lat, n, complexity, canc, seed=seed,
                                        blocks=4, tuples_per_block=3)
        except ValueError:
            continue
        fs = [dl.random_grid_function(lat, N=2, seed=seed * 10 + i)
              for i in range(n + 1)]
        terms = mo.reduce_shift(spec)
        expand = [j for j in range(1, n + 2)
                  if j not in canc and complexity[j - 1] > 0]
        expected = int(np.prod([complexity[j - 1] + 1 for j in expand])) if expand else 1
        assert len(terms) == expected
        total = sum(mo.eval_shift_form(t, fs) for t in terms)
        assert abs(total - mo.eval_shift_form(spec, fs)) < 1e-10
        for t in terms:
            assert t.check_normalization() <= 1 + 1e-12


def test_shift_rewrite_builds_one_pyramid_per_input(monkeypatch):
    from dyadlab import criteria as cr
    lat = dl.build_lattice(1, 5)
    spec = mo.make_random_shift(lat, 2, (2, 0, 1), {2, 3}, seed=1, blocks=5,
                                tuples_per_block=5)
    fs = [dl.random_grid_function(lat, N=2, seed=i) for i in range(3)]
    built = []
    init = dl.HaarPyramid.__init__
    monkeypatch.setattr(dl.HaarPyramid, "__init__",
                        lambda self, f: built.append(f) or init(self, f))
    recs = cr.shift_rewrite(spec, fs)
    assert len(mo.reduce_shift(spec)) == 3 and all(r["pass"] for r in recs)
    assert sorted(map(id, built)) == sorted(map(id, fs))
    # a pyramid in place of its function: the same value, read-only arrays
    pyrs = [dl.HaarPyramid(f) for f in fs]
    assert mo.eval_shift_form(spec, pyrs) == mo.eval_shift_form(spec, fs)
    assert not any(p.flat.flags.writeable for p in pyrs)


def _merged_table(level, index, eta, value):
    """A table of the rows, those with one key summed by ``_merge_repeats``."""
    t = mo.CoeffTable(level, index, eta, value)
    keep, value = mo._merge_repeats(t._keys(), t.value)
    if keep is None:
        return t
    return mo.CoeffTable(t.level[keep], t.index[keep], t.eta[keep], value)


def _reduce_shift_reference(spec):
    """``reduce_shift`` as every row expanded, then merged: each slot
    replaces each row by its variants (level, index, eta, gamma factor),
    and ``_merge_repeats`` sums the rows that land on one key."""
    lat, t = spec.lattice, spec.coeffs
    n1, d, R = spec.n + 1, lat.dim, len(spec.coeffs)
    expand_slots = [j for j in range(1, n1 + 1)
                    if j not in spec.cancellative and spec.complexity[j - 1] > 0]
    measure = 2.0 ** (-t.level * d)
    etas = np.arange(1, 1 << d)
    terms = []
    for combo in itertools.product(*([("expect",)] + [("delta", l) for l in range(
            spec.complexity[j - 1])] for j in expand_slots)):
        choice = dict(zip(expand_slots, combo))
        labels = [choice.get(j, ("canc",) if j in spec.cancellative else ("expect",))
                  for j in range(1, n1 + 1)]
        src, cols, gamma = np.arange(R), [[t.level[:, 0]], [t.index[:, 0]], []], np.ones(R)
        for j, kind in enumerate(labels, start=1):
            k = spec.complexity[j - 1]
            if kind[0] == "canc":
                v = (t.level[:, j:j + 1], t.index[:, j:j + 1], t.eta[:, j - 1:j], np.ones((R, 1)))
            elif kind[0] == "expect":
                v = (t.level[:, :1], t.index[:, :1], np.zeros((R, 1), dtype=np.int64),
                     (measure[:, j:j + 1] / measure[:, :1]) ** 0.5)
            else:
                l = kind[1]
                anc = t.index[:, j] >> (k - l)
                child = ((t.index[:, j] >> (k - l - 1)) - 2 * anc) @ (1 << np.arange(d)[::-1])
                mag = measure[:, j] ** 0.5 / (2.0 ** (-(t.level[:, 0] + l) * d)) ** 0.5
                v = (np.repeat(t.level[:, :1] + l, len(etas), axis=1),
                     np.repeat(anc[:, None], len(etas), axis=1),
                     np.repeat(etas[None], R, axis=0),
                     dl.lattice._haar_signs(d)[etas[None], child[:, None]] * mag[:, None])
            V = v[0].shape[1]
            pick = (np.repeat(src, V), np.tile(np.arange(V), len(src)))
            cols = [[np.repeat(c, V, axis=0) for c in col] + [x[pick]] for col, x in zip(cols, v)]
            gamma = np.repeat(gamma, V) * v[3][pick]
            src = pick[0]
        levels = tuple(k if kind[0] == "canc" else kind[-1] if kind[0] == "delta" else 0
                       for k, kind in zip(spec.complexity, labels))
        canc = spec.cancellative | {j for j, kind in choice.items() if kind[0] == "delta"}
        table = _merged_table(*(np.stack(c, axis=1) for c in cols), t.value[src] * gamma)
        terms.append((levels, canc, table, len(src)))
    return terms


@pytest.mark.parametrize("d, L, n, complexity, canc, shift", [
    (1, 5, 2, (2, 0, 1), {2, 3}, None),
    (2, 4, 2, (2, 0, 1), {2, 3}, None),
    (3, 3, 2, (2, 0, 1), {2, 3}, None),
    (1, 5, 3, (2, 3, 0, 1), {3, 4}, None),
    (2, 4, 3, (2, 3, 0, 1), {3, 4}, None),
    (3, 3, 3, (2, 3, 0, 1), {3, 4}, None),
    (2, 4, 2, (2, 0, 1), {2, 3}, 5),
    (2, 4, 3, (2, 3, 0, 1), {3, 4}, (0.25, 0.5)),
])
@pytest.mark.parametrize("scale", [1.0, 0.0])
def test_reduce_shift_matches_expand_then_merge(d, L, n, complexity, canc, shift, scale):
    lat = dl.build_lattice(d, L, shift)
    spec = mo.make_random_shift(lat, n, complexity, canc, seed=d + L, scale=scale,
                                blocks=8, tuples_per_block=8)
    assert (len(spec.coeffs) > 0) == (scale > 0)  # at scale 0 the table is empty
    got, want = mo.reduce_shift(spec), _reduce_shift_reference(spec)
    assert len(got) == len(want)
    merged = False
    for term, (levels, cancellative, table, expanded) in zip(got, want):
        assert (term.levels, term.cancellative) == (levels, cancellative)
        for name in ("level", "index", "eta"):
            a, b = getattr(term.coeffs, name), getattr(table, name)
            assert a.shape == b.shape and np.array_equal(a, b), name
        assert term.coeffs.value.tobytes() == table.value.tobytes()
        merged |= len(table) < expanded
    assert merged == (scale > 0)  # the nonempty cases sum repeated keys


def _traced_peak(fn):
    """fn() and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def d2_reduce():
    """The d = 2, L = 7 shift of the dyadic-d2 benchmark's reduce run at
    seed 0 (14,967 rows) and its three terms (2,304, 6,912 and 24,435 rows)."""
    lat = dl.build_lattice(2, 7)
    spec = mo.make_random_shift(lat, 2, (2, 0, 1), {2, 3}, seed=0, blocks=64,
                                tuples_per_block=32)
    return spec, mo.reduce_shift(spec)


def test_reduce_shift_memory_follows_the_output(d2_reduce):
    # repeats are merged over table rows before the eta choices are spread,
    # and only the rows kept get cube arrays (the expand-then-merge rewrite
    # peaked at 23.1 MB here)
    spec, _ = d2_reduce
    terms, peak = _traced_peak(lambda: mo.reduce_shift(spec))
    out = sum(a.nbytes for t in terms
              for a in (t.coeffs.level, t.coeffs.index, t.coeffs.eta, t.coeffs.value))
    assert out > 4e6
    assert peak <= 2 * out


def test_shift_form_memory_follows_the_rows(d2_reduce):
    # pairings gathered and multiplied a block of rows at a time: beyond the
    # pyramids, one trace per row and one block (the whole-table chain
    # peaked at 7.8 MB, 320 bytes a row)
    spec, terms = d2_reduce
    term = max(terms, key=lambda t: len(t.coeffs))
    assert len(term.coeffs) >= 24_000
    fs = [dl.random_grid_function(spec.lattice, N=2, seed=10 + i) for i in range(3)]
    pyrs = [dl.HaarPyramid(f) for f in fs]
    value, peak = _traced_peak(lambda: mo.eval_shift_form(term, pyrs))
    assert value == mo.eval_shift_form(term, fs)
    assert peak <= 48 * len(term.coeffs)


def test_adjoint_memory_follows_the_pyramid_layout():
    # coefficients are summed into the pyramid's layout, one slot per finest
    # cube (a (#cubes, 2^d) table with the finest level's dead cancellative
    # slots peaked at 11.2 MB here)
    lat = dl.build_lattice(2, 7)
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=0, blocks=64,
                                tuples_per_block=32)
    assert len(spec.coeffs) == 8181
    fs = [dl.random_grid_function(lat, N=2, seed=10 + i) for i in range(2)]
    _, peak = _traced_peak(lambda: mo.adjoint_eval(spec, 2, fs))
    assert peak <= 9e6


def test_shift_json_roundtrip():
    lat = dl.build_lattice(1, 4)
    spec = mo.make_random_shift(lat, 2, (1, 0, 2), {1, 3}, seed=11)
    text = mo.shift_to_json(spec)
    again = mo.shift_from_json(text)
    assert again.coeffs == spec.coeffs
    assert again.complexity == spec.complexity
    assert mo.shift_to_json(again) == text


def test_shift_json_eta_default():
    K = (0, (0,))
    payload = {
        "n": 1, "complexity": [0, 0], "cancellative": [1, 2],
        "dim": 1, "depth": 3, "shift": [0.0],
        "coeffs": [{"K": [0, [0]], "Qs": [[0, [0]], [0, [0]]],
                    "re": 2.0, "im": 0.0}],
    }
    with pytest.raises(ValueError, match=r"field coeffs\[0\]\.re"):
        mo.shift_from_json(json.dumps(payload))
    # within the bound, the missing etas default to the fully cancellative pattern
    payload["coeffs"][0]["re"] = 1.0
    spec = mo.shift_from_json(json.dumps(payload))
    assert dict(_entries(spec.coeffs))[(K, (K, K), (1, 1))] == 1.0


def test_paraproduct_json_roundtrip():
    lat = dl.build_lattice(1, 3)
    h = dl.random_grid_function(lat, seed=5)
    pp = mo.ParaproductSpec(lat, 2, 1, mo.make_bmo_coeffs(lat, h))
    text = mo.paraproduct_to_json(pp)
    again = mo.paraproduct_from_json(text)
    assert again.coeffs == pp.coeffs
    assert again.haar_position == pp.haar_position


# recorded from the serializer that kept coefficients in a dict and
# sorted entries by key; the rows of this table come in that order
SHIFT_JSON_SHA256 = "c7b41c6f56d0805f215a04efaa2d21c569b7b8b315c30253272b127b1e4133ee"


def test_shift_json_bytes_pinned():
    lat = dl.build_lattice(2, 3)
    spec = mo.make_random_shift(lat, 1, (1, 0), {1, 2}, seed=0,
                                blocks=2, tuples_per_block=2)
    assert len(spec.coeffs) == 36
    text = mo.shift_to_json(spec)
    assert hashlib.sha256(text.encode()).hexdigest() == SHIFT_JSON_SHA256
    assert mo.shift_to_json(mo.shift_from_json(text)) == text


def test_empty_tables_load_back():
    # a scale-0 shift has no coefficients; its file must load as it was written
    lat = dl.build_lattice(2, 3)
    spec = mo.make_random_shift(lat, 1, (1, 0), {1, 2}, seed=0, scale=0.0)
    text = mo.shift_to_json(spec)
    again = mo.shift_from_json(text)
    assert len(again.coeffs) == 0 and again.coeffs.index.shape == (0, 3, 2)
    assert mo.shift_to_json(again) == text
    empty = mo.ParaproductSpec(lat, 1, 1, mo.CoeffTable(np.zeros((0, 1)), np.zeros((0, 1, 2)),
                                                        np.zeros((0, 1)), []))
    text = mo.paraproduct_to_json(empty)
    assert mo.paraproduct_to_json(mo.paraproduct_from_json(text)) == text


# recorded from the writer that built one dict per entry for json.dumps,
# on pairings from the butterfly sweep (``lattice._haar_butterfly``)
PARAPRODUCT_JSON_SHA256 = "2cf87b34b56933e7acf9016d79d4a02189c95aa72659e743f3ceacb80e976aa6"


def test_paraproduct_json_bytes_pinned():
    lat = dl.build_lattice(2, 3, (0.25, 0.5))
    h = dl.random_grid_function(lat, seed=3)
    pp = mo.ParaproductSpec(lat, 2, 2, mo.make_bmo_coeffs(lat, h))
    assert len(pp.coeffs) == 63
    text = mo.paraproduct_to_json(pp)
    assert hashlib.sha256(text.encode()).hexdigest() == PARAPRODUCT_JSON_SHA256
    assert mo.paraproduct_to_json(mo.paraproduct_from_json(text)) == text


def _shift_payload():
    lat = dl.build_lattice(1, 3)
    spec = mo.make_random_shift(lat, 1, (1, 0), {1, 2}, seed=2,
                                blocks=2, tuples_per_block=2)
    return json.loads(mo.shift_to_json(spec))


@pytest.mark.parametrize("edit, field", [
    (lambda o: o.pop("dim"), "dim"),
    (lambda o: o.pop("n"), "n"),
    (lambda o: o.pop("cancellative"), "cancellative"),
    (lambda o: o.pop("coeffs"), "coeffs"),
    (lambda o: o.update(complexity=[1]), "complexity"),
    (lambda o: o["coeffs"][1].pop("K"), "coeffs[1].K"),
    (lambda o: o["coeffs"][1]["Qs"].pop(), "coeffs[1].Qs"),
    (lambda o: o["coeffs"][1]["Qs"][0].__setitem__(1, [0, 0]), "coeffs[1].Qs"),
    (lambda o: o["coeffs"][1].update(etas=[1]), "coeffs[1].etas"),
    (lambda o: o["coeffs"][1].pop("im"), "coeffs[1].im"),
    (lambda o: o["coeffs"][1].update(re=float("nan")), "coeffs[1].re"),
    (lambda o: o["coeffs"][1].update(im=float("inf")), "coeffs[1].im"),
    pytest.param(lambda o: o["coeffs"][1]["K"].__setitem__(0, True), "coeffs[1].K",
                 id="true-level"),
    pytest.param(lambda o: o["coeffs"][1]["Qs"][0][1].__setitem__(0, 1.0), "coeffs[1].Qs",
                 id="float-index"),
    pytest.param(lambda o: o["coeffs"].__setitem__(1, [0, [0]]), "coeffs[1].K",
                 id="list-entry"),
    pytest.param(lambda o: o["coeffs"][1]["Qs"][0][1].__setitem__(0, 99), "coeffs[1].Qs",
                 id="index-range"),
    pytest.param(lambda o: o["coeffs"][1]["K"].__setitem__(0, 63), "coeffs[1].K",
                 id="level-range"),
    pytest.param(lambda o: o["coeffs"][1].update(re=10 ** 400), "coeffs[1].re",
                 id="huge-int"),
    pytest.param(lambda o: o["coeffs"][1].update(etas=[2 ** 70, 1]), "coeffs[1].etas",
                 id="huge-eta"),
    # well-formed entries that do not fit the lattice, the slots or the bound
    pytest.param(lambda o: o["coeffs"][1].update(K=[9, [0]]), "coeffs[1].K", id="K-depth"),
    pytest.param(lambda o: o["coeffs"][1]["Qs"].__setitem__(0, [2, [3]]), "coeffs[1].Qs",
                 id="not-descendant"),
    pytest.param(lambda o: o["coeffs"][1].update(etas=[1, 0]), "coeffs[1].etas",
                 id="eta-for-slot"),
    pytest.param(lambda o: o["coeffs"][0].update(re=50), "coeffs[0].re", id="over-bound-re"),
    pytest.param(lambda o: o["coeffs"][2].update(im=-50), "coeffs[2].im", id="over-bound-im"),
    # a repeated key is rejected at its second entry, after the rules each
    # entry must keep on its own; table row r is file entry r
    pytest.param(lambda o: o["coeffs"].insert(1, dict(o["coeffs"][0])), "coeffs[1]",
                 id="repeat"),
    pytest.param(lambda o: (o["coeffs"].insert(1, dict(o["coeffs"][0])),
                            o["coeffs"][3].update(K=[9, [0]])), "coeffs[3].K",
                 id="repeat-then-K-depth"),
    pytest.param(lambda o: o["coeffs"].insert(1, dict(o["coeffs"][0], re=50)), "coeffs[1].re",
                 id="repeat-over-bound"),
    # header integers out of range
    pytest.param(lambda o: o.update(dim=0), "dim", id="dim-zero"),
    pytest.param(lambda o: o.update(depth=0), "depth", id="depth-zero"),
    pytest.param(lambda o: o.update(n=0), "n", id="n-zero"),
    # header values that break a rule of the lattice or the shift; the
    # payload has n = 1 and depth 3
    pytest.param(lambda o: o.update(depth=80), "depth", id="depth-bound"),
    pytest.param(lambda o: o.update(dim=63, depth=1), "depth", id="dim-depth-bound"),
    pytest.param(lambda o: o.update(complexity=[-1, 0]), "complexity", id="complexity-negative"),
    pytest.param(lambda o: o.update(cancellative=[1, 5]), "cancellative",
                 id="cancellative-range"),
    pytest.param(lambda o: o.update(cancellative=[1]), "cancellative", id="cancellative-one"),
    pytest.param(lambda o: o.update(cancellative=[1, 1, 2]), "cancellative",
                 id="cancellative-repeat"),
    # a file without coefficients whose complexity leaves no level for K
    pytest.param(lambda o: o.update(complexity=[3, 0], coeffs=[]), "depth",
                 id="complexity-too-deep"),
    pytest.param(lambda o: o.update(shift=[0.3]), "shift", id="shift-not-multiple"),
    pytest.param(lambda o: o.update(shift=[0.0, 0.0]), "shift", id="shift-length"),
    pytest.param(lambda o: o.update(shift="x"), "shift", id="shift-not-numbers"),
    pytest.param(lambda o: o.update(shift=[True]), "shift", id="shift-true"),
    pytest.param(lambda o: o.pop("shift"), "shift", id="shift-missing"),
])
def test_shift_loader_names_bad_field(edit, field):
    obj = _shift_payload()
    edit(obj)
    with pytest.raises(ValueError, match=rf"field {re.escape(field)}( |$)"):
        mo.shift_from_json(json.dumps(obj))


def test_shift_loader_rejects_an_inexact_shift_at_depth_30():
    # 0.3 * 2^30 lies a fifth of a cell off a multiple: rejected, not rounded
    obj = _shift_payload()
    obj.update(depth=30, shift=[0.3])
    with pytest.raises(FieldError, match=r"^field shift is rejected: 0.3 is not a multiple"):
        mo.shift_from_json(json.dumps(obj))


@pytest.mark.parametrize("edit, field", [
    (lambda o: o.pop("depth"), "depth"),
    (lambda o: o.pop("haar_position"), "haar_position"),
    (lambda o: o["coeffs"][0].update(K=[1]), "coeffs[0].K"),
    (lambda o: o["coeffs"][0].update(eta=[1]), "coeffs[0].eta"),
    (lambda o: o["coeffs"][0].update(re=float("-inf")), "coeffs[0].re"),
    pytest.param(lambda o: o["coeffs"][2]["K"].__setitem__(0, False), "coeffs[2].K",
                 id="false-level"),
    pytest.param(lambda o: o["coeffs"][2]["K"][1].__setitem__(0, 0.0), "coeffs[2].K",
                 id="float-index"),
    pytest.param(lambda o: o["coeffs"].__setitem__(2, "K"), "coeffs[2].K", id="str-entry"),
    pytest.param(lambda o: o["coeffs"][2]["K"][1].__setitem__(0, -1), "coeffs[2].K",
                 id="index-range"),
    pytest.param(lambda o: o["coeffs"][2]["K"].__setitem__(0, 63), "coeffs[2].K",
                 id="level-range"),
    pytest.param(lambda o: o["coeffs"][2].update(im=10 ** 400), "coeffs[2].im", id="huge-int"),
    pytest.param(lambda o: o["coeffs"][2].pop("re"), "coeffs[2].re", id="missing-key"),
    pytest.param(lambda o: o["coeffs"][2].update(eta=True), "coeffs[2].eta", id="true-eta"),
    pytest.param(lambda o: o["coeffs"][2].update(eta=2), "coeffs[2].eta", id="eta-range"),
    pytest.param(lambda o: o["coeffs"][2].update(K=[3, [5]]), "coeffs[2].K", id="finest-level"),
    pytest.param(lambda o: o["coeffs"][2].update(eta=0), "coeffs[2].eta", id="eta-zero"),
    pytest.param(lambda o: o["coeffs"].insert(1, dict(o["coeffs"][0])), "coeffs[1]",
                 id="repeat"),
    pytest.param(lambda o: (o["coeffs"].insert(1, dict(o["coeffs"][0])),
                            o["coeffs"][3].update(eta=0)), "coeffs[3].eta",
                 id="repeat-then-eta-zero"),
    pytest.param(lambda o: o["coeffs"][0].update(re=100.0), "coeffs", id="carleson"),
    # header integers out of range; the payload has n = 2
    pytest.param(lambda o: o.update(dim=0), "dim", id="dim-zero"),
    pytest.param(lambda o: o.update(depth=0), "depth", id="depth-zero"),
    pytest.param(lambda o: o.update(n=0), "n", id="n-zero"),
    pytest.param(lambda o: o.update(haar_position=0), "haar_position", id="haar-position-zero"),
    pytest.param(lambda o: o.update(haar_position=4), "haar_position", id="haar-position-above"),
    pytest.param(lambda o: o.update(depth=80), "depth", id="depth-bound"),
    pytest.param(lambda o: o.pop("shift"), "shift", id="shift-missing"),
])
def test_paraproduct_loader_names_bad_field(edit, field):
    lat = dl.build_lattice(1, 3)
    h = dl.random_grid_function(lat, seed=5)
    obj = json.loads(mo.paraproduct_to_json(
        mo.ParaproductSpec(lat, 2, 1, mo.make_bmo_coeffs(lat, h))))
    edit(obj)
    with pytest.raises(ValueError, match=rf"field {re.escape(field)}( |$)"):
        mo.paraproduct_from_json(json.dumps(obj))


def _paraproduct_payload():
    lat = dl.build_lattice(1, 3)
    h = dl.random_grid_function(lat, seed=5)
    return json.loads(mo.paraproduct_to_json(
        mo.ParaproductSpec(lat, 2, 1, mo.make_bmo_coeffs(lat, h))))


# (payload, qs, eta key, eta default) of the two loaders at d = 1
_READERS = {"shift": (_shift_payload, 2, "etas", [1, 1]),
            "paraproduct": (_paraproduct_payload, 0, "eta", 1)}


@pytest.mark.parametrize("kind", sorted(_READERS))
@pytest.mark.parametrize("eta", [2, -1])
def test_eta_mask_range_is_checked_by_the_spec(kind, eta):
    # the readers bound an eta mask only by int64; its 2^d bound is a rule
    # of the shift or paraproduct, which raises FieldError
    payload, qs, key, _ = _READERS[kind]
    obj = payload()
    obj["coeffs"][1][key] = [eta] * qs if qs else eta
    load = mo.shift_from_json if kind == "shift" else mo.paraproduct_from_json
    with pytest.raises(FieldError, match=rf"^field coeffs\[1\]\.{key} is rejected: "):
        load(json.dumps(obj))


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_loader_names_the_first_bad_entry_in_file_order(kind):
    # a 1.0 index in the last entry (2 or 6), a string re in entry 1
    obj = _READERS[kind][0]()
    obj["coeffs"][-1]["K"][1][0] = 1.0
    obj["coeffs"][1]["re"] = "0.5"
    load = mo.shift_from_json if kind == "shift" else mo.paraproduct_from_json
    with pytest.raises(ValueError, match=r"^field coeffs\[1\]\.re "):
        load(json.dumps(obj))


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_loaders_keep_an_integer_a_negative_zero_and_the_default_eta(kind):
    # entry 0 takes the default eta pattern; entry 1 has re = 1 and im = -0.0
    if kind == "shift":
        head = {"n": 1, "complexity": [0, 0], "cancellative": [1, 2]}
        cubes = [{"K": [1, [0]], "Qs": [[1, [0]], [1, [0]]]},
                 {"K": [0, [0]], "Qs": [[0, [0]], [0, [0]]], "etas": [1, 1]}]
        load, dump = mo.shift_from_json, mo.shift_to_json
    else:
        head = {"n": 1, "haar_position": 1}
        cubes = [{"K": [1, [1]]}, {"K": [0, [0]], "eta": 1}]
        load, dump = mo.paraproduct_from_json, mo.paraproduct_to_json
    obj = {**head, "dim": 1, "depth": 3, "shift": [0.0],
           "coeffs": [dict(cubes[0], re=0.0, im=0.0), dict(cubes[1], re=1, im=-0.0)]}
    spec = load(json.dumps(obj))
    assert spec.coeffs.eta[0].tolist() == np.ravel(_READERS[kind][3]).tolist()
    for t in (spec.coeffs, load(dump(spec)).coeffs):
        assert t.value[1] == 1.0 and np.signbit(t.value[1].imag)


def _dict_json(spec, header):
    """The writer's oracle: one dict per entry through ``json.dumps``."""
    t, lat = spec.coeffs, spec.lattice
    entries = []
    for lv, ix, es, a in zip(t.level.tolist(), t.index.tolist(), t.eta.tolist(),
                             t.value.tolist()):
        cubes = [[l, i] for l, i in zip(lv, ix)]
        ent = {"K": cubes[0], "re": a.real, "im": a.imag}
        ent.update({"Qs": cubes[1:], "etas": es} if len(cubes) > 1 else {"eta": es[0]})
        entries.append(ent)
    return json.dumps({**header, "dim": lat.dim, "depth": lat.depth,
                       "shift": list(lat.shift), "coeffs": entries}, sort_keys=True)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_json_writer_equals_one_dict_per_entry(d):
    lat = dl.build_lattice(d, 3)
    t = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=d, blocks=3,
                             tuples_per_block=3).coeffs
    value = t.value.copy()
    value[:4] = [-0.0, 1e-300, complex(0.0, -0.0), 5e-324]
    spec = mo.ShiftSpec(lat, 2, (1, 0, 1), {1, 3}, mo.CoeffTable(t.level, t.index, t.eta, value))
    header = {"n": 2, "complexity": [1, 0, 1], "cancellative": [1, 3]}
    assert mo.shift_to_json(spec) == _dict_json(spec, header)
    h = dl.random_grid_function(lat, seed=d)
    pp = mo.ParaproductSpec(lat, 1, 2, mo.make_bmo_coeffs(lat, h))
    assert mo.paraproduct_to_json(pp) == _dict_json(pp, {"n": 1, "haar_position": 2})
    empty = mo.ParaproductSpec(lat, 1, 1, mo.CoeffTable(np.zeros((0, 1)), np.zeros((0, 1, d)),
                                                        np.zeros((0, 1)), []))
    assert mo.paraproduct_to_json(empty) == _dict_json(empty, {"n": 1, "haar_position": 1})


def test_coeff_table_arrays_are_read_only():
    # a value written after the checks could be NaN, which the writer
    # would put into the file as a bare NaN
    spec = mo.make_random_shift(dl.build_lattice(1, 3), 2, (1, 0, 1), {1, 3}, seed=1,
                                blocks=3, tuples_per_block=3)
    with pytest.raises(ValueError, match="read-only"):
        spec.coeffs.value[0] = float("nan")
    # the views do not copy, and the caller's arrays stay writeable
    level = np.zeros((1, 1), dtype=np.int64)
    t = mo.CoeffTable(level, np.zeros((1, 1, 1)), [[1]], [1.0])
    assert np.shares_memory(t.level, level) and level.flags.writeable
    assert not any(a.flags.writeable for a in (t.level, t.index, t.eta, t.value))


def test_coeff_table_merges_repeated_keys():
    Q, K = (1, (1,)), (0, (0,))
    rows = ([[1], [0], [1]], [[[1]], [[0]], [[1]]], [[1], [1], [1]], [1.0, 2.0, 3.0])
    # a table keeps the rows it is given; the merge is reduce_shift's
    assert len(mo.CoeffTable(*rows)) == 3
    summed = _merged_table(*rows)
    assert _entries(summed) == [((Q, 1), 4.0), ((K, 1), 2.0)]
    # equality is by key and value, whatever the row order
    swapped = mo.CoeffTable([[0], [1]], [[[0]], [[1]]], [[1], [1]], [2.0, 4.0])
    assert len(swapped) == 2 and swapped == summed
    assert swapped != mo.CoeffTable([[0], [1]], [[[0]], [[1]]], [[1], [1]], [2.0, 3.0])


def _raw_table(keys, values):
    """A table of rows (K, Q_1, Q_2) with etas (e_1, e_2) at d = 1, from
    keys ((level, index) per cube, etas)."""
    return _merged_table(np.reshape([[c[0] for c in cs] for cs, _ in keys], (-1, 3)),
                         np.reshape([[[c[1]] for c in cs] for cs, _ in keys], (-1, 3, 1)),
                         np.reshape([es for _, es in keys], (-1, 2)), values)


def test_coeff_table_merge_edge_cases():
    cubes = ((0, 0), (1, 1), (1, 0))
    empty = _raw_table([], [])
    assert len(empty) == 0 and empty.level.shape == (0, 3) and empty.eta.shape == (0, 2)
    # one row keeps its value to the bit, a negative zero too
    one = _raw_table([(cubes, (1, 1))], [complex(-0.0, 5e-324)])
    assert one.value.tobytes() == np.array([complex(-0.0, 5e-324)]).tobytes()
    same = _raw_table([(cubes, (1, 1))] * 3, [1.0, 2.0, 4.0])
    assert len(same) == 1 and same.value.tolist() == [7.0]
    # keys that differ only in the last eta column stay apart, in first-row order
    last = _raw_table([(cubes, (1, 1)), (cubes, (1, 0)), (cubes, (1, 1))], [1.0, 2.0, 4.0])
    assert last.eta.tolist() == [[1, 1], [1, 0]]
    assert last.value.tolist() == [5.0, 2.0]
    # the sum runs in row order: (1e16 + 1) rounds back to 1e16, so the
    # rows sum to 0, where any other order would give 1
    order = _raw_table([(cubes, (1, 1))] * 3, [1e16, 1.0, -1e16])
    assert order.value.tolist() == [0.0]


def _contains(K0, K):
    """K lies in K0: index >> k is the index of the ancestor k levels up."""
    k = K[0] - K0[0]
    return k >= 0 and tuple(i >> k for i in K[1]) == K0[1]


def _carleson_brute(lat, coeffs):
    """Carleson constant of ((K, eta), a) pairs, cube by cube."""
    coeffs = list(coeffs)
    best = 0.0
    for K0 in lattice_cubes(lat):
        tot = 0.0
        for (K, _eta), a in coeffs:
            if _contains(K0, K):
                tot += abs(a) ** 2
        best = max(best, (tot / 2.0 ** (-K0[0] * lat.dim)) ** 0.5)
    return best


def _bmo_brute(h):
    lat = h.lattice
    sq = {Q: sum(abs(complex(dl.pairing(h, dl.haar(lat, *Q, eta))[0, 0])) ** 2
                 for eta in range(1, 1 << lat.dim))
          for Q in lattice_cubes(lat) if Q[0] < lat.depth}
    best = 0.0
    for K0 in lattice_cubes(lat):
        tot = sum(s for Q, s in sq.items() if _contains(K0, Q))
        best = max(best, (tot / 2.0 ** (-K0[0] * lat.dim)) ** 0.5)
    return best


@pytest.mark.parametrize("d, L", [(1, 5), (2, 3)])
def test_carleson_and_bmo_sweeps_match_brute_force(d, L):
    rng = np.random.default_rng(10 * d + L)
    lat = dl.build_lattice(d, L, 3)
    for trial in range(5):
        coeffs = {}
        for Q in lattice_cubes(lat):
            for eta in range(1, 1 << d):
                if Q[0] < L and rng.uniform() < 0.3:
                    coeffs[(Q, eta)] = complex(*rng.standard_normal(2))
        # scaled to constant 1/2, so that the spec meets the Carleson condition
        scale = 0.5 / _carleson_brute(lat, coeffs.items())
        pp = mo.ParaproductSpec(lat, 1, 1, _table({key: a * scale for key, a in coeffs.items()},
                                                  (1, 1)))
        assert abs(pp.carleson_constant() - _carleson_brute(lat, _entries(pp.coeffs))) < 1e-12
        h = dl.random_grid_function(lat, seed=trial)
        assert abs(mo.bmo_norm(h) - _bmo_brute(h)) < 1e-12


def _mixed_input_norm(f, p):
    # L^p norm of the pointwise dual-Schatten norm
    from dyadlab.ncspaces import conjugate_exponent, lp_norm
    return lp_norm(f.values, p, conjugate_exponent(p))


def test_shift_boundedness_harness():
    # 200 random trials: the form-to-norm ratio stays finite and its max
    # over the depth parameter grows at most polynomially of degree n+1
    import math
    rng = np.random.default_rng(314)
    maxima = {}
    trials = 0
    while trials < 200:
        n = int(rng.integers(1, 4))
        kappa = int(rng.integers(0, 4))
        L = int(rng.integers(5, 9))
        lat = dl.build_lattice(1, L)
        complexity = [0] * (n + 1)
        slots = list(rng.permutation(n + 1))
        complexity[slots[0]] = kappa
        canc = {slots[0] + 1, slots[1] + 1}
        try:
            spec = mo.make_random_shift(lat, n, complexity, canc,
                                        seed=int(rng.integers(2 ** 31)),
                                        blocks=4, tuples_per_block=4)
        except ValueError:
            continue
        trials += 1
        N = int(rng.integers(1, 4))
        p = float(n + 1)  # spatial exponents p_j = n+1 form a Holder tuple
        fs = [dl.random_grid_function(lat, N=N, seed=int(rng.integers(2 ** 31)))
              for _ in range(n + 1)]
        denom = 1.0
        for f in fs:
            denom *= _mixed_input_norm(f, p)
        ratio = abs(mo.eval_shift_form(spec, fs)) / denom
        assert math.isfinite(ratio)
        maxima[(n, kappa)] = max(maxima.get((n, kappa), 0.0), ratio)
    for n in sorted({k[0] for k in maxima}):
        pts = [(k, v) for (m, k), v in maxima.items() if m == n and v > 0]
        if len(pts) >= 2:
            xs = np.log([1.0 + k for k, _ in pts])
            ys = np.log([v for _, v in pts])
            beta = float(np.polyfit(xs, ys, 1)[0])
            assert beta <= n + 1


def test_fast_form_equals_naive_2d():
    lat = dl.build_lattice(2, 2, (0.25, 0.5))
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=17,
                                blocks=2, tuples_per_block=3)
    # d = 2: every cancellative slot spawns all three sign patterns
    assert all(etas[0] in (1, 2, 3) and etas[2] in (1, 2, 3) for etas in spec.coeffs.eta.tolist())
    fs = [dl.random_grid_function(lat, N=2, seed=90 + i) for i in range(3)]
    assert abs(mo.eval_shift_form(spec, fs)
               - mo.eval_shift_form_naive(spec, fs)) < 1e-12


def test_reduce_preserves_form_2d():
    # the rewrite must track per-axis sign patterns of the new Haar slots
    lat = dl.build_lattice(2, 3)
    spec = mo.make_random_shift(lat, 2, (0, 2, 1), {1, 3}, seed=23,
                                blocks=2, tuples_per_block=2)
    fs = [dl.random_grid_function(lat, N=2, seed=60 + i) for i in range(3)]
    terms = mo.reduce_shift(spec)
    assert len(terms) == 3  # expect + two delta depths for the middle slot
    total = sum(mo.eval_shift_form(t, fs) for t in terms)
    assert abs(total - mo.eval_shift_form(spec, fs)) < 1e-10
    for t in terms:
        assert t.check_normalization() <= 1 + 1e-12


def test_adjoint_duality_2d_shifted_lattice():
    lat = dl.build_lattice(2, 2, 41)
    spec = mo.make_random_shift(lat, 1, (1, 0), {1, 2}, seed=29,
                                blocks=2, tuples_per_block=2)
    fs = [dl.random_grid_function(lat, N=2, seed=95 + i) for i in range(2)]
    value = mo.eval_shift_form(spec, fs)
    assert abs(value - mo.eval_shift_form_naive(spec, fs)) < 1e-12
    for j0 in (1, 2):
        rest = [fs[i] for i in range(2) if i != j0 - 1]
        g = mo.adjoint_eval(spec, j0, rest)
        assert abs(_dual_pair(lat, g, fs[j0 - 1]) - value) < 1e-12


def test_paraproduct_2d_carleson_and_form():
    lat = dl.build_lattice(2, 2)
    h = dl.random_grid_function(lat, seed=44)
    coeffs = mo.make_bmo_coeffs(lat, h)
    assert any(eta in (2, 3) for eta in coeffs.eta[:, 0].tolist())
    pp = mo.ParaproductSpec(lat, 1, 2, coeffs)
    assert pp.carleson_constant() == pytest.approx(1.0, abs=1e-12)
    fs = [dl.random_grid_function(lat, N=2, seed=96 + i) for i in range(2)]
    total = 0j
    for (K, eta), a in _entries(pp.coeffs):
        prod = dl.average(fs[0], *K) @ dl.pairing(fs[1], dl.haar(lat, *K, eta))
        total += a * np.trace(prod)
    assert abs(mo.eval_paraproduct_form(pp, fs) - total) < 1e-12


def test_paraproduct_boundedness_harness():
    import math
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(60):
        n = int(rng.integers(1, 4))
        lat = dl.build_lattice(1, int(rng.integers(3, 6)))
        h = dl.random_grid_function(lat, seed=int(rng.integers(2 ** 31)))
        pp = mo.ParaproductSpec(lat, n, int(rng.integers(1, n + 2)),
                                mo.make_bmo_coeffs(lat, h))
        p = float(n + 1)
        fs = [dl.random_grid_function(lat, N=2, seed=int(rng.integers(2 ** 31)))
              for _ in range(n + 1)]
        denom = 1.0
        for f in fs:
            denom *= _mixed_input_norm(f, p)
        ratio = abs(mo.eval_paraproduct_form(pp, fs)) / denom
        assert math.isfinite(ratio)
        worst = max(worst, ratio)
    assert worst < 1e3


def _draw_tuples_by_array(rng, bases, bits, m):
    """The tuples as one array draw of the offsets each, the stream that
    ``_draw_tuples`` keeps."""
    draws = {}
    for ki in bases:
        key = (ki, *rng.integers(1 << np.array(bits, dtype=np.int64)).tolist())
        draws[key] = rng.uniform(size=m)
    return draws


@pytest.mark.parametrize("bits", [(0, 2, 0), (2, 32, 2), (0, 36), (2, 0, 2, 2)])
def test_draw_tuples_follow_the_array_draws(bits):
    # small ranges repeat tuples: the first place and the last uniforms stay
    for seed in range(3):
        bases = np.random.default_rng(seed + 10).integers(4, size=50).tolist()
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mo._draw_tuples(got_rng, bases, list(bits), 3)
        want = _draw_tuples_by_array(want_rng, bases, bits, 3)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        assert got_rng.random() == want_rng.random()  # the same draws taken
