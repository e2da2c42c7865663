import hashlib
import json
import re

import numpy as np
import pytest

import dyadlab as dl
from dyadlab import modelops as mo


def _lat(L=4):
    return dl.build_lattice(1, L)


def _table(coeffs, shape=(3, 2)):
    """CoeffTable from a dict {(K, Qs, etas): a} or {(K, eta): a};
    ``shape`` gives the cubes and etas per row of an empty dict."""
    rows = [((k[0], *k[1]), k[2]) if len(k) == 3 else ((k[0],), (k[1],)) for k in coeffs]
    if rows:
        shape = (len(rows[0][0]), len(rows[0][1]))
    d = rows[0][0][0].dim if rows else 1
    return mo.CoeffTable(
        np.reshape([[c.level for c in cs] for cs, _ in rows], (-1, shape[0])),
        np.reshape([[c.index for c in cs] for cs, _ in rows], (-1, shape[0], d)),
        np.reshape([es for _, es in rows], (-1, shape[1])), list(coeffs.values()))


def _top(lat):
    return lat.top()


def _unit_shift(lat):
    K = lat.top()
    return mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, _table({(K, (K, K), (1, 1)): 1.0}))


def test_trivial_shift_on_haar():
    lat = _lat()
    spec = _unit_shift(lat)
    h = dl.haar(lat, (lat.top(), 1))
    assert mo.eval_shift_form(spec, [h, h]) == pytest.approx(1.0)


def test_constant_in_cancellative_slot_vanishes():
    lat = _lat()
    spec = _unit_shift(lat)
    one = dl.GridFunction(lat, np.ones(16))
    h = dl.haar(lat, (lat.top(), 1))
    assert abs(mo.eval_shift_form(spec, [one, h])) < 1e-15


def test_normalization_reject_and_clamp():
    lat = _lat()
    K = lat.top()
    Q = dl.Cube(1, (0,))
    # bound for complexity (1,1): |Q1|^(1/2)|Q2|^(1/2)/|K| = 1/2
    coeffs = _table({(K, (Q, Q), (1, 1)): 0.9})
    with pytest.raises(ValueError):
        mo.ShiftSpec(lat, 1, (1, 1), {1, 2}, coeffs)
    spec = mo.ShiftSpec(lat, 1, (1, 1), {1, 2}, coeffs, clamp=True)
    assert abs(dict(spec.coeffs.items())[(K, (Q, Q), (1, 1))]) == pytest.approx(0.5)


def test_spec_rejects_wrong_ancestry_or_eta():
    lat = _lat()
    K = lat.top()
    Q = dl.Cube(1, (0,))
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
    (_key, val), = full.coeffs.items()
    assert abs(abs(val) - mo._coeff_bound(full.coeffs.level, 1, 1)[0]) < 1e-12


def test_complexity_incompatible_with_depth():
    lat = dl.build_lattice(1, 2)
    with pytest.raises(ValueError):
        mo.make_random_shift(lat, 1, (2, 2), {1, 2}, seed=0)


def test_make_random_shift_rejects_complexity_of_wrong_length():
    lat = dl.build_lattice(1, 4)
    with pytest.raises(ValueError, match="n\\+1 entries"):
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
        mixed[slot] = a * fs[slot] + b * g
        lhs = mo.eval_shift_form(spec, mixed)
        alt = list(fs)
        alt[slot] = g
        rhs = a * mo.eval_shift_form(spec, fs) + b * mo.eval_shift_form(spec, alt)
        assert abs(lhs - rhs) < 1e-12


def test_mismatched_inputs_rejected():
    lat = _lat()
    spec = _unit_shift(lat)
    other = dl.random_grid_function(dl.build_lattice(1, 3), seed=0, scalar=True)
    mine = dl.random_grid_function(lat, seed=0, scalar=True)
    with pytest.raises(ValueError):
        mo.eval_shift_form(spec, [mine, other])
    m1 = dl.random_grid_function(lat, N=2, seed=1)
    with pytest.raises(ValueError):
        mo.eval_shift_form(spec, [mine, m1])


def test_paraproduct_examples():
    lat = _lat()
    K = lat.top()
    one = dl.GridFunction(lat, np.ones(16))
    h = dl.haar(lat, (K, 1))
    pp = mo.ParaproductSpec(lat, 1, 2, _table({(K, 1): 0.8}))
    assert mo.eval_paraproduct_form(pp, [one, h]) == pytest.approx(0.8)
    # constants in every slot pair a constant against a cancellative Haar
    eye = dl.GridFunction(lat, np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    pp2 = mo.ParaproductSpec(lat, 2, 1, _table({(K, 1): 1.0}))
    assert abs(mo.eval_paraproduct_form(pp2, [eye, eye, eye])) < 1e-14


def test_paraproduct_oracle(rng):
    lat = _lat()
    h = dl.random_grid_function(lat, seed=31, scalar=True)
    coeffs = mo.make_bmo_coeffs(lat, h)
    pp = mo.ParaproductSpec(lat, 2, 3, coeffs)
    fs = [dl.random_grid_function(lat, N=2, seed=50 + i) for i in range(3)]
    # direct enumeration with explicit averages and Haar pairings
    total = 0j
    order = [1, 2, 3]  # j0 = 3: cyclic order is 1, 2, 3
    for (K, eta), a in pp.coeffs.items():
        prod = dl.average(fs[0], K) @ dl.average(fs[1], K)
        prod = prod @ dl.pairing(fs[2], dl.haar(lat, (K, eta)))
        total += a * np.trace(prod)
    assert abs(mo.eval_paraproduct_form(pp, fs) - total) < 1e-12


def test_bmo_coeffs():
    lat = _lat()
    K = lat.top()
    h = dl.haar(lat, (K, 1))
    coeffs = mo.make_bmo_coeffs(lat, h)
    assert dict(coeffs.items()).keys() == {(K, 1)}
    assert dict(coeffs.items())[(K, 1)] == pytest.approx(1.0)
    # homogeneity
    five = mo.make_bmo_coeffs(lat, 5.0 * h)
    assert dict(five.items())[(K, 1)] == pytest.approx(1.0)
    # normalized output attains Carleson constant one
    g = dl.random_grid_function(lat, seed=7, scalar=True)
    pp = mo.ParaproductSpec(lat, 1, 1, mo.make_bmo_coeffs(lat, g))
    assert pp.carleson_constant() == pytest.approx(1.0, abs=1e-12)


def test_bmo_rejects_constant():
    lat = _lat()
    with pytest.raises(ValueError):
        mo.make_bmo_coeffs(lat, dl.GridFunction(lat, np.full(16, 2.0)))


def test_carleson_violation_rejected():
    lat = _lat()
    K = lat.top()
    with pytest.raises(ValueError):
        mo.ParaproductSpec(lat, 1, 1, _table({(K, 1): 2.0}))


def test_adjoint_trivial_shift_maps_haar_to_haar():
    lat = _lat()
    spec = _unit_shift(lat)
    h = dl.haar(lat, (lat.top(), 1))
    g = mo.adjoint_eval(spec, 2, [h])
    assert np.abs(g.values - h.values).max() < 1e-12
    zero = mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, _table({}))
    gz = mo.adjoint_eval(zero, 2, [h])
    assert np.abs(gz.values).max() == 0.0


def _dual_pair(lat, g, f):
    # integral of tau(g f)
    if g.value_shape == ():
        return complex((g.values * f.values).sum() * lat.cell_volume)
    gv = g.values.reshape((-1,) + g.value_shape)
    fv = f.values.reshape((-1,) + f.value_shape)
    prod = np.einsum("xij,xjk->xik", gv, fv)
    return complex(np.einsum("xii->x", prod).sum() * lat.cell_volume)


def test_adjoint_duality_all_slots(rng):
    lat = dl.build_lattice(1, 3)
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {2, 3}, seed=8)
    fs = [dl.random_grid_function(lat, N=2, seed=70 + i) for i in range(3)]
    value = mo.eval_shift_form(spec, fs)
    for j0 in (1, 2, 3):
        rest = [fs[i] for i in range(3) if i != j0 - 1]
        g = mo.adjoint_eval(spec, j0, rest)
        assert abs(_dual_pair(lat, g, fs[j0 - 1]) - value) < 1e-12


def test_adjoint_duality_paraproduct(rng):
    lat = _lat()
    h = dl.random_grid_function(lat, seed=3, scalar=True)
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
    assert len(terms) == 2
    kinds = sorted(t.labels[0][0] for t in terms)
    assert kinds == ["delta", "expect"]
    for t in terms:
        assert t.levels[0] == 0
        assert len(t.cancellative) >= 2


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


def test_shift_json_roundtrip():
    lat = dl.build_lattice(1, 4)
    spec = mo.make_random_shift(lat, 2, (1, 0, 2), {1, 3}, seed=11)
    text = mo.shift_to_json(spec)
    again = mo.shift_from_json(text)
    assert again.coeffs == spec.coeffs
    assert again.complexity == spec.complexity
    assert mo.shift_to_json(again) == text


def test_shift_json_eta_default_and_clamp():
    lat = dl.build_lattice(1, 3)
    K = lat.top()
    payload = {
        "n": 1, "complexity": [0, 0], "cancellative": [1, 2],
        "dim": 1, "depth": 3, "shift": [0.0],
        "coeffs": [{"K": [0, [0]], "Qs": [[0, [0]], [0, [0]]],
                    "re": 2.0, "im": 0.0}],
    }
    import json
    with pytest.raises(ValueError):
        mo.shift_from_json(json.dumps(payload))
    spec = mo.shift_from_json(json.dumps(payload), clamp=True)
    assert abs(dict(spec.coeffs.items())[(K, (K, K), (1, 1))]) == pytest.approx(1.0)


def test_paraproduct_json_roundtrip():
    lat = dl.build_lattice(1, 3)
    h = dl.random_grid_function(lat, seed=5, scalar=True)
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


# recorded from the writer that built one dict per entry for json.dumps
PARAPRODUCT_JSON_SHA256 = "4b00d102c1deca798401b126035fb92be9113ece40f78b4de74949391022f52f"


def test_paraproduct_json_bytes_pinned():
    lat = dl.build_lattice(2, 3, (0.25, 0.5))
    h = dl.random_grid_function(lat, seed=3, scalar=True)
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
    # a repeated key merges two entries into one table row: the index
    # still counts file entries, and a value names the entry it came from
    pytest.param(lambda o: (o["coeffs"].insert(1, dict(o["coeffs"][0])),
                            o["coeffs"][3].update(K=[9, [0]])), "coeffs[3].K",
                 id="repeat-then-K-depth"),
    pytest.param(lambda o: o["coeffs"].insert(1, dict(o["coeffs"][0], re=50)), "coeffs[1].re",
                 id="repeat-over-bound"),
])
def test_shift_loader_names_bad_field(edit, field):
    obj = _shift_payload()
    edit(obj)
    with pytest.raises(ValueError, match=rf"field {re.escape(field)}( |$)"):
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
    pytest.param(lambda o: o["coeffs"][2].update(eta=True), "coeffs[2].eta", id="true-eta"),
    pytest.param(lambda o: o["coeffs"][2].update(eta=2), "coeffs[2].eta", id="eta-range"),
    pytest.param(lambda o: o["coeffs"][2].update(K=[3, [5]]), "coeffs[2].K", id="finest-level"),
    pytest.param(lambda o: o["coeffs"][2].update(eta=0), "coeffs[2].eta", id="eta-zero"),
    pytest.param(lambda o: (o["coeffs"].insert(1, dict(o["coeffs"][0])),
                            o["coeffs"][3].update(eta=0)), "coeffs[3].eta",
                 id="repeat-then-eta-zero"),
])
def test_paraproduct_loader_names_bad_field(edit, field):
    lat = dl.build_lattice(1, 3)
    h = dl.random_grid_function(lat, seed=5, scalar=True)
    obj = json.loads(mo.paraproduct_to_json(
        mo.ParaproductSpec(lat, 2, 1, mo.make_bmo_coeffs(lat, h))))
    edit(obj)
    with pytest.raises(ValueError, match=rf"field {re.escape(field)}( |$)"):
        mo.paraproduct_from_json(json.dumps(obj))


def _paraproduct_payload():
    lat = dl.build_lattice(1, 3)
    h = dl.random_grid_function(lat, seed=5, scalar=True)
    return json.loads(mo.paraproduct_to_json(
        mo.ParaproductSpec(lat, 2, 1, mo.make_bmo_coeffs(lat, h))))


# (payload, qs, eta key, eta default) of the two loaders at d = 1
_READERS = {"shift": (_shift_payload, 2, "etas", [1, 1]),
            "paraproduct": (_paraproduct_payload, 0, "eta", 1)}


@pytest.mark.parametrize("kind", sorted(_READERS))
@pytest.mark.parametrize("edit", [
    lambda o: o["coeffs"][1]["K"].__setitem__(0, True),         # a true level
    lambda o: o["coeffs"][1]["K"][1].__setitem__(0, 1.0),       # a 1.0 index
    lambda o: o["coeffs"].__setitem__(1, [0, [0]]),             # an entry not a dict
    lambda o: o["coeffs"][1]["K"][1].__setitem__(0, 8),         # an index out of range
    lambda o: o["coeffs"][1]["K"].__setitem__(0, 63),           # a level out of range
    lambda o: o["coeffs"][1].update(im=10 ** 400),              # no float
    lambda o: o["coeffs"][1].pop("re"),                         # a missing key
], ids=["true-level", "float-index", "list-entry", "index-range", "level-range", "huge-int",
        "missing-key"])
def test_column_reader_falls_back_to_the_named_error(kind, edit):
    payload, qs, key, default = _READERS[kind]
    obj = payload()
    assert mo._columns(obj["coeffs"], 1, qs, key, default) is not None
    edit(obj)
    assert mo._columns(obj["coeffs"], 1, qs, key, default) is None
    with pytest.raises(ValueError, match=r"field coeffs\[1\]\.") as per_entry:
        mo._rows(obj["coeffs"], 1, qs, key, default)
    with pytest.raises(ValueError) as loaded:
        mo._table_from_json(obj, 1, qs, key, default)
    assert str(loaded.value) == str(per_entry.value)


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_column_reader_equals_per_entry_reader(kind):
    payload, qs, key, default = _READERS[kind]
    obj = payload()
    obj["coeffs"][0].pop(key)  # the default pattern
    obj["coeffs"][1].update(re=1, im=-0.0)  # an integer and a negative zero
    fast = mo._columns(obj["coeffs"], 1, qs, key, default)
    slow = mo._rows(obj["coeffs"], 1, qs, key, default)
    for a, b in zip(fast, slow):
        assert np.array_equal(np.reshape(a, -1), np.reshape(b, -1))
    assert np.array_equal(np.signbit(fast[3].imag), np.signbit(np.imag(slow[3])))


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
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, seed=d, blocks=3,
                                tuples_per_block=3)
    spec.coeffs.value[:4] = [-0.0, 1e-300, complex(0.0, -0.0), 5e-324]
    header = {"n": 2, "complexity": [1, 0, 1], "cancellative": [1, 3]}
    assert mo.shift_to_json(spec) == _dict_json(spec, header)
    h = dl.random_grid_function(lat, seed=d, scalar=True)
    pp = mo.ParaproductSpec(lat, 1, 2, mo.make_bmo_coeffs(lat, h))
    pp.coeffs.value[0] = float("nan")
    assert mo.paraproduct_to_json(pp) == _dict_json(pp, {"n": 1, "haar_position": 2})
    empty = mo.ParaproductSpec(lat, 1, 1, mo.CoeffTable(np.zeros((0, 1)), np.zeros((0, 1, d)),
                                                        np.zeros((0, 1)), []))
    assert mo.paraproduct_to_json(empty) == _dict_json(empty, {"n": 1, "haar_position": 1})


def test_coeff_table_merges_repeated_keys():
    Q, K = dl.Cube(1, (1,)), dl.Cube(0, (0,))
    rows = ([[1], [0], [1]], [[[1]], [[0]], [[1]]], [[1], [1], [1]], [1.0, 2.0, 3.0])
    last = mo.CoeffTable(*rows)
    assert list(last.items()) == [((Q, 1), 3.0), ((K, 1), 2.0)]
    summed = mo.CoeffTable(*rows, sum_repeats=True)
    assert list(summed.items()) == [((Q, 1), 4.0), ((K, 1), 2.0)]
    # equality is by key and value, whatever the row order
    swapped = mo.CoeffTable([[0], [1]], [[[0]], [[1]]], [[1], [1]], [2.0, 3.0])
    assert len(swapped) == 2 and swapped == last and swapped != summed


def _carleson_brute(pp):
    best = 0.0
    for K0 in pp.lattice.cubes():
        tot = 0.0
        for (K, _eta), a in pp.coeffs.items():
            if K0.contains(K):
                tot += abs(a) ** 2
        best = max(best, (tot / K0.measure()) ** 0.5)
    return best


def _bmo_brute(h):
    lat = h.lattice
    pyr = dl.HaarPyramid(h)
    best = 0.0
    for K0 in lat.cubes():
        tot = 0.0
        for lv in range(K0.level, lat.depth):
            blk = tuple(slice(i << (lv - K0.level), (i + 1) << (lv - K0.level))
                        for i in K0.index)
            tot += float((np.abs(pyr.levels[lv][blk + (slice(1, None),)]) ** 2).sum())
        best = max(best, (tot / K0.measure()) ** 0.5)
    return best


@pytest.mark.parametrize("d, L", [(1, 5), (2, 3)])
def test_carleson_and_bmo_sweeps_match_brute_force(d, L):
    rng = np.random.default_rng(10 * d + L)
    lat = dl.build_lattice(d, L, 3)
    for trial in range(5):
        coeffs = {}
        for Q in lat.cubes():
            for eta in range(1, 1 << d):
                if Q.level < L and rng.uniform() < 0.3:
                    coeffs[(Q, eta)] = complex(*rng.standard_normal(2))
        pp = mo.ParaproductSpec(lat, 1, 1, _table(coeffs, (1, 1)), check=False)
        assert abs(pp.carleson_constant() - _carleson_brute(pp)) < 1e-12
        h = dl.random_grid_function(lat, seed=trial, scalar=True)
        assert abs(mo.bmo_norm(h) - _bmo_brute(h)) < 1e-12


def _mixed_input_norm(f, p):
    # L^p norm of the pointwise dual-Schatten norm
    from dyadlab.ncspaces import conjugate_exponent
    from dyadlab.lattice import lp_norm
    return lp_norm(f, p, conjugate_exponent(p))


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
    assert all(etas[0] in (1, 2, 3) and etas[2] in (1, 2, 3)
               for (_K, _qs, etas), _a in spec.coeffs.items())
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
    h = dl.random_grid_function(lat, seed=44, scalar=True)
    coeffs = mo.make_bmo_coeffs(lat, h)
    assert any(eta in (2, 3) for (_Q, eta), _a in coeffs.items())
    pp = mo.ParaproductSpec(lat, 1, 2, coeffs)
    assert pp.carleson_constant() == pytest.approx(1.0, abs=1e-12)
    fs = [dl.random_grid_function(lat, N=2, seed=96 + i) for i in range(2)]
    total = 0j
    for (K, eta), a in pp.coeffs.items():
        prod = dl.average(fs[0], K) @ dl.pairing(fs[1], dl.haar(lat, (K, eta)))
        total += a * np.trace(prod)
    assert abs(mo.eval_paraproduct_form(pp, fs) - total) < 1e-12


def test_paraproduct_boundedness_harness():
    import math
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(60):
        n = int(rng.integers(1, 4))
        lat = dl.build_lattice(1, int(rng.integers(3, 6)))
        h = dl.random_grid_function(lat, seed=int(rng.integers(2 ** 31)),
                                    scalar=True)
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
