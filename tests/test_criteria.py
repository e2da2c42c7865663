"""The hard checks still fail when their inputs are wrong or empty.

Each check of ``criteria`` built on ``lattice.level_blocks`` is run with
a helper whose output is off by 1e-6 on the block of one cube, and the
Haar check with one Haar function given an imaginary part or a small
share of another Haar function, of its own level or of another.  The
checks over lists of cases are run with no case, the shift checks with
no coefficient, and the decoupling anchor with a zero standard error.
"""

import tracemalloc

import numpy as np
import pytest

import dyadlab as dl
from dyadlab import criteria as cr
from dyadlab import lattice as lt
from dyadlab import leibniz as lb
from dyadlab import modelops as mo
from dyadlab import randomized as rz

OFF = 1e-6


def _lattices():
    return [dl.build_lattice(1, 4), dl.build_lattice(2, 3, (0.25, 0.5))]


def _off_on_one_block(monkeypatch, cube, which):
    """Make level_blocks return E^k (which=0) or Delta^k (which=1) off
    by OFF on the block of ``cube`` = (level, index), for every k at the
    cube's level."""
    real = lt.level_blocks

    def mutated(lat, a, level, k=0):
        out = list(real(lat, a, level, k))
        if level == cube[0] and out[which] is not None:
            out[which] = out[which].copy()
            out[which][lt._cell_block(lat, *cube)] += OFF
        return tuple(out)

    monkeypatch.setattr(lt, "level_blocks", mutated)


def _cube(lat):
    return 1, (1,) * lat.dim


@pytest.mark.parametrize("lat", _lattices(), ids=["d1", "d2-shifted"])
@pytest.mark.parametrize("check, which", [
    ("martingale_telescoping", 1),
    ("projection_algebra", 0),
    ("projection_algebra", 1),
    ("average_expansion", 0),
    ("average_expansion", 1),
])
def test_identity_checks_fail_on_one_wrong_block(monkeypatch, lat, check, which):
    f = dl.random_grid_function(lat, N=2, seed=3, scalar=check == "projection_algebra")
    assert getattr(cr, check)(f)["pass"]
    _off_on_one_block(monkeypatch, _cube(lat), which)
    rec = getattr(cr, check)(f)
    assert rec["pass"] is False
    assert rec["max_error"] >= OFF / 2


@pytest.mark.parametrize("lat", _lattices(), ids=["d1", "d2-shifted"])
def test_projection_algebra_fails_on_a_skipped_cube(monkeypatch, lat):
    # numbered 1..#cubes, the last cube of each level is in no stack; each
    # stacked Delta_Q f still satisfies the algebra by itself
    f = dl.random_grid_function(lat, seed=3)
    real = lt.cell_cubes
    monkeypatch.setattr(lt, "cell_cubes", lambda lat, level: real(lat, level) + 1)
    rec = cr.projection_algebra(f)
    assert rec["pass"] is False
    assert rec["max_error"] >= 0.1


@pytest.mark.parametrize("lat", _lattices(), ids=["d1", "d2-shifted"])
def test_haar_orthonormality_fails_on_a_complex_haar_function(monkeypatch, lat):
    assert cr.haar_orthonormality(lat)["pass"]
    real = lt.haar_level

    def complex_one(lat, level):
        out = real(lat, level).astype(complex)
        if level == 1:
            # the real parts, and so the real Gram matrix, are unchanged
            out[(0,) * lat.dim + (1, 0)] += OFF * 1j
        return out

    monkeypatch.setattr(lt, "haar_level", complex_one)
    rec = cr.haar_orthonormality(lat)
    assert rec["max_error"] <= cr.IDENTITY_TOL
    assert rec["pass"] is False


@pytest.mark.parametrize("lat", _lattices(), ids=["d1", "d2-shifted"])
@pytest.mark.parametrize("level, source", [(2, 0), (1, 1)],
                         ids=["across-levels", "within-a-level"])
def test_haar_orthonormality_fails_on_a_real_fault(monkeypatch, lat, level, source):
    real = lt.haar_level

    def faulty(lat, lv):
        out = real(lat, lv)
        if lv == level:
            # the level's first function picks up OFF times the source
            # level's last one, so their Gram entry is OFF
            out[..., 0, 0] += OFF * real(lat, source)[..., -1, -1]
        return out

    monkeypatch.setattr(lt, "haar_level", faulty)
    rec = cr.haar_orthonormality(lat)
    assert rec["pass"] is False
    assert rec["max_error"] >= OFF / 2


def test_haar_orthonormality_memory_follows_one_level():
    # 1,023 Haar functions on 1,024 cells: the whole Gram matrix alone
    # would take 8.4 MB, the functions 8.4 MB
    lat = dl.build_lattice(2, 5, 0)
    tracemalloc.start()
    try:
        rec = cr.haar_orthonormality(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec["pass"] and rec["max_error"] == 0.0
    assert peak <= 20e6


def test_haar_orthonormality_fails_on_a_unit_phase(monkeypatch):
    # e^{i theta} h is orthonormal under the conjugating inner product
    # but is not a real Haar function
    lat = dl.build_lattice(1, 3)
    real = lt.haar_level
    monkeypatch.setattr(lt, "haar_level", lambda lat, level: real(lat, level) * np.exp(0.3j))
    assert cr.haar_orthonormality(lat)["pass"] is False


def _empty_shift():
    # scale 0 draws no coefficient: every form is 0 and every term normalized
    lat = dl.build_lattice(1, 4)
    spec = mo.make_random_shift(lat, 2, (1, 0, 1), {1, 3}, 0, scale=0.0)
    assert len(spec.coeffs) == 0
    return spec, [dl.random_grid_function(lat, N=2, seed=i) for i in range(3)]


def _zero_anchor():
    # f = 0: both sides vanish, so the ratio is 1 with a zero standard error
    lat = dl.build_lattice(1, 4)
    rec = cr.decoupling_anchor(dl.GridFunction(lat, np.zeros(16)), 0, 1, 1,
                               rz.DecouplingSampler(seed=3),
                               rz.SignEnsemble(0, samples=100, seed=9))
    assert rec["ratio"] == 1.0 and rec["stderr"] == 0.0
    return rec


@pytest.mark.parametrize("no_evidence", [
    lambda: cr.contraction([])[0],
    lambda: cr.product_bound([])[0],
    lambda: cr.factorization_roundtrips([], [])[0],
    lambda: cr.factorization_roundtrips([], [])[1],
    lambda: cr.paraproduct_reconstruction([]),
    # on a one-point grid D^s(fg) = 0, so no pair is evidence
    lambda: cr.paraproduct_reconstruction([cr.reconstruction_defect(
        *(lb.random_torus_function(1, 1, 1, N=2, seed=s) for s in (1, 2)), 1.5)]),
    _zero_anchor,
    lambda: cr.shift_form_oracle(*_empty_shift(), 100),
    lambda: cr.shift_rewrite(*_empty_shift())[0],
    lambda: cr.shift_rewrite(*_empty_shift())[1],
], ids=["contraction", "product-bound", "positive-factorization", "mixed-factorization",
        "paraproduct-reconstruction", "paraproduct-reconstruction-zero-derivative",
        "decoupling-anchor", "shift-form-oracle",
        "shift-rewrite-form-preservation", "shift-rewrite-normalization"])
def test_hard_checks_fail_without_evidence(no_evidence):
    rec = no_evidence()
    assert rec["kind"] == cr.HARD and rec["pass"] is False
