import numpy as np
import pytest

from dyadlab.lattice import _heap_cubes


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_psd(rng, n):
    a = random_matrix(rng, n)
    return a @ a.conj().T


def lattice_cubes(lat, level=None):
    """The cubes (level, index) of a lattice in heap order, or those of one level."""
    lv, ix = _heap_cubes(lat.depth, lat.dim)
    return [(l, tuple(i)) for l, i in zip(lv.tolist(), ix.tolist()) if level in (None, l)]
