"""Finite dyadic lattices on the periodic unit cube.

A lattice of dimension d and depth L consists of the half-open cubes

    Q = [k_1 2^-l, (k_1+1) 2^-l) x ... x [k_d 2^-l, (k_d+1) 2^-l) + shift,

for levels l = 0..L, translated cyclically (mod 1 per axis) by a shift
vector whose components are exact multiples of 2^-L.  Level l holds
2^(l d) cubes and every cube above the finest level has exactly 2^d
children, so the lattice is a plain 2^d-ary tree; the shift only moves
its embedding into [0,1)^d.

Functions live on the finest cells (piecewise constant at level L), so
averages, Haar pairings and martingale projections are finite sums and
every identity below can be checked to rounding error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

SHIFT_QUANTIZATION_TOL = 1e-9


# ---------------------------------------------------------------------------
# lattice and cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """Truncated dyadic grid on [0,1)^d with a cyclic shift.

    ``shift_cells`` stores the shift in units of the finest cell size
    2^-L, one integer in [0, 2^L) per axis.
    """

    dim: int
    depth: int
    shift_cells: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if len(self.shift_cells) != self.dim:
            raise ValueError("shift has wrong number of components")
        n = 1 << self.depth
        if any(not (0 <= s < n) for s in self.shift_cells):
            raise ValueError("shift out of range")

    @property
    def shift(self) -> tuple[float, ...]:
        return tuple(s / (1 << self.depth) for s in self.shift_cells)

    @property
    def cells_per_axis(self) -> int:
        return 1 << self.depth

    @property
    def num_cells(self) -> int:
        return 1 << (self.depth * self.dim)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.depth * self.dim)

    def top(self) -> "Cube":
        return Cube(0, (0,) * self.dim)

    def cubes(self, level: int | None = None) -> Iterator["Cube"]:
        """All cubes of the lattice, or all cubes of one level."""
        levels = range(self.depth + 1) if level is None else [level]
        for lv in levels:
            for idx in np.ndindex(*(1 << lv,) * self.dim):
                yield Cube(lv, tuple(int(i) for i in idx))


@dataclass(frozen=True)
class Cube:
    """A cube in lattice coordinates: level and per-axis index."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("negative level")
        if any(not (0 <= i < (1 << self.level)) for i in self.index):
            raise ValueError("cube index out of range")

    @property
    def dim(self) -> int:
        return len(self.index)

    def measure(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    def children(self) -> list["Cube"]:
        out = []
        for e in np.ndindex(*(2,) * self.dim):
            out.append(Cube(self.level + 1,
                            tuple(2 * i + int(b) for i, b in zip(self.index, e))))
        return out

    def ancestor(self, k: int) -> "Cube":
        """Q^(k): the ancestor k levels up (k=0 is Q itself)."""
        if k < 0 or k > self.level:
            raise ValueError("ancestor level out of range")
        return Cube(self.level - k, tuple(i >> k for i in self.index))

    def contains(self, other: "Cube") -> bool:
        if other.level < self.level:
            return False
        return other.ancestor(other.level - self.level) == self


def build_lattice(d: int, L: int, seed_or_shift=None) -> Lattice:
    """Build a lattice; the optional argument selects the shift.

    ``None`` gives the standard grid.  A sequence of floats is a shift
    vector (components must be exact multiples of 2^-L).  An integer is
    an RNG seed: each binary digit of the shift is drawn uniformly, the
    finite analogue of a random translated grid.
    """
    if d < 1 or L < 1:
        raise ValueError("need d >= 1 and L >= 1")
    n = 1 << L
    if seed_or_shift is None:
        cells = (0,) * d
    elif isinstance(seed_or_shift, (int, np.integer)):
        rng = np.random.default_rng(int(seed_or_shift))
        digits = rng.integers(0, 2, size=(L, d))
        cells = tuple(int(sum(digits[k, a] << (L - 1 - k) for k in range(L)))
                      for a in range(d))
    else:
        shift = tuple(float(s) for s in seed_or_shift)
        if len(shift) != d:
            raise ValueError("shift has wrong number of components")
        cells = []
        for s in shift:
            if not 0.0 <= s < 1.0:
                raise ValueError("shift components must lie in [0,1)")
            c = s * n
            if abs(c - round(c)) > SHIFT_QUANTIZATION_TOL * n:
                raise ValueError(f"shift {s} is not a multiple of 2^-{L}")
            cells.append(int(round(c)) % n)
        cells = tuple(cells)
    return Lattice(d, L, cells)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

class GridFunction:
    """Piecewise-constant function at the finest lattice level.

    ``values`` has shape (2^L,)*d + value_shape in physical cell
    coordinates (axis a indexes the a-th coordinate, row-major).  The
    value shape is () for scalars, (N, N) for matrix values and any
    longer tuple ending in (N, N) for nested (mixed-norm) values.
    """

    def __init__(self, lattice: Lattice, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        grid_shape = (lattice.cells_per_axis,) * lattice.dim
        if values.shape[:lattice.dim] != grid_shape:
            raise ValueError(f"values grid shape {values.shape} does not match lattice {grid_shape}")
        self.lattice = lattice
        self.values = values

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.values.shape[self.lattice.dim:]

    @property
    def kind(self) -> str:
        vs = self.value_shape
        if vs == ():
            return "scalar"
        if len(vs) == 2 and vs[0] == vs[1]:
            return "matrix"
        return "nested"

    @property
    def N(self) -> int:
        vs = self.value_shape
        return 1 if vs == () else vs[-1]

    # -- arithmetic (pointwise) ------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        return GridFunction(self.lattice, self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return GridFunction(self.lattice, self.values - other.values)

    def __mul__(self, c):
        return GridFunction(self.lattice, self.values * c)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.lattice, -self.values)

    def _check_compatible(self, other):
        if not isinstance(other, GridFunction):
            raise TypeError("expected a GridFunction")
        if other.lattice != self.lattice or other.value_shape != self.value_shape:
            raise ValueError("incompatible grid functions")

    def copy(self) -> "GridFunction":
        return GridFunction(self.lattice, self.values.copy())

    def aligned(self) -> np.ndarray:
        """Values rolled so cube (l, k) occupies the block of cells
        [k_a 2^(L-l), (k_a+1) 2^(L-l)) per axis."""
        return _roll(self.values, self.lattice, -1)


def _roll(values: np.ndarray, lat: Lattice, sign: int) -> np.ndarray:
    if all(s == 0 for s in lat.shift_cells):
        return values
    return np.roll(values, [sign * s for s in lat.shift_cells], axis=tuple(range(lat.dim)))


def from_aligned(lat: Lattice, aligned: np.ndarray) -> GridFunction:
    return GridFunction(lat, _roll(np.asarray(aligned, dtype=np.complex128), lat, +1))


def _cell_block(lat: Lattice, Q: Cube):
    """Slices of the aligned array covered by Q."""
    w = 1 << (lat.depth - Q.level)
    return tuple(slice(i * w, (i + 1) * w) for i in Q.index)


def grid_axes(lat: Lattice) -> tuple[int, ...]:
    return tuple(range(lat.dim))


def integral(f: GridFunction):
    """Integral over [0,1)^d; exact for piecewise-constant data."""
    lat = f.lattice
    return f.values.sum(axis=grid_axes(lat)) * lat.cell_volume


def pairing(f: GridFunction, g: GridFunction):
    """Bilinear pairing <f, g> = integral of f*g (no conjugation).

    ``g`` must be scalar-valued; the result has f's value kind.
    """
    if g.value_shape != ():
        raise ValueError("pairing weight must be scalar-valued")
    lat = f.lattice
    if g.lattice != lat:
        raise ValueError("grid functions live on different lattices")
    gv = g.values.reshape(g.values.shape + (1,) * len(f.value_shape))
    return (f.values * gv).sum(axis=grid_axes(lat)) * lat.cell_volume


def l2_inner(f: GridFunction, g: GridFunction) -> complex:
    """L^2 inner product of scalar functions, conjugating the second slot."""
    if f.value_shape != () or g.value_shape != ():
        raise ValueError("l2_inner is for scalar functions")
    return complex((f.values * np.conj(g.values)).sum() * f.lattice.cell_volume)


def random_grid_function(lat: Lattice, N: int = 1, seed: int = 0,
                         scalar: bool = False) -> GridFunction:
    """Complex Gaussian test data; scalar if requested or N == 1 and scalar."""
    rng = np.random.default_rng(seed)
    shape = (lat.cells_per_axis,) * lat.dim
    if not scalar:
        shape = shape + (N, N)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridFunction(lat, vals)


# ---------------------------------------------------------------------------
# Haar system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HaarIndex:
    """Cube plus sign-pattern vector eta in {0,1}^d.

    eta = 0 indexes the non-cancellative h_Q^0 = |Q|^(-1/2) 1_Q; any
    other eta gives a mean-zero tensor Haar function.
    """

    cube: Cube
    eta: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (0, 1) for e in self.eta):
            raise ValueError("eta components must be 0 or 1")
        if len(self.eta) != self.cube.dim:
            raise ValueError("eta dimension mismatch")

    @property
    def cancellative(self) -> bool:
        return any(self.eta)


def eta_to_mask(eta) -> int:
    """Pack an eta vector (or pass through an int mask) into a bitmask."""
    if isinstance(eta, (int, np.integer)):
        return int(eta)
    return sum(int(b) << a for a, b in enumerate(eta))


def mask_to_eta(mask: int, d: int) -> tuple[int, ...]:
    return tuple((mask >> a) & 1 for a in range(d))


def haar(lat: Lattice, h: HaarIndex | tuple) -> GridFunction:
    """The Haar function h_Q^eta as a grid function (L^2 norm 1).

    Sign convention per axis: +1 on the left half, -1 on the right
    half, in lattice coordinates.  Cancellative indices need children
    at grid resolution, so level(Q) < L is required when eta != 0.
    """
    if not isinstance(h, HaarIndex):
        Q, eta = h
        h = HaarIndex(Q, mask_to_eta(eta_to_mask(eta), Q.dim))
    Q, eta = h.cube, h.eta
    if Q.dim != lat.dim or Q.level > lat.depth:
        raise ValueError("cube does not belong to the lattice")
    if h.cancellative and Q.level >= lat.depth:
        raise ValueError("cancellative Haar needs level < depth")
    aligned = np.zeros((lat.cells_per_axis,) * lat.dim, dtype=np.complex128)
    block = _cell_block(lat, Q)
    w = 1 << (lat.depth - Q.level)
    val = Q.measure() ** (-0.5)
    patch = np.full((w,) * lat.dim, val, dtype=np.complex128)
    for a, e in enumerate(eta):
        if e:
            sign = np.ones(w)
            sign[w // 2:] = -1.0
            patch = patch * sign.reshape((1,) * a + (w,) + (1,) * (lat.dim - a - 1))
    aligned[block] = patch
    return from_aligned(lat, aligned)


# ---------------------------------------------------------------------------
# averages and martingale projections
# ---------------------------------------------------------------------------

def average(f: GridFunction, Q: Cube):
    """<f>_Q: mean of f over Q (value kind preserved)."""
    lat = f.lattice
    a = f.aligned()[_cell_block(lat, Q)]
    out = a.mean(axis=grid_axes(lat))
    return complex(out) if f.value_shape == () else out


def expect(f: GridFunction, Q: Cube) -> GridFunction:
    """E_Q f = <f>_Q 1_Q."""
    lat = f.lattice
    out = np.zeros_like(f.values)
    blk = _cell_block(lat, Q)
    a = f.aligned()
    out[blk] = a[blk].mean(axis=grid_axes(lat))
    return from_aligned(lat, out)


def martingale_diff(f: GridFunction, Q: Cube) -> GridFunction:
    """Delta_Q f: sum of the children's E minus E_Q; mean zero on Q."""
    lat = f.lattice
    if Q.level >= lat.depth:
        raise ValueError("martingale difference needs level < depth")
    out = np.zeros_like(f.values)
    a = f.aligned()
    blk = _cell_block(lat, Q)
    mean_Q = a[blk].mean(axis=grid_axes(lat))
    for c in Q.children():
        cblk = _cell_block(lat, c)
        out[cblk] = a[cblk].mean(axis=grid_axes(lat)) - mean_Q
    return from_aligned(lat, out)


def expect_k(f: GridFunction, Q: Cube, k: int) -> GridFunction:
    """E_Q^k f: sum of E_R f over descendants R of Q with R^(k) = Q."""
    lat = f.lattice
    if k < 0 or Q.level + k > lat.depth:
        raise ValueError("descendant level exceeds lattice depth")
    out = np.zeros_like(f.values)
    a = f.aligned()
    w = 1 << (lat.depth - Q.level - k)
    blk = _cell_block(lat, Q)
    sub = a[blk]
    # block means at the descendant level, broadcast back onto cells
    means = _block_means(sub, w, lat.dim)
    out[blk] = _expand(means, w, lat.dim)
    return from_aligned(lat, out)


def martingale_diff_k(f: GridFunction, Q: Cube, k: int) -> GridFunction:
    """Delta_Q^k f: sum of Delta_R f over R <= Q with R^(k) = Q."""
    lat = f.lattice
    if k < 0 or Q.level + k > lat.depth - 1:
        raise ValueError("descendant level exceeds lattice depth")
    fine = expect_k(f, Q, k + 1)
    coarse = expect_k(f, Q, k)
    return fine - coarse


def _block_means(a: np.ndarray, w: int, d: int) -> np.ndarray:
    """Mean over contiguous blocks of width w along the first d axes."""
    shape = a.shape
    n = shape[0]
    new = []
    for ax in range(d):
        new += [shape[ax] // w, w]
    new += list(shape[d:])
    r = a.reshape(tuple(new))
    # interleaved axes 1, 3, ..., 2d-1 are the within-block axes
    return r.mean(axis=tuple(2 * ax + 1 for ax in range(d)))


def _expand(a: np.ndarray, w: int, d: int) -> np.ndarray:
    for ax in range(d):
        a = np.repeat(a, w, axis=ax)
    return a


def sublattice(lat: Lattice, j: int, k: int) -> list[Cube]:
    """Cubes whose side length is 2^(m(k+1)+j) for some integer m.

    With side lengths 2^-level this selects the levels congruent to -j
    modulo k+1, intersected with 0..L.
    """
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k")
    out = []
    for lv in range(lat.depth + 1):
        if (-lv) % (k + 1) == j % (k + 1):
            out.extend(lat.cubes(lv))
    return out


# ---------------------------------------------------------------------------
# fast pairing pyramid
# ---------------------------------------------------------------------------

def _heap_size(depth: int, d: int) -> int:
    """Number of cubes of all levels 0..depth."""
    return ((1 << ((depth + 1) * d)) - 1) // ((1 << d) - 1)


def _heap_number(level: np.ndarray, index: np.ndarray, d: int) -> np.ndarray:
    """Position of each cube in the order of ``Lattice.cubes()``."""
    out = ((1 << (level * d)) - 1) // ((1 << d) - 1)
    for a in range(d):
        out = out + (index[..., a] << (level * (d - 1 - a)))
    return out


def _level_views(flat: np.ndarray, depth: int, d: int) -> list[np.ndarray]:
    """Views of an array indexed by heap number, one per level, each of
    shape (2^l,)*d + flat.shape[1:]."""
    return [flat[_heap_size(lv - 1, d):_heap_size(lv, d)].reshape((1 << lv,) * d + flat.shape[1:])
            for lv in range(depth + 1)]


class HaarPyramid:
    """All pairings <f, h_Q^eta> from a single bottom-up sweep.

    ``coef(Q, eta_mask)`` returns the pairing for any cube and any eta
    bitmask (0 = non-cancellative).  ``flat`` holds every pairing in one
    array of shape (#cubes, 2^d) + value_shape indexed by heap number;
    ``levels[l]`` views level l as shape (2^l,)*d + (2^d,) + value_shape.
    """

    def __init__(self, f: GridFunction):
        lat = f.lattice
        d, L = lat.dim, lat.depth
        vs = f.value_shape
        self.lattice = lat
        self.value_shape = vs
        sums = f.aligned() * lat.cell_volume  # integral of f over each cell
        # sign[eta, e] = prod_a (-1)^(eta_a * e_a) with the child tuple e
        # flattened in C order (axis 0 contributes the high bit)
        m = 1 << d
        bits = (np.arange(m)[:, None] >> np.arange(d)) & 1
        signs = (-1.0) ** (bits @ bits[:, ::-1].T)
        self.flat = np.zeros((_heap_size(L, d), m) + vs, dtype=np.complex128)
        self.levels = _level_views(self.flat, L, d)
        self.levels[L][(slice(None),) * d + (0,)] = sums * 2.0 ** (L * d / 2.0)
        cur = sums
        for l in range(L - 1, -1, -1):
            # gather the 2^d child sums of each level-l cube
            r = cur.reshape((1 << l, 2) * d + vs)
            # move the d child axes (1,3,..) to one trailing axis of size 2^d
            child_axes = tuple(2 * ax + 1 for ax in range(d))
            r = np.moveaxis(r, child_axes, tuple(range(d, 2 * d)))
            r = r.reshape((1 << l,) * d + (m,) + vs)
            # contract the child axis against the sign matrix; the new eta
            # axis lands at the end, move it back next to the grid axes
            lvl = np.tensordot(r, signs, axes=([d], [1]))
            np.multiply(np.moveaxis(lvl, -1, d), 2.0 ** (l * d / 2.0), out=self.levels[l])
            cur = r.sum(axis=d)

    def coef(self, Q: Cube, eta_mask: int):
        arr = self.levels[Q.level]
        out = arr[Q.index + (eta_mask,)]
        return complex(out) if self.value_shape == () else out


# ---------------------------------------------------------------------------
# mixed norms
# ---------------------------------------------------------------------------

def lp_norm(f: GridFunction, p: float, cell_norm) -> float:
    """L^p norm over the cube of x -> cell_norm(f(x)).

    ``cell_norm`` maps one cell value to a nonnegative real; it is
    applied to the stacked cell values (vectorized when it supports
    arrays of values, else per cell).
    """
    lat = f.lattice
    flat = f.values.reshape((lat.num_cells,) + f.value_shape)
    try:
        norms = cell_norm(flat)
        norms = np.asarray(norms, dtype=float)
        if norms.shape != (lat.num_cells,):
            raise TypeError
    except TypeError:
        norms = np.array([float(cell_norm(v)) for v in flat])
    if np.isinf(p):
        return float(norms.max(initial=0.0))
    if p <= 0:
        raise ValueError("exponent must be positive")
    return float((np.mean(norms ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def grid_function_to_json(f: GridFunction) -> str:
    lat = f.lattice
    flat = f.values.reshape(-1)
    payload = {
        "dim": lat.dim,
        "depth": lat.depth,
        "shift": list(lat.shift),
        "kind": f.kind,
        "N": f.N,
        "values": [[float(v.real), float(v.imag)] for v in flat],
    }
    if f.kind == "nested":
        payload["shape"] = list(f.value_shape)
    return json.dumps(payload, sort_keys=True)


def grid_function_from_json(text: str) -> GridFunction:
    """Load a grid function; a missing field, a wrong shape and a
    non-finite value raise ValueError naming the field."""
    obj = json.loads(text)
    lat = build_lattice(_int(obj, "dim"), _int(obj, "depth"), _field(obj, "shift"))
    kind = _field(obj, "kind")
    if kind not in ("scalar", "matrix", "nested"):
        raise ValueError("field kind must be scalar, matrix or nested")
    vs = (() if kind == "scalar" else (_int(obj, "N"),) * 2 if kind == "matrix"
          else tuple(_ints(_field(obj, "shape"), None, "shape")))
    shape = (lat.cells_per_axis,) * lat.dim + vs
    try:
        pairs = np.array(_field(obj, "values"), dtype=np.float64)
    except (TypeError, ValueError):
        pairs = np.zeros(0)
    if pairs.shape != (np.prod(shape, dtype=int), 2) or not np.isfinite(pairs).all():
        raise ValueError(f"field values must hold {np.prod(shape, dtype=int)} finite "
                         "[re, im] pairs")
    return GridFunction(lat, pairs.view(np.complex128).reshape(shape))


# loader helpers: each failure names the field at ``path``

def _field(obj, key: str, path: str | None = None):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {path or key}")
    return obj[key]


def _int(obj, key: str) -> int:
    if type(x := _field(obj, key)) is not int:
        raise ValueError(f"field {key} must be an integer")
    return x


def _ints(x, count: int | None, path: str) -> list[int]:
    """A JSON list of ``count`` integers (of any length for None)."""
    if not isinstance(x, list) or count not in (None, len(x)) or any(type(v) is not int for v in x):
        raise ValueError(f"field {path} must be a list of {count or 'any number of'} integers")
    return x


def _finite(obj, key: str, path: str) -> float:
    if type(x := _field(obj, key, path)) not in (int, float) or not np.isfinite(x):
        raise ValueError(f"field {path} must be a finite number")
    return x


def _cube_json(c, d: int, path: str) -> tuple[int, list[int]]:
    """A JSON cube [level, [indices]] as (level, indices)."""
    if not isinstance(c, list) or len(c) != 2 or type(c[0]) is not int:
        raise ValueError(f"field {path} must hold cubes [level, [{d} indices]]")
    return c[0], _ints(c[1], d, path)
