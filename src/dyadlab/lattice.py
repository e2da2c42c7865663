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
import math
from dataclasses import dataclass

import numpy as np

# dim * depth is at most this, so that the heap number of every cube
# (``_heap_number``) fits an int64
MAX_CUBE_BITS = 62
# cubes, or table rows, that a block-wise sweep handles at once
_BLOCK = 1024


class FieldError(ValueError):
    """A value that breaks a rule of the object built from it, named by
    its file field: a header ``field``, or with a ``row`` that field of
    coefficient entry ``row`` (the whole entry for ""); table row r is
    file entry r.  The message is ``field <path> is rejected: <reason>``."""

    def __init__(self, field: str, reason: str, row: int | None = None):
        path = field if row is None else f"coeffs[{row}]" + (f".{field}" if field else "")
        super().__init__(f"field {path} is rejected: {reason}")
        self.field, self.reason, self.row = field, reason, row


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
        _check_size(self.dim, self.depth)
        if len(self.shift_cells) != self.dim:
            raise FieldError("shift", f"must have one component per axis ({self.dim})")
        n = 1 << self.depth
        if any(not (0 <= s < n) for s in self.shift_cells):
            raise FieldError("shift", f"cells must lie in 0..{n - 1}")

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


def _check_size(d: int, L: int) -> None:
    """The rules on the dimension d and depth L of a lattice, checked
    before anything of size 2^L is made."""
    if d < 1:
        raise FieldError("dim", "must be at least 1")
    if L < 1:
        raise FieldError("depth", "must be at least 1")
    if d * L > MAX_CUBE_BITS:
        raise FieldError("depth", f"dimension * depth = {d * L} exceeds {MAX_CUBE_BITS}, "
                         "the bits of a cube's heap number")


def build_lattice(d: int, L: int, seed_or_shift=None) -> Lattice:
    """Build a lattice; the optional argument selects the shift.

    ``None`` gives the standard grid.  A sequence of floats is a shift
    vector (components must be exact multiples of 2^-L).  An integer is
    an RNG seed: each binary digit of the shift is drawn uniformly, the
    finite analogue of a random translated grid.  A broken rule raises
    FieldError naming ``dim``, ``depth`` or ``shift``.
    """
    _check_size(d, L)
    n = 1 << L
    if seed_or_shift is None:
        cells = (0,) * d
    elif isinstance(seed_or_shift, (int, np.integer)):
        rng = np.random.default_rng(int(seed_or_shift))
        digits = rng.integers(0, 2, size=(L, d))
        cells = tuple(int(sum(digits[k, a] << (L - 1 - k) for k in range(L)))
                      for a in range(d))
    else:
        cells = []
        for s in map(float, seed_or_shift):
            if not 0.0 <= s < 1.0:
                raise FieldError("shift", f"{s} does not lie in [0, 1)")
            c = s * n  # exact: a power-of-two scaling
            if c != int(c):
                raise FieldError("shift", f"{s} is not a multiple of 2^-{L}")
            cells.append(int(c))
        cells = tuple(cells)
    return Lattice(d, L, cells)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

class GridFunction:
    """Piecewise-constant function at the finest lattice level.

    ``values`` has shape (2^L,)*d + (N, N) in physical cell coordinates
    (axis a indexes the a-th coordinate, row-major): N x N matrix values,
    a scalar function being N = 1.  An array of exactly the grid shape
    holds scalars and gets two unit axes appended; any other axis raises
    ValueError.  Real float64 values stay real; every other dtype becomes
    complex128.
    """

    def __init__(self, lattice: Lattice, values: np.ndarray):
        values = np.asarray(values)
        if values.dtype != np.float64:
            values = values.astype(np.complex128, copy=False)
        grid_shape = (lattice.cells_per_axis,) * lattice.dim
        if values.shape[:lattice.dim] != grid_shape:
            raise ValueError(f"values grid shape {values.shape} does not match lattice {grid_shape}")
        if values.ndim == lattice.dim:
            values = values[..., None, None]
        vs = values.shape[lattice.dim:]
        if len(vs) != 2 or vs[0] != vs[1]:
            raise ValueError(f"value shape {vs} is not N x N")
        self.lattice = lattice
        self.values = values

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.values.shape[self.lattice.dim:]

    @property
    def N(self) -> int:
        return self.value_shape[-1]

    def aligned(self) -> np.ndarray:
        """Values rolled so cube (l, k) occupies the block of cells
        [k_a 2^(L-l), (k_a+1) 2^(L-l)) per axis."""
        return _roll(self.values, self.lattice, -1)


def _roll(values: np.ndarray, lat: Lattice, sign: int) -> np.ndarray:
    if all(s == 0 for s in lat.shift_cells):
        return values
    return np.roll(values, [sign * s for s in lat.shift_cells], axis=tuple(range(lat.dim)))


def from_aligned(lat: Lattice, aligned: np.ndarray) -> GridFunction:
    return GridFunction(lat, _roll(np.asarray(aligned), lat, +1))


def _cell_block(lat: Lattice, level: int, index):
    """Slices of the aligned array covered by the cube (level, index)."""
    w = 1 << (lat.depth - level)
    return tuple(slice(i * w, (i + 1) * w) for i in index)


def grid_axes(lat: Lattice) -> tuple[int, ...]:
    return tuple(range(lat.dim))


def integral(f: GridFunction):
    """Integral over [0,1)^d; exact for piecewise-constant data."""
    lat = f.lattice
    return f.values.sum(axis=grid_axes(lat)) * lat.cell_volume


def pairing(f: GridFunction, g: GridFunction):
    """Bilinear pairing <f, g> = integral of f*g (no conjugation).

    ``g`` is a scalar weight (N = 1), multiplied in by broadcasting; the
    result is N x N.
    """
    if g.value_shape != (1, 1):
        raise ValueError(f"pairing takes a scalar (N = 1) weight, not value shape "
                         f"{g.value_shape}")
    lat = f.lattice
    if g.lattice != lat:
        raise ValueError("grid functions live on different lattices")
    return (f.values * g.values).sum(axis=grid_axes(lat)) * lat.cell_volume


def random_grid_function(lat: Lattice, N: int = 1, seed: int = 0,
                         scalar: bool = False) -> GridFunction:
    """Complex Gaussian test data with N x N values (1 x 1 at N = 1);
    ``scalar`` means N = 1."""
    rng = np.random.default_rng(seed)
    shape = (lat.cells_per_axis,) * lat.dim + ((1, 1) if scalar else (N, N))
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridFunction(lat, vals)


# ---------------------------------------------------------------------------
# Haar system
# ---------------------------------------------------------------------------

def _haar_signs(d: int) -> np.ndarray:
    """The sign of each Haar function on each child of its cube.

    Entry [eta, e] is prod_a (-1)^(eta_a e_a), one factor per axis as
    ``_haar_butterfly`` applies it: eta_a is bit a of the eta mask, and
    the 2^d children e are in C order (axis a of e is bit d - 1 - a)."""
    bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
    return (-1.0) ** (bits @ bits[:, ::-1].T)


def _haar_butterfly(x: np.ndarray, d: int) -> np.ndarray:
    """(x0 + x1, x0 - x1) along each axis 2a + 1 of x, of shape (n_0, 2,
    ..., n_(d-1), 2) + value shape: child bit e_a in, mask bit eta_a out,
    entry eta being sum_e ``_haar_signs``[eta, e] x[e].  It is its own
    transpose; applied twice it multiplies by 2^d."""
    for a in range(d):
        at, out = (slice(None),) * (2 * a + 1), np.empty(x.shape, x.dtype)
        np.add(x[at + (0,)], x[at + (1,)], out=out[at + (0,)])
        np.subtract(x[at + (0,)], x[at + (1,)], out=out[at + (1,)])
        x = out
    return x


def _eta_interleaved(a: np.ndarray, d: int) -> np.ndarray:
    """A view of (cube, eta mask) slots, shape (n,)*d + (2^d,) + value
    shape, in the layout of ``_haar_butterfly``: mask bit a (axis
    2d - 1 - a once the mask is split) moves next to cube axis a."""
    v = a.reshape(a.shape[:d] + (2,) * d + a.shape[d + 1:])
    return np.moveaxis(v, range(2 * d - 1, d - 1, -1), range(1, 2 * d, 2))


def haar(lat: Lattice, level: int, index, eta: int) -> GridFunction:
    """The Haar function h_Q^eta of the cube Q = (level, index) as a real
    grid function (L^2 norm 1).

    eta is a bitmask in 0..2^d - 1, bit a the sign pattern of axis a:
    eta = 0 gives the non-cancellative h_Q^0 = |Q|^(-1/2) 1_Q, any other
    eta a mean-zero tensor Haar function.  Sign convention per axis: +1
    on the left half, -1 on the right half, in lattice coordinates (the
    table ``_haar_signs``).  Cancellative indices need children at grid
    resolution, so level < L is required when eta != 0.
    """
    if (len(index) != lat.dim or not 0 <= level <= lat.depth
            or any(not 0 <= i < 1 << level for i in index)):
        raise ValueError("cube does not belong to the lattice")
    if not 0 <= eta < 1 << lat.dim:
        raise ValueError(f"eta mask must lie in 0..{(1 << lat.dim) - 1}")
    if eta and level >= lat.depth:
        raise ValueError("cancellative Haar needs level < depth")
    aligned = np.zeros((lat.cells_per_axis,) * lat.dim)
    aligned[_cell_block(lat, level, index)] = _haar_patch(lat, level, eta)
    return from_aligned(lat, aligned)


def haar_level(lat: Lattice, level: int) -> np.ndarray:
    """Every cancellative Haar function of one level, built in one pass.

    The float64 result has shape grid + (2^(level d), 2^d - 1) in
    physical cell coordinates: entry [x][q, eta - 1] is h_Q^eta(x) for
    the q-th cube Q of the level in heap order and the eta mask
    1..2^d - 1, the same values as ``haar``.  Needs level < L.
    """
    d, L = lat.dim, lat.depth
    if not 0 <= level < L:
        raise ValueError("cancellative Haar needs level < depth")
    n, m, w = 1 << L, 1 << level, 1 << (L - level)
    patches = np.stack([_haar_patch(lat, level, e) for e in range(1, 1 << d)], -1)
    # cell x sits at (x - shift) mod 2^L in lattice order: cube y // w, place y % w in it
    y = (np.indices((n,) * d) - np.reshape(lat.shift_cells, (d,) + (1,) * d)) % n
    out = np.zeros((n ** d, m ** d, (1 << d) - 1))
    out[np.arange(n ** d), np.ravel_multi_index(tuple(y // w), (m,) * d).ravel()] = \
        patches[tuple(y % w)].reshape(n ** d, -1)
    return out.reshape((n,) * d + out.shape[1:])


def _haar_patch(lat: Lattice, level: int, eta: int) -> np.ndarray:
    """h_Q^eta on the cells of a level-``level`` cube Q, in lattice order."""
    d, w = lat.dim, 1 << (lat.depth - level)
    scale = (2.0 ** (-level * d)) ** (-0.5)
    if eta == 0:
        return np.full((w,) * d, scale)
    return _expand(_haar_signs(d)[eta].reshape((2,) * d), w // 2, d) * scale


# ---------------------------------------------------------------------------
# averages and martingale projections
# ---------------------------------------------------------------------------

def average(f: GridFunction, level: int, index):
    """<f>_Q: mean of f over the cube Q = (level, index), of f's value
    shape.  An oracle: the brute-force paraproduct form of
    ``test_paraproduct_oracle`` takes its averages from it."""
    lat = f.lattice
    return f.aligned()[_cell_block(lat, level, index)].mean(axis=grid_axes(lat))


def expect(f: GridFunction, level: int, index, k: int = 0) -> GridFunction:
    """E_Q^k f for the cube Q = (level, index): sum of E_R f = <f>_R 1_R
    over the descendants R of Q with R^(k) = Q; k = 0 gives
    E_Q f = <f>_Q 1_Q."""
    lat = f.lattice
    if k < 0 or level + k > lat.depth:
        raise ValueError("descendant level exceeds lattice depth")
    out = np.zeros_like(f.values)
    w = 1 << (lat.depth - level - k)
    blk = _cell_block(lat, level, index)
    # block means at the descendant level, broadcast back onto cells
    out[blk] = _expand(_block_means(f.aligned()[blk], w, lat.dim), w, lat.dim)
    return from_aligned(lat, out)


def martingale_diff(f: GridFunction, level: int, index, k: int = 0) -> GridFunction:
    """Delta_Q^k f = E_Q^(k+1) f - E_Q^k f for the cube Q = (level,
    index): sum of Delta_R f over the descendants R of Q with R^(k) = Q;
    mean zero on Q.  Needs level + k < L (``expect`` raises otherwise)."""
    return GridFunction(f.lattice, expect(f, level, index, k + 1).values
                        - expect(f, level, index, k).values)


def level_blocks(lat: Lattice, a: np.ndarray, level: int,
                 k: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """(E^k, Delta^k): E_Q^k f and Delta_Q^k f for every cube Q of a level.

    ``a`` holds aligned values (``GridFunction.aligned``) on ``lat``: of
    one function, or of a stack of functions on the axes between the
    grid and N x N.  Each result is one array of a's shape in aligned
    coordinates.  The cubes of a level tile the grid: the block of cells
    covered by Q (``_cell_block``) holds E_Q^k f, resp. Delta_Q^k f,
    there, and both vanish off Q.  They are expanded from the block
    means of a at level + k and level + k + 1, and ``from_aligned``
    takes a sum of them back to a grid function in one roll.  Delta^k is
    None at level + k = L.
    """
    d, L = lat.dim, lat.depth
    if level < 0 or k < 0 or level + k > L:
        raise ValueError("descendant level exceeds lattice depth")
    w = 1 << (L - level - k)
    coarse = _expand(_block_means(a, w, d), w, d)
    if w == 1:
        return coarse, None
    return coarse, _expand(_block_means(a, w // 2, d), w // 2, d) - coarse


def cell_cubes(lat: Lattice, level: int) -> np.ndarray:
    """The cube of each aligned cell at one level, as its position among
    the level's cubes in heap order: an integer array of the grid's shape."""
    m = 1 << level
    return _expand(np.arange(m ** lat.dim).reshape((m,) * lat.dim), 1 << (lat.depth - level),
                   lat.dim)


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


def _child_sums(a: np.ndarray, d: int) -> np.ndarray:
    """Sum over the 2^d children of each cube of one level: a has shape
    (2m,)*d + rest and the result (m,)*d + rest.  Adds the even and odd
    slices, one axis at a time."""
    for ax in range(d):
        lead = (slice(None),) * ax
        a = a[lead + (slice(0, None, 2),)] + a[lead + (slice(1, None, 2),)]
    return a


def _expand(a: np.ndarray, w: int, d: int) -> np.ndarray:
    for ax in range(d):
        a = np.repeat(a, w, axis=ax)
    return a


# ---------------------------------------------------------------------------
# fast pairing pyramid
# ---------------------------------------------------------------------------

def _heap_size(depth: int, d: int) -> int:
    """Number of cubes of all levels 0..depth."""
    return ((1 << ((depth + 1) * d)) - 1) // ((1 << d) - 1)


def _heap_number(level: np.ndarray, index: np.ndarray, d: int) -> np.ndarray:
    """Position of each cube in heap order (``_heap_cubes``)."""
    out = ((1 << (level * d)) - 1) // ((1 << d) - 1)
    for a in range(d):
        out = out + (index[..., a] << (level * (d - 1 - a)))
    return out


def _heap_cubes(depth: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels, shape (#cubes,), and indices, shape (#cubes, d), of the
    cubes of levels 0..depth in heap order, the one cube order: level by
    level, and within a level the indices in ``np.ndindex`` order."""
    level = np.repeat(np.arange(depth + 1), 1 << (d * np.arange(depth + 1)))
    index = np.concatenate([np.indices((1 << lv,) * d).reshape(d, -1).T for lv in range(depth + 1)])
    return level, index


def _level_views(flat: np.ndarray, depth: int, d: int) -> list[np.ndarray]:
    """Views of an array indexed by heap number, one per level, each of
    shape (2^l,)*d + flat.shape[1:]."""
    return [flat[_heap_size(lv - 1, d):_heap_size(lv, d)].reshape((1 << lv,) * d + flat.shape[1:])
            for lv in range(depth + 1)]


class HaarPyramid:
    """All pairings <f, h_Q^eta> from a single bottom-up sweep.

    Only pairings that exist are stored: cancellative Haar functions
    need level < depth, so the finest level keeps eta 0 alone.  ``flat``
    is one read-only buffer of shape (#pairings,) + value_shape: the
    cubes of levels 0..L-1 in heap order (``_heap_cubes``), 2^d eta
    slots each, then the finest cubes in heap order, one slot each.  A
    pyramid can therefore serve several form evaluations.  Read it
    through ``pairings`` (arrays of heap numbers and eta masks); where a
    pairing sits is known to ``_pairing_slots`` alone.

    The sweep takes the children of about ``_BLOCK`` cubes at a time
    through ``_haar_butterfly`` into ``flat``.  Beyond ``flat`` (and the
    aligned copy of f on a shifted lattice) it holds the child sums of
    one level (eta = 0), a quarter of f's size at d = 2, and two blocks.
    """

    def __init__(self, f: GridFunction):
        lat = f.lattice
        d, L = lat.dim, lat.depth
        vs = f.value_shape
        self.lattice = lat
        self.value_shape = vs
        self.flat, levels, fine = _pyramid_buffer(lat, vs)
        cur = f.aligned()
        for l in range(L - 1, -1, -1):
            below, cur = cur, np.empty((1 << l,) * d + vs, dtype=cur.dtype)
            # a block of slices along the first axis, about _BLOCK cubes
            step = max(1, _BLOCK >> (l * (d - 1)))
            for a in range(0, 1 << l, step):
                block, children = slice(a, a + step), slice(2 * a, 2 * (a + step))
                r = below[children]
                if l == L - 1:  # the cells: the integral of f over each, and h^0 pairings
                    r = r * lat.cell_volume
                    np.multiply(r, 2.0 ** (L * d / 2.0), out=fine[children])
                r = _haar_butterfly(r.reshape((len(r) // 2, 2) + (1 << l, 2) * (d - 1) + vs), d)
                np.multiply(r, 2.0 ** (l * d / 2.0), out=_eta_interleaved(levels[l][block], d))
                cur[block] = r[(slice(None), 0) * d]
        self.flat.setflags(write=False)

    def pairings(self, heap, eta) -> np.ndarray:
        """<f, h_Q^eta> for arrays of heap numbers of Q (``_heap_number``)
        and eta masks, broadcast together; the result has their shape
        followed by the value shape."""
        return self.flat[_pairing_slots(self.lattice, heap, eta)]


def _pyramid_buffer(lat: Lattice, vs: tuple) -> tuple[np.ndarray, list, np.ndarray]:
    """A zero ``HaarPyramid.flat`` of value shape vs, its ``_level_views``
    of levels 0..L-1 (2^d eta slots per cube) and its view of the cells."""
    d, L = lat.dim, lat.depth
    coarse = _heap_size(L - 1, d)  # cubes of levels 0..L-1
    top = coarse << d  # where the finest level starts
    flat = np.zeros((top + lat.num_cells,) + vs, dtype=np.complex128)
    levels = _level_views(flat[:top].reshape((coarse, 1 << d) + vs), L - 1, d)
    return flat, levels, flat[top:].reshape((lat.cells_per_axis,) * d + vs)


def _pairing_slots(lat: Lattice, heap, eta) -> np.ndarray:
    """Where <f, h_Q^eta> sits in ``HaarPyramid.flat``, for heap numbers
    and eta masks broadcast together: heap * 2^d + eta on levels 0..L-1,
    heap + #(cubes of levels 0..L-1) * (2^d - 1) on level L.  ValueError
    for an eta outside [0, 2^d), or one not 0 on the finest level."""
    heap, eta = np.asarray(heap), np.asarray(eta)
    m = 1 << lat.dim
    coarse = _heap_size(lat.depth - 1, lat.dim)
    fine = heap >= coarse
    # one test for both conditions (a negative mask wraps to a huge one)
    if (eta.astype(np.uint64) >= np.where(fine, 1, m)).any():
        if ((eta < 0) | (eta >= m)).any():
            raise ValueError(f"eta mask must lie in 0..{m - 1}")
        raise ValueError("cancellative Haar needs level < depth")
    return heap * m + eta - fine * (heap - coarse) * (m - 1)


def _synthesize(lat: Lattice, heap, eta, coef: np.ndarray) -> np.ndarray:
    """Aligned values of sum_r coef_r h_{Q_r}^{eta_r}, the inverse of the
    pyramid: summed in the pyramid's layout, each level goes to its
    children by ``_haar_butterfly``, on top of the coarser levels."""
    d, L = lat.dim, lat.depth
    vs = coef.shape[1:]
    buf, levels, fine = _pyramid_buffer(lat, vs)
    np.add.at(buf, _pairing_slots(lat, heap, eta), coef)
    out = np.zeros((1,) * d + vs, dtype=np.complex128)
    for l in range(L):
        kids = _haar_butterfly(_eta_interleaved(levels[l], d), d) * 2.0 ** (l * d / 2.0)
        out = (kids + out[(slice(None), None) * d]).reshape((2 << l,) * d + vs)
    return out + fine * 2.0 ** (L * d / 2.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def grid_function_to_json(f: GridFunction) -> str:
    """Serialize a function of N x N values, ``kind`` "matrix"."""
    lat = f.lattice
    flat = f.values.reshape(-1)
    payload = {
        **_lattice_header(lat),
        "kind": "matrix",
        "N": f.N,
        "values": [[float(v.real), float(v.imag)] for v in flat],
    }
    return json.dumps(payload, sort_keys=True)


def grid_function_from_json(text: str) -> GridFunction:
    """Load a grid function; a missing field, a wrong type or shape, a
    lattice rule broken and a non-finite value raise ValueError naming
    the field.  A file of kind "scalar" loads as N = 1."""
    obj = json.loads(text)
    lat = _lattice_from_header(obj)
    kind = _field(obj, "kind")
    if kind not in ("scalar", "matrix"):
        raise ValueError("field kind must be scalar or matrix")
    N = _int(obj, "N") if kind == "matrix" else 1
    shape = (lat.cells_per_axis,) * lat.dim + (N, N)
    count = math.prod(shape)  # Python integers: no overflow for a huge N
    flat = _field(obj, "values")
    if isinstance(flat, list) and all(type(v) is list and len(v) == 2 for v in flat):
        flat = _json_array([x for v in flat for x in v], "values", np.float64)
    if not isinstance(flat, np.ndarray) or flat.size != 2 * count or not np.isfinite(flat).all():
        raise ValueError(f"field values must hold {count} finite [re, im] pairs")
    return GridFunction(lat, flat.view(np.complex128).reshape(shape))


# loader helpers: each failure names the field

class _Malformed(ValueError):
    """A field of a file has the wrong JSON type or shape.  The message
    is ``field <field> <reason>``; a reader that names the file entry too
    reads ``field`` and ``reason``."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"field {field} {reason}")
        self.field, self.reason = field, reason


def _json_array(xs: list, field: str, dtype) -> np.ndarray:
    """xs as an int64 or float64 array; _Malformed if a value is not an
    integer, or for float64 a number (never a bool, a string or null),
    or does not fit."""
    what = "an integer" if dtype is np.int64 else "a number"
    if not set(map(type, xs)) <= ({int} if dtype is np.int64 else {int, float}):
        raise _Malformed(field, f"holds a value that is not {what}")
    try:
        return np.array(xs, dtype=dtype)
    except OverflowError:
        raise _Malformed(field, f"holds a value that does not fit {np.dtype(dtype).name}") from None


def _field(obj, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"field {key} is missing")
    return obj[key]


def _int(obj, key: str) -> int:
    x = _field(obj, key)
    if type(x) is not int or x < 1:
        raise ValueError(f"field {key} must be a positive integer")
    return x


def _ints(x, count: int | None, path: str) -> list[int]:
    """A JSON list of ``count`` integers (of any length for None)."""
    if not isinstance(x, list) or count not in (None, len(x)) or any(type(v) is not int for v in x):
        raise ValueError(f"field {path} must be a list of {count or 'any number of'} integers")
    return x


def _lattice_header(lat: Lattice) -> dict:
    """The fields that name a file's lattice: ``dim``, ``depth`` and ``shift``."""
    return {"dim": lat.dim, "depth": lat.depth, "shift": list(lat.shift)}


def _lattice_from_header(obj) -> Lattice:
    """The lattice a file's ``_lattice_header`` fields name, checked in
    the order dim, depth, shift; the shift is a JSON list of numbers (not
    bools) of finite float value, and ``build_lattice`` checks the rest."""
    dim, depth, x = _int(obj, "dim"), _int(obj, "depth"), _field(obj, "shift")
    try:
        finite = isinstance(x, list) and all(type(s) in (int, float) and math.isfinite(s)
                                             for s in x)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError("field shift must be a list of finite numbers")
    return build_lattice(dim, depth, x)
