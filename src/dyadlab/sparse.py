"""Multilinear maximal operator, sparse collections, stopping times.

A collection S of cubes is eta-sparse when each cube Q owns a subset
E_Q of measure > eta |Q| and the E_Q are pairwise disjoint.  Stopping
times build such collections: starting from the top cube, the children
of Q in the collection are the maximal cubes where some input average
jumps above theta times its Q-average.  The dyadic weak (1,1) bound
with constant one gives total stopping measure <= (n+1)/theta |Q|, so
the construction is (1 - (n+1)/theta)-sparse.

A ``SparseCollection`` is a cube tree: arrays of levels and indices
plus each cube's nearest ancestor in the collection.  E_Q is Q minus
its children in the tree, never stored; ``is_sparse`` checks the tree
and the measures |E_Q| = |Q| - sum of its children's measures.

Every sweep goes one level at a time.  The block-mean pyramid is built
bottom up, each level from the one below it; ``multilinear_maximal``
and ``sparse_form`` read it, and so does the stopping construction, one
top-down sweep that lists its cubes by (level, index), every parent
before its children.  Each call builds its own pyramid: nothing is kept
between calls.

The sparse form sum_Q |Q| prod_j <|f_j|>_Q dominates the model-operator
forms; ``verify_sparse_domination`` measures the constant on a form's
modulus at concrete inputs, which the caller evaluates.

``_stopping_masks``, ``_masks_sparse`` and ``_sparse_form_per_cube``
are the recursive construction with one full-grid witness mask per cube,
the exhaustive mask check and the per-cube form: oracles for small
lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (GridFunction, Lattice, _cell_block, _child_sums, _expand,
                      _heap_number, _heap_size, _level_views, build_lattice, from_aligned)
from .ncspaces import schatten_norms

MEASURE_SLACK = 1e-12


def _pyramid(fs: list[GridFunction]) -> tuple[Lattice, np.ndarray]:
    """The lattice of scalar (N = 1) inputs fs and the block means of
    each |f_j| on every cube, shape (cubes, len(fs)), rows in heap order
    (see ``lattice._level_views``).  Built bottom up: |f_j| at the cells,
    then each coarser level 2^-d times the sum over the children of each
    of its cubes."""
    if not fs:
        raise ValueError("need at least one function")
    lat = fs[0].lattice
    for f in fs:
        if f.lattice != lat or f.value_shape != (1, 1):
            raise ValueError("inputs must be scalar (N = 1) functions on one lattice")
    d, L = lat.dim, lat.depth
    flat = np.empty((_heap_size(L, d), len(fs)))
    levels = _level_views(flat, L, d)
    for j, f in enumerate(fs):
        levels[L][..., j] = np.abs(f.aligned()[..., 0, 0])
    for lv in range(L, 0, -1):
        np.multiply(_child_sums(levels[lv], d), 2.0 ** -d, out=levels[lv - 1])
    return lat, flat


# ---------------------------------------------------------------------------
# maximal operator
# ---------------------------------------------------------------------------

def multilinear_maximal(fs: list[GridFunction]) -> GridFunction:
    """M(f)(x) = sup over lattice cubes containing x of prod_j <|f_j|>_Q,
    exhaustively over all levels 0..L."""
    lat, pyr = _pyramid(fs)
    d, L = lat.dim, lat.depth
    best = np.zeros((1,) * d)  # per cube of the level: the sup over it and its ancestors
    for lv, means in enumerate(_level_views(pyr, L, d)):
        if lv:
            best = _expand(best, 2, d)
        best = np.maximum(best, np.prod(means, axis=-1))
    return from_aligned(lat, best)


# ---------------------------------------------------------------------------
# sparse collections
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SparseCollection:
    """Cubes as a tree: cube i is (level[i], index[i]) and parent[i] is
    the position of its nearest ancestor in the collection, -1 for a
    root.  The witness set E_Q is Q minus its children in the tree."""

    lattice: Lattice
    level: np.ndarray   # (S,)
    index: np.ndarray   # (S, d)
    parent: np.ndarray  # (S,)
    eta: float | None = None

    def __post_init__(self):
        self.level = np.asarray(self.level, dtype=np.int64).reshape(-1)
        self.index = np.asarray(self.index, dtype=np.int64).reshape(-1, self.lattice.dim)
        self.parent = np.asarray(self.parent, dtype=np.int64).reshape(-1)
        if not len(self.level) == len(self.index) == len(self.parent):
            raise ValueError("level, index and parent must list the same cubes")

    def __len__(self):
        return len(self.level)


def _z_order(level: np.ndarray, index: np.ndarray, L: int, d: int) -> np.ndarray:
    """Position of each cube's first finest cell in the depth-first order
    that visits the children of a cube in heap order (axis 0 the most
    significant bit of each level); a cube covers the 2^(d (L - level))
    positions from there."""
    cell = index << (L - level)[:, None]
    z = np.zeros(len(level), dtype=np.int64)
    for b in range(L - 1, -1, -1):
        for a in range(d):
            z = (z << 1) | ((cell[:, a] >> b) & 1)
    return z


def is_sparse(s: SparseCollection, eta: float) -> bool:
    """Sparsity at level eta, by arithmetic on the tree.

    The sets E_Q are pairwise disjoint when every cube lies in the
    lattice and inside its parent and cubes of one parent (the roots
    count as siblings) are pairwise disjoint; then |E_Q| is |Q| minus the
    measure of Q's children, and each must exceed eta |Q|.
    """
    lat = s.lattice
    d, L = lat.dim, lat.depth
    level, index, parent = s.level, s.index, s.parent
    n = len(level)
    if n == 0:
        return True
    if (level.min() < 0 or level.max() > L or index.min() < 0
            or np.any(index >= (1 << level)[:, None])
            or parent.min() < -1 or parent.max() >= n):
        return False
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    gap = level[child] - level[up]
    if np.any(gap <= 0) or np.any((index[child] >> gap[:, None]) != index[up]):
        return False  # not strictly inside its parent
    # dyadic cubes overlap exactly when their z-order ranges do
    start = _z_order(level, index, L, d)
    size = np.left_shift(1, d * (L - level))
    order = np.lexsort((start, parent))
    same = parent[order[1:]] == parent[order[:-1]]
    if np.any(same & (start[order[:-1]] + size[order[:-1]] > start[order[1:]])):
        return False  # two siblings overlap
    cells = size - np.bincount(up, weights=size[child], minlength=n)
    measure = np.ldexp(1.0, -d * level)
    return not np.any(cells * lat.cell_volume <= eta * measure * (1.0 - MEASURE_SLACK))


def build_sparse_stopping(fs: list[GridFunction], theta: float) -> SparseCollection:
    """Stopping-time sparse collection from the top cube.

    Requires theta > n+1 (the number of inputs); the result is
    eta-sparse with eta = 1 - (n+1)/theta.  All-zero input yields the
    top cube alone.

    One sweep down the levels of the block-mean pyramid: every cell of a
    level carries the averages of its nearest collection cube, and a
    cube stops where some average exceeds theta times that cube's.  The
    cubes come out in the order they are found, by (level, index), so
    every parent comes before its children.
    """
    lat, pyr = _pyramid(fs)
    n1 = len(fs)
    if theta <= n1:
        raise ValueError("threshold must exceed the number of functions")
    d, L = lat.dim, lat.depth
    means = _level_views(pyr, L, d)
    owner = means[0].copy()  # per cell: averages of its nearest collection cube
    ident = np.zeros((1,) * d, dtype=np.int64)  # per cell: that cube's number
    level, index, parent = [np.zeros(1, np.int64)], [np.zeros((1, d), np.int64)], [[-1]]
    count = 1
    for lv in range(1, L + 1):
        owner = _expand(owner, 2, d)
        ident = _expand(ident, 2, d)
        stop = np.any(means[lv] > theta * owner, axis=-1)
        k = int(np.count_nonzero(stop))
        if k:
            level.append(np.full(k, lv, dtype=np.int64))
            index.append(np.argwhere(stop))
            parent.append(ident[stop])
            owner[stop] = means[lv][stop]
            ident[stop] = np.arange(count, count + k)
            count += k
    level, index, parent = (np.concatenate(a) for a in (level, index, parent))
    return SparseCollection(lat, level, index, parent, eta=1.0 - n1 / theta)


def sparse_form(s: SparseCollection, fs: list[GridFunction]) -> float:
    """sum_{Q in S} |Q| prod_j <|f_j|>_Q, added one term at a time in the
    order of the collection."""
    lat, pyr = _pyramid(fs)
    if lat != s.lattice:
        raise ValueError("inputs must live on the collection's lattice")
    prod = np.prod(pyr[_heap_number(s.level, s.index, lat.dim)], axis=-1)
    terms = np.ldexp(1.0, -lat.dim * s.level) * prod
    return float(np.add.accumulate(terms)[-1]) if len(terms) else 0.0


# ---------------------------------------------------------------------------
# oracles: the recursive construction with dense witness masks
# ---------------------------------------------------------------------------

def _stopping_masks(fs: list[GridFunction], theta: float) -> tuple[list[tuple], dict]:
    """Oracle of ``build_sparse_stopping``: the recursion over cubes
    (level, index), with E_Q as a boolean mask over the aligned finest
    cells, keyed by the cube.  The cubes are listed by (level, index)."""
    lat, pyr = _pyramid(fs)
    n1 = len(fs)
    if theta <= n1:
        raise ValueError("threshold must exceed the number of functions")
    d, L = lat.dim, lat.depth
    levels = _level_views(pyr, L, d)

    def avg(j, Q):
        return float(levels[Q[0]][Q[1] + (j,)])

    def children(Q):
        level, index = Q
        return [(level + 1, tuple(2 * i + b for i, b in zip(index, e)))
                for e in np.ndindex(*(2,) * d)]

    def stopping_children(Q):
        found = []
        base = [avg(j, Q) for j in range(n1)]

        def scan(c):
            if any(avg(j, c) > theta * base[j] for j in range(n1)):
                found.append(c)
            elif c[0] < L:
                for cc in children(c):
                    scan(cc)

        if Q[0] < L:
            for c in children(Q):
                scan(c)
        return found

    exceptional = {}
    stack = [(0, (0,) * d)]
    while stack:
        Q = stack.pop()
        kids = stopping_children(Q)
        mask = np.zeros((lat.cells_per_axis,) * d, dtype=bool)
        mask[_cell_block(lat, *Q)] = True
        for S in kids:
            mask[_cell_block(lat, *S)] = False
        exceptional[Q] = mask.reshape(-1)
        stack.extend(kids)
    return sorted(exceptional), exceptional


def _masks_sparse(lat: Lattice, cubes, exceptional: dict, eta: float) -> bool:
    """Oracle of ``is_sparse``: each E_Q a mask inside Q of measure >
    eta |Q|, no cell in two masks."""
    occupancy = np.zeros(lat.num_cells, dtype=np.int64)
    for Q in cubes:
        if Q not in exceptional:
            return False
        mask = exceptional[Q]
        inside = np.zeros((lat.cells_per_axis,) * lat.dim, dtype=bool)
        inside[_cell_block(lat, *Q)] = True
        if np.any(mask & ~inside.reshape(-1)):
            return False  # E_Q not contained in Q
        if mask.sum() * lat.cell_volume <= eta * 2.0 ** (-lat.dim * Q[0]) * (1.0 - MEASURE_SLACK):
            return False
        occupancy += mask
    return bool(occupancy.max(initial=0) <= 1)


def _sparse_form_per_cube(cubes, fs: list[GridFunction]) -> float:
    """Oracle of ``sparse_form``: one block mean per cube and input."""
    lat = fs[0].lattice
    mats = [np.abs(f.aligned()[..., 0, 0]) for f in fs]
    total = 0.0
    for level, index in cubes:
        blk = _cell_block(lat, level, index)
        prod = 1.0
        for m in mats:
            prod *= float(m[blk].mean())
        total += 2.0 ** (-lat.dim * level) * prod
    return total


def universal_grids(d: int, L: int) -> list[Lattice]:
    """The 3^d lattices shifted by i/3 per coordinate (i = 0, 1, 2),
    quantized to the nearest multiple of 2^-L."""
    n = 1 << L
    out = []
    for combo in np.ndindex(*(3,) * d):
        shift = tuple((round(i / 3 * n) % n) / n for i in combo)
        out.append(build_lattice(d, L, shift))
    return out


def universal_sparse_bound(fs: list[GridFunction], value: float,
                           theta: float | None = None) -> dict:
    """Search the 3^d shifted grids for a stopping collection whose
    sparse form dominates ``value``; returns the best grid and the
    ratio value / best_form."""
    if not fs:
        raise ValueError("need at least one function")
    lat = fs[0].lattice
    n1 = len(fs)
    theta = theta if theta is not None else 2.0 * n1
    best = None
    for i, grid in enumerate(universal_grids(lat.dim, lat.depth)):
        moved = [GridFunction(grid, f.values) for f in fs]
        u = build_sparse_stopping(moved, theta)
        form = sparse_form(u, moved)
        if best is None or form > best[1]:
            best = (i, form)
    i, form = best
    ratio = float("inf") if form == 0 and value > 0 else (
        0.0 if value == 0 else value / form)
    return {"grid": i, "form": form, "constant": ratio}


# ---------------------------------------------------------------------------
# domination reports
# ---------------------------------------------------------------------------

def verify_sparse_domination(lhs: float, fs: list[GridFunction], eta: float = 0.5) -> dict:
    """Measure ``lhs``, the modulus of an (n+1)-linear form at the n + 1
    inputs ``fs``, against the sparse form of their pointwise S^{n+1} norms.

    The collection is built by the stopping construction at the theta
    matching eta; ``sparse`` is its ``is_sparse`` verdict at eta.  A zero
    sparse form with a nonzero form value is flagged with an infinite
    constant.
    """
    n1 = len(fs)
    norms = [GridFunction(f.lattice, schatten_norms(f.values, float(n1))) for f in fs]
    col = build_sparse_stopping(norms, n1 / (1.0 - eta))
    rhs = sparse_form(col, norms)
    if rhs == 0.0:
        constant = 0.0 if lhs == 0.0 else float("inf")
    else:
        constant = lhs / rhs
    return {"lhs": lhs, "rhs": rhs, "constant": constant, "sparse": is_sparse(col, eta)}
