"""Multilinear maximal operator, sparse collections, stopping times.

A collection S of cubes is eta-sparse when each cube Q owns a subset
E_Q of measure > eta |Q| and the E_Q are pairwise disjoint.  Stopping
times build such collections: starting from the top cube, the children
of Q in the collection are the maximal cubes where some input average
jumps above theta times its Q-average.  The dyadic weak (1,1) bound
with constant one gives total stopping measure <= (n+1)/theta |Q|, so
the construction is (1 - (n+1)/theta)-sparse.

The sparse form sum_Q |Q| prod_j <|f_j|>_Q dominates the model-operator
forms; ``verify_sparse_domination`` measures the constant on concrete
operators and inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (Cube, GridFunction, Lattice, _block_means, _cell_block, _expand,
                      from_aligned)
from .ncspaces import schatten_norms

MEASURE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# maximal operator
# ---------------------------------------------------------------------------

def multilinear_maximal(fs: list[GridFunction]) -> GridFunction:
    """M(f)(x) = sup over lattice cubes containing x of prod_j <|f_j|>_Q,
    exhaustively over all levels 0..L."""
    if not fs:
        raise ValueError("need at least one function")
    lat = fs[0].lattice
    for f in fs:
        if f.lattice != lat or f.value_shape != ():
            raise ValueError("inputs must be scalar functions on one lattice")
    d, L = lat.dim, lat.depth
    mats = [np.abs(f.aligned()) for f in fs]
    best = np.zeros((lat.cells_per_axis,) * d)
    for lv in range(L + 1):
        w = 1 << (L - lv)
        prod = np.ones((1 << lv,) * d)
        for m in mats:
            prod = prod * _block_means(m, w, d)
        best = np.maximum(best, _expand(prod, w, d))
    return from_aligned(lat, best)


# ---------------------------------------------------------------------------
# sparse collections
# ---------------------------------------------------------------------------

@dataclass
class SparseCollection:
    """Cubes plus disjoint witness sets E_Q (boolean masks over the
    aligned finest cells)."""

    lattice: Lattice
    cubes: tuple[Cube, ...]
    exceptional: dict  # Cube -> flat boolean mask (aligned cell order)
    eta: float | None = None

    def __len__(self):
        return len(self.cubes)


def is_sparse(s: SparseCollection, eta: float) -> bool:
    """Exhaustive check of the sparsity invariants at level eta."""
    lat = s.lattice
    occupancy = np.zeros(lat.num_cells, dtype=np.int64)
    for Q in s.cubes:
        if Q not in s.exceptional:
            return False
        mask = s.exceptional[Q]
        inside = np.zeros((lat.cells_per_axis,) * lat.dim, dtype=bool)
        inside[_cell_block(lat, Q)] = True
        if np.any(mask & ~inside.reshape(-1)):
            return False  # E_Q not contained in Q
        if mask.sum() * lat.cell_volume <= eta * Q.measure() * (1.0 - MEASURE_SLACK):
            return False
        occupancy += mask
    return bool(occupancy.max(initial=0) <= 1)


def build_sparse_stopping(fs: list[GridFunction], theta: float) -> SparseCollection:
    """Stopping-time sparse collection from the top cube.

    Requires theta > n+1 (the number of inputs); the result is
    eta-sparse with eta = 1 - (n+1)/theta.  All-zero input yields the
    top cube alone.
    """
    if not fs:
        raise ValueError("need at least one function")
    n1 = len(fs)
    if theta <= n1:
        raise ValueError("threshold must exceed the number of functions")
    lat = fs[0].lattice
    for f in fs:
        if f.lattice != lat or f.value_shape != ():
            raise ValueError("inputs must be scalar functions on one lattice")
    d, L = lat.dim, lat.depth
    # per-level block means of |f_j| in aligned coordinates
    pyramids = []
    for f in fs:
        levels = []
        a = np.abs(f.aligned())
        for lv in range(L + 1):
            levels.append(_block_means(a, 1 << (L - lv), d))
        pyramids.append(levels)

    def avg(j, Q):
        return float(pyramids[j][Q.level][Q.index])

    cubes = []
    exceptional = {}

    def stopping_children(Q):
        found = []
        base = [avg(j, Q) for j in range(n1)]

        def scan(c):
            if any(avg(j, c) > theta * base[j] for j in range(n1)):
                found.append(c)
                return
            if c.level < L:
                for cc in c.children():
                    scan(cc)

        if Q.level < L:
            for c in Q.children():
                scan(c)
        return found

    stack = [lat.top()]
    while stack:
        Q = stack.pop()
        kids = stopping_children(Q)
        mask = np.zeros((lat.cells_per_axis,) * d, dtype=bool)
        mask[_cell_block(lat, Q)] = True
        for S in kids:
            mask[_cell_block(lat, S)] = False
        cubes.append(Q)
        exceptional[Q] = mask.reshape(-1)
        stack.extend(kids)
    return SparseCollection(lat, tuple(cubes), exceptional, eta=1.0 - n1 / theta)


def sparse_form(s: SparseCollection, fs: list[GridFunction]) -> float:
    """sum_{Q in S} |Q| prod_j <|f_j|>_Q."""
    if not fs:
        raise ValueError("need at least one function")
    lat = fs[0].lattice
    mats = [np.abs(f.aligned()) for f in fs]
    total = 0.0
    for Q in s.cubes:
        blk = _cell_block(lat, Q)
        prod = 1.0
        for m in mats:
            prod *= float(m[blk].mean())
        total += Q.measure() * prod
    return total


def universal_grids(d: int, L: int) -> list[Lattice]:
    """The 3^d lattices shifted by i/3 per coordinate (i = 0, 1, 2),
    quantized to the nearest multiple of 2^-L."""
    from .lattice import build_lattice
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

def pointwise_schatten(f: GridFunction, p: float) -> GridFunction:
    """Scalar function x -> |f(x)|_{S^p}."""
    lat = f.lattice
    if f.value_shape == ():
        return GridFunction(lat, np.abs(f.values))
    flat = f.values.reshape((lat.num_cells,) + f.value_shape)
    norms = schatten_norms(flat, p)
    return GridFunction(lat, norms.reshape((lat.cells_per_axis,) * lat.dim))


def verify_sparse_domination(op, fs: list[GridFunction], eta: float = 0.5,
                             schatten: list[float] | None = None) -> dict:
    """Measure |form(f)| against the sparse form of the pointwise norms.

    The collection is built by the stopping construction at the theta
    matching eta.  A zero sparse form with a nonzero form value is
    flagged with an infinite constant.
    """
    from .modelops import form_value
    n1 = op.n + 1
    if schatten is None:
        schatten = [float(n1)] * n1
    lhs = abs(form_value(op, fs))
    norms = [pointwise_schatten(f, p) for f, p in zip(fs, schatten)]
    theta = n1 / (1.0 - eta)
    col = build_sparse_stopping(norms, theta)
    rhs = sparse_form(col, norms)
    if rhs == 0.0:
        constant = 0.0 if lhs == 0.0 else float("inf")
    else:
        constant = lhs / rhs
    return {
        "eta": eta,
        "theta": theta,
        "lhs": lhs,
        "rhs": rhs,
        "constant": constant,
        "kappa": getattr(op, "kappa", 0),
        "n": op.n,
        "N": fs[0].N,
        "L": fs[0].lattice.depth,
        "collection_size": len(col),
    }
