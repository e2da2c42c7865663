"""Multilinear dyadic model operators on matrix-valued grid functions.

A shift of linearity n pairs n+1 functions against Haar-type functions
of descendants of a base cube K: slot j pairs f_j with h_{Q_j}^eta for
some Q_j with Q_j^(k_j) = K, cancellative (eta != 0) on at least two
slots and h^0 elsewhere.  Coefficients are normalized by

    |a| <= prod_j |Q_j|^(1/2) / |K|^n.

A paraproduct has one cancellative slot and n averaged slots per cube,
with Carleson-normalized coefficients.  Both act as trace-paired
(n+1)-linear forms; adjoints come from cyclic invariance of the trace.

``reduce_shift`` rewrites a shift so that all non-cancellative slots sit
at depth zero: each non-cancellative slot of positive depth is expanded
through the martingale identity E_K^k = sum_{l<k} Delta_K^l + E_K,
turning Delta-parts into cancellative slots at intermediate levels and
leaving an averaged part at K.  Coefficients pick up the pairing factors
gamma(Q, L) = <h_L, h^0_Q> of modulus |Q|^(1/2)/|L|^(1/2); the rewritten
terms satisfy the same normalization and their forms sum back to the
original form value.

Coefficients live in one ``CoeffTable``: integer arrays for the cubes'
levels, indices and eta masks plus a complex value array.  Validation
and the rewrite are index arithmetic on them (ancestors are bit shifts);
a form gathers each slot's pairings from one HaarPyramid sweep and
contracts them as a batched matrix chain (scalars as 1x1 matrices); the
Carleson and BMO sups are one bottom-up sweep of level sums of |a|^2.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .lattice import (Cube, GridFunction, HaarPyramid, Lattice, _block_means, _cube_json,
                      _expand, _field, _finite, _heap_number, _heap_size, _int, _ints,
                      _level_views, build_lattice, from_aligned, haar, pairing)

NORMALIZATION_SLACK = 1e-12


class CoeffTable:
    """Coefficients as rows of integer arrays and one complex array.

    Row r holds the cubes (level[r, s], index[r, s, :]) for s = 0..S-1,
    cube 0 being the base cube K, the eta masks eta[r, :] and value[r].
    A shift row is (K, Q_1..Q_{n+1}) with one eta per slot; a
    paraproduct row is (K,) with one eta.  Keys are unique: rows with
    equal keys are merged into the first one's position, keeping the
    last value, or summing the values in row order with ``sum_repeats``.
    ``len`` counts rows; ``==`` compares the tables as mappings from keys
    to values, whatever their row order.
    """

    def __init__(self, level, index, eta, value, sum_repeats: bool = False):
        self.level = np.asarray(level, dtype=np.int64)
        self.index = np.asarray(index, dtype=np.int64)
        self.eta = np.asarray(eta, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.complex128)
        if np.any((self.level < 0) | (self.level * self.dim > 62)):
            raise ValueError("cube level out of range")
        if np.any((self.index < 0) | (self.index >> self.level[..., None] != 0)):
            raise ValueError("cube index out of range")
        keys = self._keys()
        order = np.lexsort(keys.T[::-1])  # stable: equal keys keep row order
        starts = np.concatenate(([True], np.any(keys[order[1:]] != keys[order[:-1]], axis=1)))
        if starts.all():
            return
        first = np.empty(len(order), dtype=np.intp)  # each row's first row with its key
        first[order] = order[starts][np.cumsum(starts) - 1]
        keep, target = np.unique(first, return_inverse=True)
        if sum_repeats:
            value = np.zeros(len(keep), dtype=np.complex128)
            np.add.at(value, target, self.value)
        else:
            last = np.zeros(len(keep), dtype=np.intp)
            np.maximum.at(last, target, np.arange(len(order)))
            value = self.value[last]
        self.level, self.index, self.eta = self.level[keep], self.index[keep], self.eta[keep]
        self.value = value

    @property
    def dim(self) -> int:
        return self.index.shape[2]

    def __len__(self) -> int:
        return len(self.value)

    def _keys(self) -> np.ndarray:
        return np.concatenate([_heap_number(self.level, self.index, self.dim), self.eta],
                              axis=1)

    def __eq__(self, other):
        if not isinstance(other, CoeffTable):
            return NotImplemented
        a, b = self._keys(), other._keys()
        if a.shape != b.shape or self.index.shape != other.index.shape:
            return False
        ia, ib = np.lexsort(a.T), np.lexsort(b.T)
        return bool(np.array_equal(a[ia], b[ib])
                    and np.array_equal(self.value[ia], other.value[ib]))

    def items(self):
        """(key, value) pairs in row order: keys (K, Qs, etas) or (K, eta)."""
        for lv, ix, es, a in zip(self.level.tolist(), self.index.tolist(),
                                 self.eta.tolist(), self.value.tolist()):
            cs = [Cube(l, tuple(i)) for l, i in zip(lv, ix)]
            yield ((cs[0], es[0]) if len(cs) == 1
                   else (cs[0], tuple(cs[1:]), tuple(es))), a


def _coeff_bound(level: np.ndarray, dim: int, n: int) -> np.ndarray:
    """prod_j |Q_j|^(1/2) / |K|^n for rows of cube levels (K, Q_1, ...)."""
    measure = 2.0 ** (-level * dim)
    prod = np.ones(len(level))
    for j in range(1, level.shape[1]):
        prod = prod * measure[:, j] ** 0.5
    return prod / measure[:, 0] ** n


class ShiftSpec:
    """An n-linear dyadic shift bound to a lattice.

    ``cancellative`` holds 1-based slot indices (at least two).  The
    coefficients are a ``CoeffTable`` of rows (K, Q_1..Q_{n+1}) with one
    eta mask per slot.  Out-of-bound coefficients are rejected, or
    projected onto the normalization bound when ``clamp`` is set.
    """

    def __init__(self, lattice: Lattice, n: int, complexity: Sequence[int],
                 cancellative: Iterable[int], coeffs: CoeffTable, clamp: bool = False):
        complexity = tuple(int(k) for k in complexity)
        cancellative = frozenset(int(j) for j in cancellative)
        if n < 1:
            raise ValueError("linearity must be >= 1")
        if len(complexity) != n + 1 or any(k < 0 for k in complexity):
            raise ValueError("complexity must be n+1 non-negative integers")
        if len(cancellative) < 2 or not cancellative <= set(range(1, n + 2)):
            raise ValueError("need at least two cancellative slots in 1..n+1")
        self.lattice = lattice
        self.n = n
        self.complexity = complexity
        self.cancellative = cancellative
        self.coeffs = self._validate(coeffs, clamp)

    @property
    def kappa(self) -> int:
        return max(self.complexity)

    def _validate(self, t: CoeffTable, clamp: bool) -> CoeffTable:
        lat, n = self.lattice, self.n
        if t.level.shape[1:] != (n + 2,) or t.eta.shape[1:] != (n + 1,) or t.dim != lat.dim:
            raise ValueError("coefficient key has wrong arity")
        k = np.array(self.complexity)
        canc = np.array([j in self.cancellative for j in range(1, n + 2)])
        q_level = t.level[:, 1:]
        descends = ((q_level - t.level[:, :1] == k)
                    & np.all(t.index[:, 1:] >> k[:, None] == t.index[:, :1], axis=2))
        eta_ok = np.where(canc, (t.eta >= 1) & (t.eta < 1 << lat.dim), t.eta == 0)
        for bad, msg in (
                (~descends, "cube in slot {} is not a depth-k_{} descendant of K"),
                (~eta_ok, "slot {} needs a cancellative eta, or eta = 0 if not cancellative"),
                (q_level + canc > lat.depth, "cube in slot {} below the lattice depth "
                 "(cancellative cubes need a level below it)")):
            if bad.any():
                j = int(np.argmax(bad.any(axis=0))) + 1
                raise ValueError(msg.format(j, j))
        bound = _coeff_bound(t.level, lat.dim, n)
        mag = np.hypot(t.value.real, t.value.imag)  # |a| exactly as Python's abs
        over = mag > bound * (1.0 + NORMALIZATION_SLACK)
        if not over.any():
            return t
        if not clamp:
            r = int(np.argmax(over))
            raise ValueError(f"coefficient {t.value[r]} exceeds the bound {bound[r]}")
        value = t.value.copy()
        value[over] *= bound[over] / mag[over]
        return CoeffTable(t.level, t.index, t.eta, value)


class ParaproductSpec:
    """An n-linear dyadic paraproduct: one Haar slot, n averaged slots.

    The coefficients are a ``CoeffTable`` of rows (K,) with one eta
    mask.  They must satisfy the Carleson condition
    sup_{K0} (|K0|^-1 sum_{K <= K0} |a_K|^2)^(1/2) <= 1, verified over
    every cube of the lattice.
    """

    def __init__(self, lattice: Lattice, n: int, haar_position: int,
                 coeffs: CoeffTable, check: bool = True):
        if n < 1:
            raise ValueError("linearity must be >= 1")
        if not 1 <= haar_position <= n + 1:
            raise ValueError("haar position out of range")
        t = self.coeffs = coeffs
        if t.level.shape[1:] != (1,) or t.eta.shape[1:] != (1,) or t.dim != lattice.dim:
            raise ValueError("coefficient key has wrong arity")
        if np.any((t.eta < 1) | (t.eta >= 1 << lattice.dim)):
            raise ValueError("paraproduct coefficients need cancellative eta")
        if np.any(t.level >= lattice.depth):
            raise ValueError("coefficient cube at the finest level")
        self.lattice = lattice
        self.n = n
        self.haar_position = haar_position
        if check:
            c = self.carleson_constant()
            if c > 1.0 + 1e-9:
                raise ValueError(f"coefficients violate the Carleson condition ({c})")

    def carleson_constant(self) -> float:
        """Sup over all lattice cubes K0 of the normalized square function."""
        lat, t = self.lattice, self.coeffs
        sums = np.bincount(_heap_number(t.level, t.index, lat.dim)[:, 0],
                           weights=np.abs(t.value) ** 2,
                           minlength=_heap_size(lat.depth, lat.dim))
        return _carleson_sup(_level_views(sums, lat.depth, lat.dim), lat.dim)


def _carleson_sup(sums: list[np.ndarray], d: int) -> float:
    """sup over cubes K0 of (|K0|^-1 sum_{K <= K0} s_K)^(1/2), from the
    per-level arrays s of shape (2^l,)*d, in one bottom-up sweep."""
    best = 0.0
    below = 0.0
    for lv in range(len(sums) - 1, -1, -1):
        total = sums[lv] + below
        best = max(best, float(total.max()) / 2.0 ** (-lv * d))
        if lv:  # sums over the 2^d children; mean times 2^d is exact
            below = _block_means(total, 2, d) * (1 << d)
    return best ** 0.5


@dataclass(frozen=True)
class ReducedShiftTerm:
    """One term of the depth-zero rewrite of a shift.

    ``levels`` are the per-slot depths below K, ``cancellative`` the
    slots carrying cancellative Haar functions (superset of the original
    ones), and ``labels`` record what each slot became: ("canc",) for an
    original cancellative slot, ("expect",) for the averaged part at K
    or ("delta", l) for the cancellative part at depth l.
    """

    lattice: Lattice
    n: int
    levels: tuple[int, ...]
    cancellative: frozenset[int]
    labels: tuple[tuple, ...]
    coeffs: CoeffTable = field(hash=False)

    def check_normalization(self) -> float:
        """Max of |b| / bound over the table (should be <= 1)."""
        t = self.coeffs
        mag = np.hypot(t.value.real, t.value.imag)  # |b| exactly as Python's abs
        return float(np.max(mag / _coeff_bound(t.level, t.dim, self.n), initial=0.0))


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def make_random_shift(lat: Lattice, n: int, complexity: Sequence[int],
                      cancellative: Iterable[int], seed: int, scale: float = 1.0,
                      blocks: int = 8, tuples_per_block: int = 8) -> ShiftSpec:
    """Random shift with coefficients of modulus scale * bound.

    Fills at most ``blocks`` base cubes K and ``tuples_per_block`` cube
    tuples per K; each tuple gets one coefficient per admissible
    combination of cancellative sign patterns, with independent uniform
    phases.  A tuple drawn twice keeps its first row and its last
    phases.  Deterministic in the seed.
    """
    if not 0.0 <= scale <= 1.0:
        raise ValueError("scale must lie in [0, 1]")
    complexity = tuple(int(k) for k in complexity)
    canc = frozenset(int(j) for j in cancellative)
    if len(canc) < 2:
        raise ValueError("need at least two cancellative slots")
    max_level = min(lat.depth - k - (1 if (j + 1) in canc else 0)
                    for j, k in enumerate(complexity))
    if max_level < 0:
        raise ValueError("complexity incompatible with the lattice depth")
    d, k = lat.dim, np.array(complexity)
    etas = np.array(list(itertools.product(
        *(range(1, 1 << d) if (j + 1) in canc else [0] for j in range(n + 1)))))
    tuples = tuples_per_block if scale > 0.0 else 0
    rng = np.random.default_rng(seed)
    # the candidate base cubes, level by level, each level in C order
    K_level = np.repeat(np.arange(max_level + 1), 1 << (d * np.arange(max_level + 1)))
    K_index = np.concatenate([np.indices((1 << lv,) * d).reshape(d, -1).T
                              for lv in range(max_level + 1)])
    draws = {}  # (base cube, offsets of the Q_j in it) -> uniforms of the phases
    for ki in np.repeat(rng.choice(len(K_level), size=min(blocks, len(K_level)),
                                   replace=False), tuples).tolist():
        key = (ki, *rng.integers(1 << (k * d)).tolist())
        draws[key] = rng.uniform(size=len(etas))
    rows = np.array(list(draws), dtype=np.int64).reshape(-1, n + 2)
    base, uniforms = rows[:, 0], np.reshape(list(draws.values()), (-1, len(etas)))
    # Q_j's flat offset inside K, in C order over (2^k_j,)*d, split per axis
    per_axis = (rows[:, 1:, None] >> k[:, None] * np.arange(d - 1, -1, -1)) \
        & ((1 << k) - 1)[:, None]
    level = np.column_stack([K_level[base], K_level[base][:, None] + k])
    index = np.concatenate([K_index[base][:, None],
                            (K_index[base][:, None] << k[:, None]) + per_axis], axis=1)
    value = scale * np.exp(2j * np.pi * uniforms) * _coeff_bound(level, d, n)[:, None]
    return ShiftSpec(lat, n, complexity, canc, CoeffTable(
        np.repeat(level, len(etas), axis=0), np.repeat(index, len(etas), axis=0),
        np.tile(etas, (len(base), 1)), value.reshape(-1)))


def bmo_norm(h: GridFunction) -> float:
    """Dyadic BMO norm: sup over cubes K0 of
    (|K0|^-1 sum over Haar coefficients inside K0)^(1/2)."""
    if h.value_shape != ():
        raise ValueError("BMO norm is for scalar functions")
    lat = h.lattice
    sums = (np.abs(HaarPyramid(h).flat[:, 1:]) ** 2).sum(axis=1)
    return _carleson_sup(_level_views(sums, lat.depth, lat.dim), lat.dim)


def make_bmo_coeffs(lat: Lattice, h: GridFunction) -> CoeffTable:
    """Nonzero Haar coefficients of h normalized by its dyadic BMO norm,
    as a paraproduct table in the order of ``Lattice.cubes`` and eta.

    The output satisfies the Carleson condition with constant exactly
    one, attained at the sup cube.  Constant h is rejected.
    """
    nrm = bmo_norm(h)
    if nrm <= 0.0:
        raise ValueError("constant function has zero BMO norm")
    coefs = [a[..., 1:] for a in HaarPyramid(h).levels[:lat.depth]]
    nz = [np.nonzero(a) for a in coefs]
    return CoeffTable(
        np.concatenate([np.full(len(z[0]), lv) for lv, z in enumerate(nz)])[:, None],
        np.concatenate([np.stack(z[:-1], axis=-1) for z in nz])[:, None],
        np.concatenate([z[-1] + 1 for z in nz])[:, None],
        np.concatenate([a[z] for a, z in zip(coefs, nz)]) / nrm)


# ---------------------------------------------------------------------------
# form evaluation
# ---------------------------------------------------------------------------

def _check_inputs(lat: Lattice, fs: Sequence[GridFunction], arity: int) -> int:
    if len(fs) != arity:
        raise ValueError(f"expected {arity} functions")
    vs = fs[0].value_shape
    for f in fs:
        if f.lattice != lat:
            raise ValueError("function lattice does not match the operator")
        if f.value_shape != vs:
            raise ValueError("functions have mixed value shapes")
    if vs != () and (len(vs) != 2 or vs[0] != vs[1]):
        raise ValueError("form inputs must be scalar or square-matrix valued")
    return 1 if vs == () else vs[0]


def _chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Batched matrix product of (R, N, N) stacks in list order."""
    return functools.reduce(np.matmul, mats)


def _slots(spec) -> list[tuple]:
    """Per slot j = 1..n+1: heap numbers of the cubes and eta masks of the
    Haar functions it pairs against, and the divisor of that pairing."""
    t = spec.coeffs
    heap = _heap_number(t.level, t.index, t.dim)
    if isinstance(spec, ParaproductSpec):
        # averages from the non-cancellative pairing: <f>_K = <f, h^0_K> |K|^-1/2
        root = (2.0 ** (-t.level[:, 0] * t.dim)) ** 0.5
        return [(heap[:, 0], t.eta[:, 0], 1.0) if j == spec.haar_position
                else (heap[:, 0], 0, root) for j in range(1, spec.n + 2)]
    return [(heap[:, j], t.eta[:, j - 1], 1.0) for j in range(1, spec.n + 2)]


def _pairings(slots, fs: Sequence[GridFunction], N: int) -> list[np.ndarray]:
    """<f_j, h_{Q_j}^{eta_j}> / divisor_j per row, as (R, N, N) stacks."""
    return [HaarPyramid(f).flat[heap, eta].reshape(-1, N, N) / np.reshape(div, (-1, 1, 1))
            for f, (heap, eta, div) in zip(fs, slots)]


def _form(spec, fs: Sequence[GridFunction]) -> complex:
    prod = _chain(_pairings(_slots(spec), fs, _check_inputs(spec.lattice, fs, spec.n + 1)))
    # a named array, so numpy does not multiply into a temporary in place,
    # which can change the last bits
    traces = np.einsum("kii->k", prod)
    return complex((spec.coeffs.value * traces).sum())


def eval_shift_form(spec: ShiftSpec | ReducedShiftTerm,
                    fs: Sequence[GridFunction]) -> complex:
    """Trace-paired form value: sum over the coefficient table of
    a * tau(prod_j <f_j, h_{Q_j}>), matrix product in slot order."""
    return _form(spec, fs)


def eval_shift_form_naive(spec: ShiftSpec | ReducedShiftTerm,
                          fs: Sequence[GridFunction]) -> complex:
    """Direct enumeration oracle: build every Haar function on the grid
    and integrate the pairings term by term."""
    lat = spec.lattice
    N = _check_inputs(lat, fs, spec.n + 1)
    total = 0j
    for (K, qs, etas), a in spec.coeffs.items():
        mats = [np.reshape(pairing(f, haar(lat, (q, e))), (1, N, N))
                for f, q, e in zip(fs, qs, etas)]
        total += a * np.trace(_chain(mats)[0])
    return complex(total)


def eval_paraproduct_form(spec: ParaproductSpec,
                          fs: Sequence[GridFunction]) -> complex:
    """Paraproduct form: per cube, the trace of the product of the n
    averages and the Haar pairing of the slot at ``haar_position``."""
    return _form(spec, fs)


def adjoint_eval(spec, j0: int, fs: Sequence[GridFunction]) -> GridFunction:
    """The slot-j0 adjoint applied to the remaining n functions.

    Returns the matrix-valued function g with form(f_1..f_{n+1}) equal
    to integral of tau(g f_{j0}); the matrix product inside is taken in
    the cyclic order j0+1, ..., j0-1 as dictated by trace invariance.
    """
    lat = spec.lattice
    n1 = spec.n + 1
    if not 1 <= j0 <= n1:
        raise ValueError("adjoint slot out of range")
    N = _check_inputs(lat, fs, spec.n)
    slots = _slots(spec)
    others = [j for j in range(1, n1 + 1) if j != j0]
    mats = dict(zip(others, _pairings([slots[j - 1] for j in others], fs, N)))
    prod = _chain([mats[(j0 + i) % n1 + 1] for i in range(n1 - 1)])
    heap, eta, div = slots[j0 - 1]
    out = _synthesize(lat, heap, eta, spec.coeffs.value[:, None, None] * prod
                      / np.reshape(div, (-1, 1, 1)))
    return from_aligned(lat, out.reshape(out.shape[:lat.dim] + fs[0].value_shape))


def _synthesize(lat: Lattice, heap, eta, coef: np.ndarray) -> np.ndarray:
    """Aligned values of sum_r coef_r h_{Q_r}^{eta_r}: the coefficients
    are summed per cube and eta, then each (level, eta) slice is spread
    over its cubes with the pattern of h^eta on the level's first cube."""
    d, L = lat.dim, lat.depth
    c = np.zeros((_heap_size(L, d), 1 << d) + coef.shape[1:], dtype=np.complex128)
    np.add.at(c, (heap, eta), coef)
    out = np.zeros((lat.cells_per_axis,) * d + coef.shape[1:], dtype=np.complex128)
    for lv, level in enumerate(_level_views(c, L, d)):
        w = 1 << (L - lv)
        for e in range(1 << d):
            part = level[(slice(None),) * d + (e,)]
            if part.any():
                h = haar(lat, (Cube(lv, (0,) * d), e)).aligned()[(slice(w),) * d].real
                pattern = np.tile(h, (1 << lv,) * d)[(...,) + (None,) * (coef.ndim - 1)]
                out += _expand(part, w, d) * pattern
    return out


def form_value(spec, fs: Sequence[GridFunction]) -> complex:
    if isinstance(spec, ParaproductSpec):
        return eval_paraproduct_form(spec, fs)
    return eval_shift_form(spec, fs)


# ---------------------------------------------------------------------------
# complexity reduction
# ---------------------------------------------------------------------------

def reduce_shift(spec: ShiftSpec) -> list[ReducedShiftTerm]:
    """Rewrite a shift as depth-zero-average terms.

    Every non-cancellative slot with positive depth is expanded into
    its averaged part at K plus one cancellative part per intermediate
    depth; a shift with all slots cancellative comes back unchanged as
    a single term.  The sum of the returned forms equals the original
    form on any inputs, and every term obeys the shift normalization.
    Rows of a term that land on one key are summed.
    """
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
        # the term's rows, each from table row src; every slot replaces
        # each row by its variants (level, index, eta, gamma factor)
        src, cols, gamma = np.arange(R), [[t.level[:, 0]], [t.index[:, 0]], []], np.ones(R)
        for j, kind in enumerate(labels, start=1):
            k = spec.complexity[j - 1]
            if kind[0] == "canc":
                v = (t.level[:, j:j + 1], t.index[:, j:j + 1], t.eta[:, j - 1:j], np.ones((R, 1)))
            elif kind[0] == "expect":
                v = (t.level[:, :1], t.index[:, :1], np.zeros((R, 1), dtype=np.int64),
                     (measure[:, j:j + 1] / measure[:, :1]) ** 0.5)
            else:
                # L_j is Q's ancestor at depth l below K; the sign of
                # h^eta_L on Q is its sign on the child of L above Q
                l = kind[1]
                anc = t.index[:, j] >> (k - l)
                bits = (t.index[:, j] >> (k - l - 1)) - 2 * anc
                mag = measure[:, j] ** 0.5 / (2.0 ** (-(t.level[:, 0] + l) * d)) ** 0.5
                v = (np.repeat(t.level[:, :1] + l, len(etas), axis=1),
                     np.repeat(anc[:, None], len(etas), axis=1),
                     np.repeat(etas[None], R, axis=0),
                     (-1.0) ** (bits @ ((etas[None] >> np.arange(d)[:, None]) & 1)) * mag[:, None])
            V = v[0].shape[1]
            pick = (np.repeat(src, V), np.tile(np.arange(V), len(src)))
            cols = [[np.repeat(c, V, axis=0) for c in col] + [x[pick]] for col, x in zip(cols, v)]
            gamma = np.repeat(gamma, V) * v[3][pick]
            src = pick[0]
        levels = tuple(k if kind[0] == "canc" else kind[-1] if kind[0] == "delta" else 0
                       for k, kind in zip(spec.complexity, labels))
        canc = spec.cancellative | {j for j, kind in choice.items() if kind[0] == "delta"}
        table = CoeffTable(*(np.stack(c, axis=1) for c in cols), t.value[src] * gamma,
                           sum_repeats=True)
        terms.append(ReducedShiftTerm(lat, spec.n, levels, canc, tuple(labels), table))
    return terms


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _to_json(spec, header: dict) -> str:
    """Header fields, the lattice and the coefficient entries in row order."""
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


def _table_from_json(obj, d: int, qs: int, eta_key: str, eta_default) -> CoeffTable:
    """Entries {K, Qs (``qs`` cubes, none if 0), eta_key, re, im}, in file order."""
    entries = _field(obj, "coeffs")
    if not isinstance(entries, list):
        raise ValueError("field coeffs must be a list")
    level, index, eta, value = [], [], [], []
    for i, ent in enumerate(entries):
        p = f"coeffs[{i}]"
        cubes = [_cube_json(_field(ent, "K", f"{p}.K"), d, f"{p}.K")]
        if qs:
            Qs = _field(ent, "Qs", f"{p}.Qs")
            if not isinstance(Qs, list) or len(Qs) != qs:
                raise ValueError(f"field {p}.Qs must hold {qs} cubes")
            cubes += [_cube_json(c, d, f"{p}.Qs") for c in Qs]
        level += [c[0] for c in cubes]
        index += [c[1] for c in cubes]
        es = ent.get(eta_key, eta_default)
        eta += _ints(es if qs else [es], qs or 1, f"{p}.{eta_key}")
        value.append(complex(_finite(ent, "re", f"{p}.re"), _finite(ent, "im", f"{p}.im")))
    return CoeffTable(np.reshape(level, (-1, qs + 1)), np.reshape(index, (-1, qs + 1, d)),
                      np.reshape(eta, (-1, qs or 1)), value)


def shift_to_json(spec: ShiftSpec) -> str:
    """Serialize a shift; coefficient entries follow the table's row order."""
    return _to_json(spec, {"n": spec.n, "complexity": list(spec.complexity),
                           "cancellative": sorted(spec.cancellative)})


def shift_from_json(text: str, clamp: bool = False) -> ShiftSpec:
    """Load a shift; normalization is re-validated (or clamped).

    Missing ``etas`` entries default to the fully cancellative pattern
    on cancellative slots and zero elsewhere.  A repeated key keeps its
    first position and its last value.  A missing field, a wrong arity
    or shape and a non-finite ``re``/``im`` raise ValueError naming the
    field, for example ``dim`` or ``coeffs[3].Qs``.
    """
    obj = json.loads(text)
    lat = build_lattice(_int(obj, "dim"), _int(obj, "depth"), obj.get("shift"))
    n = _int(obj, "n")
    canc = set(_ints(_field(obj, "cancellative"), None, "cancellative"))
    complexity = _ints(_field(obj, "complexity"), n + 1, "complexity")
    default = [(1 << lat.dim) - 1 if (j + 1) in canc else 0 for j in range(n + 1)]
    return ShiftSpec(lat, n, complexity, canc,
                     _table_from_json(obj, lat.dim, n + 1, "etas", default), clamp=clamp)


def paraproduct_to_json(spec: ParaproductSpec) -> str:
    """Serialize a paraproduct; entries follow the table's row order."""
    return _to_json(spec, {"n": spec.n, "haar_position": spec.haar_position})


def paraproduct_from_json(text: str) -> ParaproductSpec:
    """Load a paraproduct; a missing ``eta`` defaults to the all-ones
    pattern.  Malformed files raise ValueError naming the field."""
    obj = json.loads(text)
    lat = build_lattice(_int(obj, "dim"), _int(obj, "depth"), obj.get("shift"))
    coeffs = _table_from_json(obj, lat.dim, 0, "eta", (1 << lat.dim) - 1)
    return ParaproductSpec(lat, _int(obj, "n"), _int(obj, "haar_position"), coeffs)
