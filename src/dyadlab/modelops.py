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
contracts them as a batched matrix chain (a scalar is N = 1); every
Carleson sup, the BMO norm's too, is one bottom-up sweep of the level
sums of |a|^2 over one table (``_carleson``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

import numpy as np

from .lattice import (_BLOCK, MAX_CUBE_BITS, FieldError, GridFunction, HaarPyramid,
                      Lattice, _Malformed, _child_sums, _field, _haar_signs, _heap_cubes,
                      _heap_number, _heap_size, _int, _ints, _json_array, _lattice_from_header,
                      _lattice_header, _level_views, _synthesize, from_aligned, haar, pairing)
from .ncspaces import chain

NORMALIZATION_SLACK = 1e-12


class CoeffTable:
    """Coefficients as rows of integer arrays and one complex array.

    Row r holds the cubes (level[r, s], index[r, s, :]) for s = 0..S-1,
    cube 0 being the base cube K, the eta masks eta[r, :] and value[r].
    A shift row is (K, Q_1..Q_{n+1}) with one eta per slot; a
    paraproduct row is (K,) with one eta.  A level outside
    0..MAX_CUBE_BITS // dim, an index outside [0, 2^level) and a
    non-finite value raise FieldError at their row and field (``K``,
    ``Qs``, ``re``, ``im``).  Keys must be unique, which
    ``ShiftSpec`` and ``ParaproductSpec`` check; a table never merges
    rows, and ``reduce_shift``, whose rows may repeat a key, sums them
    first (``_merge_repeats``).  ``len`` counts rows; ``==`` compares the
    tables as mappings from keys to values, whatever their row order.
    The four arrays are read-only views, so no value skips the checks.
    """

    def __init__(self, level, index, eta, value):
        self.level = np.asarray(level, dtype=np.int64).view()
        self.index = np.asarray(index, dtype=np.int64).view()
        self.eta = np.asarray(eta, dtype=np.int64).view()
        self.value = np.asarray(value, dtype=np.complex128).view()
        for a in (self.level, self.index, self.eta, self.value):
            a.setflags(write=False)
        top = MAX_CUBE_BITS // self.dim
        bad = (self.level < 0) | (self.level > top)  # checked first: index >> level needs it
        _reject_rows(((bad[:, :1], "K", f"level outside 0..{top}"),
                      (bad[:, 1:], "Qs", f"level in slot {{j}} outside 0..{top}")))
        bad = (self.index >> self.level[:, :, None] != 0).any(axis=2)  # a negative one too
        _reject_rows(((bad[:, :1], "K", "index outside [0, 2^level)"),
                      (bad[:, 1:], "Qs", "index in slot {j} outside [0, 2^level)"),
                      (~np.isfinite(self.value.real[:, None]), "re", "not a finite number"),
                      (~np.isfinite(self.value.imag[:, None]), "im", "not a finite number")))

    @property
    def dim(self) -> int:
        return self.index.shape[2]

    def __len__(self) -> int:
        return len(self.value)

    def _keys(self) -> list[np.ndarray]:
        """The key columns: the heap number of each cube, then each eta."""
        return ([_heap_number(self.level[:, s], self.index[:, s], self.dim)
                 for s in range(self.level.shape[1])] + [*self.eta.T])

    def __eq__(self, other):
        if not isinstance(other, CoeffTable):
            return NotImplemented
        if self.index.shape != other.index.shape or self.eta.shape != other.eta.shape:
            return False
        a, b = self._keys(), other._keys()
        ia, ib = np.lexsort(a), np.lexsort(b)
        return bool(all(np.array_equal(x[ia], y[ib]) for x, y in zip(a, b))
                    and np.array_equal(self.value[ia], other.value[ib]))


def _merge_repeats(keys: Sequence[np.ndarray],
                   value: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Sum the rows of ``value`` whose key columns all agree, in row
    order, into the position of the first of them.  ``value`` may carry
    trailing axes, merged entry by entry.  Returns the rows kept, in
    order, and their values; (None, value) if all keys are distinct.
    Key changes along the sorted rows are found one column at a time, so
    besides the sort order only one column is copied at once.
    """
    rows = len(value)
    order = np.lexsort(keys[::-1])  # stable: equal keys keep row order
    starts = np.zeros(rows, dtype=bool)
    starts[:1] = True
    for col in keys:
        col = col[order]
        starts[1:] |= col[1:] != col[:-1]
    if starts.all():
        return None, value
    first = np.empty(rows, dtype=np.intp)  # each row's first row with its key
    first[order] = order[starts][np.cumsum(starts) - 1]
    keep, target = np.unique(first, return_inverse=True)
    merged = np.zeros((len(keep),) + value.shape[1:], dtype=np.complex128)
    np.add.at(merged, target, value)
    return keep, merged


def _reject_rows(faults) -> None:
    """For the first (bad, field, message) whose (rows, slots) mask holds
    a fault, raise FieldError at its first bad row; ``{j}`` in the
    message is that row's first bad slot, 1-based."""
    for bad, field, message in faults:
        if bad.any():
            r = int(np.argmax(bad.any(axis=1)))
            raise FieldError(field, message.format(j=int(np.argmax(bad[r])) + 1), r)


def _reject_repeats(t: CoeffTable) -> None:
    """FieldError at the first row whose key an earlier row holds."""
    keep, _ = _merge_repeats(t._keys(), t.value)
    if keep is not None:
        r = int(np.flatnonzero(~np.isin(np.arange(len(t)), keep))[0])
        raise FieldError("", "its key repeats that of an earlier entry", r)


def _coeff_bound(level: np.ndarray, dim: int, n: int) -> np.ndarray:
    """prod_j |Q_j|^(1/2) / |K|^n for rows of cube levels (K, Q_1, ...),
    one column at a time."""
    prod = np.ones(len(level))
    for j in range(1, level.shape[1]):
        prod = prod * (2.0 ** (-level[:, j] * dim)) ** 0.5
    return prod / (2.0 ** (-level[:, 0] * dim)) ** n


def check_shift_shape(n: int, complexity: Sequence[int], cancellative: Collection[int],
                      depth: int) -> int:
    """The shape rules of an n-linear shift: n >= 1, n + 1 non-negative
    complexities, two or more distinct cancellative slots in 1..n + 1, and
    a level on a depth-``depth`` lattice for the base cube K (Q_j lies k_j
    levels below K, a cancellative Q_j one more).  Returns the deepest such
    level; a broken rule raises FieldError naming ``n``, ``complexity``,
    ``cancellative`` or ``depth``."""
    if n < 1:
        raise FieldError("n", "must be at least 1")
    if len(complexity) != n + 1 or any(k < 0 for k in complexity):
        raise FieldError("complexity", f"needs n + 1 = {n + 1} non-negative integers")
    canc = set(cancellative)
    if not 2 <= len(canc) == len(cancellative) or not canc <= set(range(1, n + 2)):
        raise FieldError("cancellative", f"needs two or more distinct slots in 1..{n + 1}")
    level = min(depth - k - ((j + 1) in canc) for j, k in enumerate(complexity))
    if level < 0:
        raise FieldError("depth", "too shallow for the complexity and cancellative slots")
    return level


class ShiftSpec:
    """An n-linear dyadic shift bound to a lattice.

    n, complexity and the 1-based ``cancellative`` slots follow
    ``check_shift_shape`` at the lattice's depth.  The coefficients are a
    ``CoeffTable`` of rows (K, Q_1..Q_{n+1}) with one eta mask per slot
    and unique keys.  Out-of-bound coefficients are rejected.  A broken
    rule raises FieldError naming the field.
    """

    def __init__(self, lattice: Lattice, n: int, complexity: Sequence[int],
                 cancellative: Iterable[int], coeffs: CoeffTable):
        complexity = tuple(int(k) for k in complexity)
        slots = [int(j) for j in cancellative]
        check_shift_shape(n, complexity, slots, lattice.depth)
        self.lattice = lattice
        self.n = n
        self.complexity = complexity
        self.cancellative = frozenset(slots)
        self._validate(coeffs)
        self.coeffs = coeffs

    @property
    def kappa(self) -> int:
        return max(self.complexity)

    def _validate(self, t: CoeffTable) -> None:
        lat, n = self.lattice, self.n
        if t.level.shape[1:] != (n + 2,) or t.eta.shape[1:] != (n + 1,) or t.dim != lat.dim:
            raise ValueError("coefficient key has wrong arity")
        k = np.array(self.complexity)
        canc = np.array([j in self.cancellative for j in range(1, n + 2)])
        q_level = t.level[:, 1:]
        descends = ((q_level - t.level[:, :1] == k)
                    & np.all(t.index[:, 1:] >> k[:, None] == t.index[:, :1], axis=2))
        eta_ok = np.where(canc, (t.eta >= 1) & (t.eta < 1 << lat.dim), t.eta == 0)
        _reject_rows((
            (t.level[:, :1] > lat.depth, "K", "cube K below the lattice depth"),
            (~descends, "Qs", "cube in slot {j} is not a depth-k_{j} descendant of K"),
            (~eta_ok, "etas", "slot {j} needs a cancellative eta, or eta = 0 if not cancellative"),
            (q_level + canc > lat.depth, "Qs", "cube in slot {j} below the lattice depth "
             "(cancellative cubes need a level below it)")))
        bound = _coeff_bound(t.level, lat.dim, n)
        mag = np.hypot(t.value.real, t.value.imag)  # |a| exactly as Python's abs
        over = mag > bound * (1.0 + NORMALIZATION_SLACK)
        if over.any():
            r = int(np.argmax(over))
            raise FieldError("re" if abs(t.value[r].real) >= abs(t.value[r].imag) else "im",
                             f"coefficient {t.value[r]} exceeds the bound {bound[r]}", r)
        _reject_repeats(t)


class ParaproductSpec:
    """An n-linear dyadic paraproduct: one Haar slot, n averaged slots.

    The coefficients are a ``CoeffTable`` of rows (K,) with one eta
    mask and unique keys.  They must satisfy the Carleson condition
    sup_{K0} (|K0|^-1 sum_{K <= K0} |a_K|^2)^(1/2) <= 1, verified over
    every cube of the lattice.  A broken rule raises FieldError naming
    the field.
    """

    def __init__(self, lattice: Lattice, n: int, haar_position: int,
                 coeffs: CoeffTable):
        if n < 1:
            raise FieldError("n", "must be at least 1")
        if not 1 <= haar_position <= n + 1:
            raise FieldError("haar_position", f"must lie in 1..{n + 1}")
        t = self.coeffs = coeffs
        if t.level.shape[1:] != (1,) or t.eta.shape[1:] != (1,) or t.dim != lattice.dim:
            raise ValueError("coefficient key has wrong arity")
        _reject_rows((((t.eta < 1) | (t.eta >= 1 << lattice.dim), "eta",
                       "paraproduct coefficients need cancellative eta"),
                      (t.level >= lattice.depth, "K", "coefficient cube at the finest level")))
        _reject_repeats(t)
        self.lattice = lattice
        self.n = n
        self.haar_position = haar_position
        c = self.carleson_constant()
        if c > 1.0 + 1e-9:
            raise FieldError("coeffs", f"the Carleson constant {c} exceeds 1")

    def carleson_constant(self) -> float:
        """Sup over all lattice cubes K0 of the normalized square function."""
        return _carleson(self.lattice, self.coeffs)


def _carleson(lat: Lattice, t: CoeffTable) -> float:
    """sup over cubes K0 of (|K0|^-1 sum_{K <= K0} |a_K|^2)^(1/2) for a
    paraproduct table t on lat: the level sums of |a|^2, then one
    bottom-up sweep."""
    sums = _level_views(np.bincount(_heap_number(t.level, t.index, lat.dim)[:, 0],
                                    weights=np.abs(t.value) ** 2,
                                    minlength=_heap_size(lat.depth, lat.dim)),
                        lat.depth, lat.dim)
    best = below = 0.0
    for lv in range(lat.depth, -1, -1):
        total = sums[lv] + below
        best = max(best, float(total.max()) / 2.0 ** (-lv * lat.dim))
        if lv:
            below = _child_sums(total, lat.dim)
    return best ** 0.5


@dataclass(frozen=True)
class ReducedShiftTerm:
    """One term of the depth-zero rewrite of a shift.

    ``levels`` are the per-slot depths below K and ``cancellative`` the
    slots carrying cancellative Haar functions (superset of the original
    ones).  Together they say what each slot became: an original
    cancellative slot keeps its depth, a slot outside ``cancellative`` is
    the averaged part at K (depth 0), and any other slot is the
    cancellative part at its depth.
    """

    lattice: Lattice
    n: int
    levels: tuple[int, ...]
    cancellative: frozenset[int]
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
    max_level = check_shift_shape(n, complexity, canc, lat.depth)
    d, k = lat.dim, np.array(complexity)
    etas = np.array(list(itertools.product(
        *(range(1, 1 << d) if (j + 1) in canc else [0] for j in range(n + 1)))))
    tuples = tuples_per_block if scale > 0.0 else 0
    rng = np.random.default_rng(seed)
    K_level, K_index = _heap_cubes(max_level, d)  # the candidate base cubes
    bases = np.repeat(rng.choice(len(K_level), size=min(blocks, len(K_level)),
                                 replace=False), tuples).tolist()
    draws = _draw_tuples(rng, bases, (k * d).tolist(), len(etas))
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


def _draw_tuples(rng: np.random.Generator, bases: list[int], bits: list[int],
                 m: int) -> dict:
    """(base, offsets) -> m uniforms, per base: offset j below 2^bits[j],
    one scalar draw each (a zero range draws nothing, as in one array
    draw of all offsets), then the uniforms.  A tuple drawn twice keeps
    its first place and its last uniforms."""
    draws = {}
    for ki in bases:
        key = (ki, *[rng.integers(1 << b) if b else 0 for b in bits])
        draws[key] = rng.random(m)
    return draws


def _haar_table(h: GridFunction) -> CoeffTable:
    """The nonzero cancellative Haar coefficients of a scalar (N = 1) h
    as a paraproduct table, in heap order (``_heap_cubes``) and eta."""
    if h.value_shape != (1, 1):
        raise ValueError(f"BMO norm is for scalar (N = 1) functions, not value shape "
                         f"{h.value_shape}")
    lat = h.lattice
    level, index = _heap_cubes(lat.depth - 1, lat.dim)
    coefs = HaarPyramid(h).pairings(np.arange(len(level))[:, None],
                                    np.arange(1, 1 << lat.dim))[..., 0, 0]
    cube, eta = nz = np.nonzero(coefs)
    return CoeffTable(level[cube][:, None], index[cube][:, None], eta[:, None] + 1, coefs[nz])


def bmo_norm(h: GridFunction) -> float:
    """Dyadic BMO norm: sup over cubes K0 of
    (|K0|^-1 sum over Haar coefficients inside K0)^(1/2), the Carleson
    constant of h's Haar coefficients.  h must be scalar (N = 1)."""
    return _carleson(h.lattice, _haar_table(h))


def make_bmo_coeffs(lat: Lattice, h: GridFunction) -> CoeffTable:
    """Nonzero Haar coefficients of h normalized by its dyadic BMO norm,
    as a paraproduct table in heap order (``_heap_cubes``) and eta.

    The output satisfies the Carleson condition with constant exactly
    one, attained at the sup cube.  h must live on ``lat``; constant h
    is rejected.
    """
    _check_inputs(lat, [h], 1)
    t = _haar_table(h)
    nrm = _carleson(lat, t)
    if nrm <= 0.0:
        raise ValueError("constant function has zero BMO norm")
    return CoeffTable(t.level, t.index, t.eta, t.value / nrm)


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
    return vs[0]


def _slots(spec, rows: slice = slice(None)) -> list[tuple]:
    """Per slot j = 1..n+1: heap numbers of the cubes and eta masks of the
    Haar functions it pairs against, and the divisor of that pairing,
    for the table rows ``rows``."""
    t = spec.coeffs
    level, eta = t.level[rows], t.eta[rows]
    heap = _heap_number(level, t.index[rows], t.dim)
    if isinstance(spec, ParaproductSpec):
        # averages from the non-cancellative pairing: <f>_K = <f, h^0_K> |K|^-1/2
        root = (2.0 ** (-level[:, 0] * t.dim)) ** 0.5
        return [(heap[:, 0], eta[:, 0], 1.0) if j == spec.haar_position
                else (heap[:, 0], 0, root) for j in range(1, spec.n + 2)]
    return [(heap[:, j], eta[:, j - 1], 1.0) for j in range(1, spec.n + 2)]


def _pyramids(fs: Sequence[GridFunction | HaarPyramid]) -> list[HaarPyramid]:
    """The HaarPyramid of each input; one given as its pyramid is not
    swept again."""
    return [f if isinstance(f, HaarPyramid) else HaarPyramid(f) for f in fs]


def _pairings(slots, pyrs: Sequence[HaarPyramid], N: int) -> list[np.ndarray]:
    """<f_j, h_{Q_j}^{eta_j}> / divisor_j per row, as (R, N, N) stacks."""
    return [p.pairings(heap, eta).reshape(-1, N, N) / np.reshape(div, (-1, 1, 1))
            for p, (heap, eta, div) in zip(pyrs, slots)]


def _form(spec, fs: Sequence[GridFunction | HaarPyramid]) -> complex:
    """The form value; the pairings are gathered and multiplied one block
    of _BLOCK rows at a time, so beyond the pyramids and the table peak
    memory is one trace per row and one block."""
    N = _check_inputs(spec.lattice, fs, spec.n + 1)
    pyrs, value = _pyramids(fs), spec.coeffs.value
    # a named array, so numpy does not multiply into a temporary in place,
    # which can change the last bits
    traces = np.empty(len(value), dtype=np.complex128)
    for a in range(0, len(value), _BLOCK):
        rows = slice(a, a + _BLOCK)
        traces[rows] = np.einsum("kii->k", chain(_pairings(_slots(spec, rows), pyrs, N)))
    return complex((value * traces).sum())


def eval_shift_form(spec: ShiftSpec | ReducedShiftTerm,
                    fs: Sequence[GridFunction | HaarPyramid]) -> complex:
    """Trace-paired form value: sum over the coefficient table of
    a * tau(prod_j <f_j, h_{Q_j}>), matrix product in slot order.  An
    input may be given as its ``HaarPyramid``: forms evaluated on the
    same inputs then share one sweep per input."""
    return _form(spec, fs)


def eval_shift_form_naive(spec: ShiftSpec | ReducedShiftTerm,
                          fs: Sequence[GridFunction]) -> complex:
    """Direct enumeration oracle: build every Haar function on the grid
    and integrate the pairings term by term."""
    lat = spec.lattice
    _check_inputs(lat, fs, spec.n + 1)
    t = spec.coeffs
    total = 0j
    for level, index, etas, a in zip(t.level.tolist(), t.index.tolist(), t.eta.tolist(),
                                     t.value.tolist()):
        mats = [pairing(f, haar(lat, lv, ix, e))[None]
                for f, lv, ix, e in zip(fs, level[1:], index[1:], etas)]
        total += a * np.trace(chain(mats)[0])
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
    mats = dict(zip(others, _pairings([slots[j - 1] for j in others], _pyramids(fs), N)))
    prod = chain([mats[(j0 + i) % n1 + 1] for i in range(n1 - 1)])
    heap, eta, div = slots[j0 - 1]
    out = _synthesize(lat, heap, eta, spec.coeffs.value[:, None, None] * prod
                      / np.reshape(div, (-1, 1, 1)))
    return from_aligned(lat, out)


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

    A term has one row per table row and choice of eta masks on the
    slots that became cancellative, in that order.  Every cube of such a
    row, and every other eta, is fixed by its table row, so two rows
    share a key exactly when their table rows agree on those and the
    choices agree: repeats are merged over table rows before the choices
    are spread.  Beyond the input and the terms, peak memory is a few
    arrays of one entry per table row and choice.
    """
    lat, t = spec.lattice, spec.coeffs
    n1, d, R = spec.n + 1, lat.dim, len(spec.coeffs)
    measure = 2.0 ** (-t.level * d)
    etas = np.arange(1, 1 << d)
    # per slot, its (depth, cancellative) choices: a cancellative slot stays
    # at its depth; any other is averaged at K or a delta at each l < k_j
    options = [[(k, True)] if j in spec.cancellative
               else [(0, False)] + [(l, True) for l in range(k)]
               for j, k in enumerate(spec.complexity, start=1)]
    terms = []
    for combo in itertools.product(*options):
        deltas = [j for j, (_, c) in enumerate(combo, start=1) if c and j not in spec.cancellative]
        # the choices: one eta per delta slot, the last slot varying fastest
        choices = np.array(list(itertools.product(etas, repeat=len(deltas))))
        # per slot and table row: the cube, the eta (None where it is the
        # choice's) and the gamma factors of the choices
        cubes, row_etas, gamma = [(t.level[:, 0], t.index[:, 0])], [], np.ones((R, 1))
        for j, (l, c) in enumerate(combo, start=1):
            k = spec.complexity[j - 1]
            if j in spec.cancellative:
                cubes.append((t.level[:, j], t.index[:, j]))
                row_etas.append(t.eta[:, j - 1])
                factor = np.ones((R, 1))
            elif not c:
                cubes.append((t.level[:, 0], t.index[:, 0]))
                row_etas.append(np.zeros(R, dtype=np.int64))
                factor = (measure[:, j:j + 1] / measure[:, :1]) ** 0.5
            else:
                # L_j is Q's ancestor at depth l below K; the sign of
                # h^eta_L on Q is its sign on the child of L above Q
                anc = t.index[:, j] >> (k - l)
                child = ((t.index[:, j] >> (k - l - 1)) - 2 * anc) @ (1 << np.arange(d)[::-1])
                mag = measure[:, j] ** 0.5 / (2.0 ** (-(t.level[:, 0] + l) * d)) ** 0.5
                cubes.append((t.level[:, 0] + l, anc))
                row_etas.append(None)
                factor = (_haar_signs(d)[choices[:, deltas.index(j)][None], child[:, None]]
                          * mag[:, None])
            gamma = gamma * factor
        keep, value = _merge_repeats(
            [_heap_number(lv, ix, d) for lv, ix in cubes] + [e for e in row_etas if e is not None],
            t.value[:, None] * gamma)
        del gamma, factor  # freed before the term's table is built
        rows = np.arange(R) if keep is None else keep
        eta = np.empty((len(rows), len(choices), n1), dtype=np.int64)
        for s, e in enumerate(row_etas):
            eta[:, :, s] = choices[:, deltas.index(s + 1)] if e is None else e[rows, None]
        table = CoeffTable(np.repeat(np.stack([lv[rows] for lv, _ in cubes], 1), len(choices), 0),
                           np.repeat(np.stack([ix[rows] for _, ix in cubes], 1), len(choices), 0),
                           eta.reshape(-1, n1), value.reshape(-1))
        levels = tuple(l for l, _ in combo)
        canc = frozenset(j for j, (_, c) in enumerate(combo, start=1) if c)
        terms.append(ReducedShiftTerm(lat, spec.n, levels, canc, table))
    return terms


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _to_json(spec, header: dict) -> str:
    """Header fields, the lattice and the coefficient entries in row order.

    The bytes are those of ``json.dumps(..., sort_keys=True)`` with one
    dict per entry: each entry is formatted from a template, its integers
    as ``str`` does and its floats as ``json.dumps`` does for one column."""
    t = spec.coeffs
    S, d = t.level.shape[1], t.dim
    cube = "[{}, [" + ", ".join(["{}"] * d) + "]]"
    etas = (f'"Qs": [{", ".join([cube] * (S - 1))}], "etas": [{", ".join(["{}"] * (S - 1))}]'
            if S > 1 else '"eta": {}')
    entry = '{{"K": ' + cube + ", " + etas + ', "im": {}, "re": {}}}'
    ints = np.concatenate([np.concatenate([t.level[:, :, None], t.index], axis=2)
                           .reshape(len(t), S * (d + 1)), t.eta], axis=1).tolist()
    entries = ", ".join(entry.format(*row, im, re) for row, im, re in zip(
        ints, _json_floats(t.value.imag), _json_floats(t.value.real)))
    head = json.dumps({**header, **_lattice_header(spec.lattice), "coeffs": None}, sort_keys=True)
    return head.replace('"coeffs": null', f'"coeffs": [{entries}]', 1)


def _json_floats(x: np.ndarray) -> list[str]:
    """Each float of x as ``json.dumps`` writes it."""
    return json.dumps(x.tolist())[1:-1].split(", ") if len(x) else []


def _table_from_json(obj, d: int, qs: int, eta_key: str, eta_default) -> CoeffTable:
    """Entries {K, Qs (``qs`` cubes, none if 0), eta_key, re, im} as a
    table, row r from entry r.  The first malformed entry in file order
    raises ValueError naming its field; what the values mean is checked
    by ``CoeffTable`` and the specs."""
    entries = _field(obj, "coeffs")
    if not isinstance(entries, list):
        raise ValueError("field coeffs must be a list")
    try:
        return CoeffTable(*_read_entries(entries, d, qs, eta_key, eta_default))
    except _Malformed:
        for i, ent in enumerate(entries):
            try:
                _read_entries([ent], d, qs, eta_key, eta_default)
            except _Malformed as bad:
                raise ValueError(f"field coeffs[{i}].{bad.field} {bad.reason}") from None
        raise


def _read_entries(entries: list, d: int, qs: int, eta_key: str, eta_default):
    """(levels, indices, etas, values) of the entries in one pass, shaped
    for a ``CoeffTable``; JSON types and shapes are checked, and
    integers must fit an int64 and numbers a float."""
    K_ints, Q_ints, eta, re, im = [], [], [], [], []  # cubes as level, indices
    for ent in entries:
        K = ent.get("K") if type(ent) is dict else None
        if type(K) is not list or len(K) != 2 or type(K[1]) is not list or len(K[1]) != d:
            raise _Malformed("K", f"must be a cube [level, [{d} indices]]")
        K_ints.append(K[0])
        K_ints += K[1]
        if qs:
            Qs = ent.get("Qs")
            if type(Qs) is not list or len(Qs) != qs:
                raise _Malformed("Qs", f"must hold {qs} cubes [level, [{d} indices]]")
            for Q in Qs:
                if type(Q) is not list or len(Q) != 2 or type(Q[1]) is not list or len(Q[1]) != d:
                    raise _Malformed("Qs", f"must hold {qs} cubes [level, [{d} indices]]")
                Q_ints.append(Q[0])
                Q_ints += Q[1]
            es = ent.get(eta_key, eta_default)
            if type(es) is not list or len(es) != qs:
                raise _Malformed(eta_key, f"must be a list of {qs} integers")
            eta += es
        else:
            eta.append(ent.get(eta_key, eta_default))
        if "re" not in ent or "im" not in ent:
            raise _Malformed("im" if "re" in ent else "re", "is missing")
        re.append(ent["re"])
        im.append(ent["im"])
    R = len(entries)
    cubes = np.concatenate([_json_array(K_ints, "K", np.int64).reshape(R, 1, d + 1),
                            _json_array(Q_ints, "Qs", np.int64).reshape(R, qs, d + 1)], axis=1)
    eta = _json_array(eta, eta_key, np.int64).reshape(R, qs or 1)
    value = np.empty(R, dtype=np.complex128)
    value.real, value.imag = _json_array(re, "re", np.float64), _json_array(im, "im", np.float64)
    return cubes[:, :, 0], cubes[:, :, 1:], eta, value


def shift_to_json(spec: ShiftSpec) -> str:
    """Serialize a shift; coefficient entries follow the table's row order."""
    return _to_json(spec, {"n": spec.n, "complexity": list(spec.complexity),
                           "cancellative": sorted(spec.cancellative)})


def shift_from_json(text: str) -> ShiftSpec:
    """Load a shift; normalization is re-validated.

    Missing ``etas`` entries default to the fully cancellative pattern
    on cancellative slots and zero elsewhere.  A missing field, a wrong
    type or shape, an integer beyond int64, and a value that breaks a
    rule of the lattice, the table (``CoeffTable``: levels, indices,
    finiteness) or the shift (``ShiftSpec``) raise ValueError naming the
    field, for example ``dim`` or ``coeffs[3].Qs``; the index counts the
    entries of the file.
    """
    obj = json.loads(text)
    lat = _lattice_from_header(obj)
    n = _int(obj, "n")
    canc = _ints(_field(obj, "cancellative"), None, "cancellative")
    complexity = _ints(_field(obj, "complexity"), n + 1, "complexity")
    default = [(1 << lat.dim) - 1 if (j + 1) in canc else 0 for j in range(n + 1)]
    return ShiftSpec(lat, n, complexity, canc,
                     _table_from_json(obj, lat.dim, n + 1, "etas", default))


def paraproduct_to_json(spec: ParaproductSpec) -> str:
    """Serialize a paraproduct; entries follow the table's row order."""
    return _to_json(spec, {"n": spec.n, "haar_position": spec.haar_position})


def paraproduct_from_json(text: str) -> ParaproductSpec:
    """Load a paraproduct; a missing ``eta`` defaults to the all-ones
    pattern.  A malformed file, and values that break a rule of the
    lattice, the table or the paraproduct, raise ValueError naming the
    field, as for ``shift_from_json``."""
    obj = json.loads(text)
    lat = _lattice_from_header(obj)
    return ParaproductSpec(lat, _int(obj, "n"), _int(obj, "haar_position"),
                           _table_from_json(obj, lat.dim, 0, "eta", (1 << lat.dim) - 1))
