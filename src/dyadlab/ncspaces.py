"""The value algebra: matrices with trace, Schatten norms, L^p(S^q) norms
of functions, and iterated mixed norms.

The algebra is M_N(C) with the standard (unnormalized) trace.  ``chain``
is the one product of values: a multiply-add over the inner index,
broadcast over the leading axes of stacks.  Schatten norms need no
per-matrix LAPACK call where a closed form exists: the S^2 norm is the
Frobenius norm, and a 2x2 matrix has its singular values in closed
form; any other matrix takes them from a batched SVD.  A scalar value
is a 1x1 matrix, whose one singular value |a| is its norm at every p.
``lp_norm`` is the L^p(S^q) norm of one function's values, the power
mean of its cells' Schatten norms, and ``lp_norms`` that of each row of
a stack.  This module imports no other dyadlab module.

Mixed-norm spaces stack finitely many weighted atom levels on top of
the matrix level; the nested norm of a value tree evaluates one weighted
l^p norm per level, with the Schatten norm at the bottom.

Duality and factorization are spectral splits: ``dual_maximizers``
takes the unit-S^p B with tr(AB) = |A|_{p'} of each matrix of a stack
from one batched SVD, and ``power_pos`` every power of a factorization
from one ``eigh``; the factorizations of mixed elements scale them by
the subtree norms of the same bottom-up pass, to the powers q^s/p_u^s.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

POSITIVITY_TOL = 1e-10
HERMITIAN_TOL = 1e-10
# largest proposal array of one chunk of the y_norm search, in bytes
_CHUNK_BYTES = 1 << 17


# ---------------------------------------------------------------------------
# Schatten norms, L^p(S^q) norms and the product
# ---------------------------------------------------------------------------

def schatten_norm(a: np.ndarray, p: float) -> float:
    """l^p norm of the singular values; p = inf gives the operator norm."""
    return float(schatten_norms(a, p))


def schatten_norms(stack: np.ndarray, p: float) -> np.ndarray:
    """Schatten norms of a stack of matrices (batched) over the last two
    axes.  A 1x1 matrix (a scalar) has one singular value, |a|, its norm
    at every p.  At p = 2 any other shape takes the Frobenius norm.
    Otherwise a 2x2 stack takes its singular values in closed form
    (``_singular_values_2x2``), and any other shape from a batched SVD."""
    if p < 1:
        raise ValueError("Schatten exponent must be >= 1")
    a = np.asarray(stack, dtype=np.complex128)
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    if p == 2:
        return np.sqrt((a.real ** 2 + a.imag ** 2).sum(axis=(-2, -1)))
    if a.shape[-2:] == (2, 2):
        s = _singular_values_2x2(a)
    else:
        s = np.linalg.svd(a, compute_uv=False)
    if np.isinf(p):
        return s.max(axis=-1)
    return (s ** p).sum(axis=-1) ** (1.0 / p)


def _singular_values_2x2(a: np.ndarray) -> np.ndarray:
    """Singular values (s_max, s_min) of a stack of 2x2 matrices, last axis.

    With A*A = [[c0, q], [conj(q), c1]], s_max^2 + s_min^2 = c0 + c1 and
    s_max^2 - s_min^2 = hypot(c0 - c1, 2|q|), a sum of squares, so s_max
    keeps full relative accuracy even when the two values are equal
    (sqrt(F^4 - 4 D^2) loses half the digits there).  s_min = |det A| /
    s_max is accurate at rank one, where the spectrum of A*A is not.  The
    intermediates stay within a factor 2 of the sum of the squared
    entries.
    """
    sq = a.real ** 2 + a.imag ** 2
    c0 = sq[..., 0, 0] + sq[..., 1, 0]
    c1 = sq[..., 0, 1] + sq[..., 1, 1]
    q = a[..., 0, 0].conj() * a[..., 0, 1] + a[..., 1, 0].conj() * a[..., 1, 1]
    s_max = np.sqrt((c0 + c1 + np.hypot(c0 - c1, 2.0 * np.abs(q))) / 2.0)
    det = np.abs(a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])
    s_min = np.divide(det, s_max, out=np.zeros_like(det), where=s_max > 0)
    return np.stack([s_max, s_min], axis=-1)


def scalar_pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e entry by entry with the scalar (C library) power.

    numpy's array power may take a SIMD path that rounds differently in
    the last bit, so a batch computed with it would not match the same
    values computed one at a time.
    """
    return np.array([v ** e for v in np.asarray(x, dtype=float).tolist()])


def power_mean(x: np.ndarray, p: float) -> np.ndarray:
    """(mean of x^p)^(1/p) over the last axis of a nonnegative array; the
    max (0 for no entries) at p = inf.  The root is taken entry by entry
    with the scalar power (see ``scalar_pow``)."""
    x = np.asarray(x, dtype=float)
    if np.isinf(p):
        return x.max(axis=-1, initial=0.0)
    if p <= 0:
        raise ValueError("exponent must be positive")
    means = np.mean(x ** p, axis=-1)
    return scalar_pow(means.ravel(), 1.0 / p).reshape(means.shape)


def lp_norm(values: np.ndarray, p: float, schatten: float) -> float:
    """L^p norm of x -> |f(x)|_{S^schatten} over the cells of one function
    f, given by its ``values``: the cells' axes, then one N x N value (a
    grid or torus function's ``values``, or a grid function's
    ``aligned()``), each cell of equal weight."""
    return float(lp_norms(np.asarray(values)[None], p, schatten)[0])


def lp_norms(stack: np.ndarray, p: float, schatten: float) -> np.ndarray:
    """``lp_norm`` of each row of a stack of functions: axis 0 runs over
    the functions, the last two axes hold one N x N value and the axes
    between are the cells.  Each row's norm is bit for bit its norm
    alone."""
    stack = np.asarray(stack)
    norms = schatten_norms(stack.reshape((-1,) + stack.shape[-2:]), schatten)
    return power_mean(norms.reshape(len(stack), math.prod(stack.shape[1:-2])), p)


def conjugate_exponent(p: float) -> float:
    if np.isinf(p):
        return 1.0
    if p == 1:
        return math.inf
    return p / (p - 1.0)


def chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix product of ``mats`` in list order, left to right: the one
    product of values.  Stacks (..., N, N) multiply batched and broadcast
    over their leading axes; shapes other than square N x N raise."""
    return functools.reduce(_product, mats)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b as a multiply-add over the inner index: elementwise passes over
    the whole stack, not one BLAS call per small matrix."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or a.shape[-2:] != b.shape[-2:] or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"cannot multiply values of shapes {a.shape} and {b.shape}")
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def power_pos(a: np.ndarray, theta: float | list[float]):
    """Spectral power A^theta of a positive semidefinite matrix, or of each
    matrix of a stack over the last two axes.

    A list of exponents gives the list of powers, all from one ``eigh``.
    Eigenvalues in [-1e-10, 0) are clipped to zero; anything more
    negative, or a non-Hermitian member, is rejected.
    """
    a = np.asarray(a, dtype=np.complex128)
    thetas = theta if isinstance(theta, list) else [theta]
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    if np.any(asym > HERMITIAN_TOL * scale):
        raise ValueError("power_pos needs a Hermitian matrix")
    if min(thetas) <= 0:
        raise ValueError("exponent must be positive")
    w, v = np.linalg.eigh(a)
    if np.any(w.min(axis=-1, initial=0.0)
              < -POSITIVITY_TOL * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))):
        raise ValueError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    vh = v.conj().swapaxes(-2, -1)
    powers = [(v * (w ** t)[..., None, :]) @ vh for t in thetas]
    return powers if isinstance(theta, list) else powers[0]


def dual_maximizers(stack: np.ndarray, p: float) -> np.ndarray:
    """For each matrix A of a stack (batched, as ``schatten_norms``), the
    unit-S^p matrix B with tr(AB) = |A|_{p'} = sup |tr(AB)| over unit B."""
    v, d, uh = _dual_split(stack, p)
    return (v * d[..., None, :]) @ uh


def _dual_split(stack: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, d, U*) of each A = U diag(s) V* of a stack, from one batched
    SVD, with B = V diag(d) U* the dual maximizer: d is all ones at p =
    inf, the tied largest singular values share the unit weight at p =
    1, and d ~ s^(p'/p) otherwise.  A zero matrix gets B = E_11."""
    u, s, vh = np.linalg.svd(np.asarray(stack, dtype=np.complex128))
    zero = s[..., 0] <= 0.0  # A = 0 splits as I diag(e_1) I
    eye = np.eye(s.shape[-1])
    u[zero], vh[zero], s[zero] = eye, eye, eye[0]
    if np.isinf(p):
        d = np.where(zero[..., None], s, 1.0)
    elif p == 1:
        d = (s == s[..., :1]).astype(float)
        d /= d.sum(axis=-1, keepdims=True)
    else:
        d = s ** (conjugate_exponent(p) / p)
        d /= (d ** p).sum(axis=-1, keepdims=True) ** (1.0 / p)
    return vh.conj().swapaxes(-2, -1), d, u.conj().swapaxes(-2, -1)


# ---------------------------------------------------------------------------
# exponent tables and mixed spaces
# ---------------------------------------------------------------------------

HOLDER_TOL = 1e-12


@dataclass(frozen=True)
class ExponentTable:
    """Exponents p[j][s] for j = 1..m and levels s = 0..S.

    Each column s must satisfy sum_j 1/p[j][s] = 1 with all entries in
    (1, inf).  Index sets J select sub-tuples; ``q_col`` gives the
    combined exponent 1/q_J = sum_{j in J} 1/p_j per level.
    """

    p: tuple[tuple[float, ...], ...]  # p[j-1][s]

    def __post_init__(self):
        if not self.p or not self.p[0]:
            raise ValueError("empty exponent table")
        cols = len(self.p[0])
        if any(len(row) != cols for row in self.p):
            raise ValueError("ragged exponent table")
        for row in self.p:
            for x in row:
                if not (1.0 < x < math.inf):
                    raise ValueError("exponents must lie in (1, inf)")
        for s in range(cols):
            tot = sum(1.0 / row[s] for row in self.p)
            if abs(tot - 1.0) > HOLDER_TOL * len(self.p):
                raise ValueError(f"column {s} is not a Holder tuple (sum 1/p = {tot})")

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def S(self) -> int:
        return len(self.p[0]) - 1

    def column(self, j: int) -> tuple[float, ...]:
        """Exponent column (p_j^0, ..., p_j^S) of space j (1-based)."""
        return self.p[j - 1]

    def q_col(self, J: Sequence[int]) -> tuple[float, ...]:
        J = sorted(set(J))
        if not J or any(not 1 <= j <= self.m for j in J):
            raise ValueError("bad index set")
        out = []
        for s in range(self.S + 1):
            inv = sum(1.0 / self.p[j - 1][s] for j in J)
            out.append(1.0 / inv)
        return tuple(out)


def holder_tuple(ps: Sequence[float]) -> ExponentTable:
    """Single-level (S=0) table from a Holder tuple of exponents."""
    return ExponentTable(tuple((float(p),) for p in ps))


@dataclass(frozen=True)
class MixedSpace:
    """Finite weighted atom levels over M_N(C).

    ``weights[s-1]`` holds the atom weights of level s = 1..S; value
    trees are arrays of shape (len(weights[S-1]), ..., len(weights[0]),
    N, N), outermost level first.
    """

    weights: tuple[tuple[float, ...], ...]
    N: int
    table: ExponentTable

    def __post_init__(self):
        if len(self.weights) != self.table.S:
            raise ValueError("weight levels do not match the exponent table depth")
        for w in self.weights:
            if not w or any(x <= 0 for x in w):
                raise ValueError("atom weights must be positive")

    @property
    def S(self) -> int:
        return len(self.weights)

    def value_shape(self) -> tuple[int, ...]:
        return tuple(len(self.weights[s - 1]) for s in range(self.S, 0, -1)) + (self.N, self.N)


def _level_norms(values: np.ndarray, space: MixedSpace,
                 col: Sequence[float]) -> list[np.ndarray]:
    """Nested norms of every subtree of a value tree, in one pass from the
    leaves up.  Entry s holds the level-s norms, shaped like the value
    tree cut after its level-(s+1) axis: entry 0 the Schatten col[0]
    norm of each leaf, entry S the nested norm of the whole tree."""
    levels = [schatten_norms(values, col[0])]
    for s in range(1, space.S + 1):
        w = np.asarray(space.weights[s - 1], dtype=float)
        levels.append((levels[-1] ** col[s] @ w) ** (1.0 / col[s]))
    return levels


def nested_norm(values: np.ndarray, space: MixedSpace, column: Sequence[float]) -> float:
    """Nested mixed norm of a value tree in the exponent ``column``
    (p^0..p^S), such as ``space.table.column(j)`` or ``space.table.q_col(J)``.

    Level s applies the weighted l^{p^s} norm over the level-s atoms to
    the level-(s-1) norms; level 0 is the Schatten p^0 norm.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != space.value_shape():
        raise ValueError("value tree shape mismatch")
    return float(_level_norms(values, space, column)[-1])


def flat_product_norm(values: np.ndarray, space: MixedSpace, p: float) -> float:
    """L^p norm over the product of all atom levels (Fubini reference)."""
    values = np.asarray(values, dtype=np.complex128)
    leaves = values.reshape((-1, space.N, space.N))
    w = np.array([1.0])
    for s in range(space.S, 0, -1):
        w = np.kron(w, np.asarray(space.weights[s - 1], dtype=float))
    norms = schatten_norms(leaves, p)
    return float((w @ norms ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# dual-norm construction
# ---------------------------------------------------------------------------

class YNormResult(NamedTuple):
    analytic: float
    empirical: float


def _random_unit(rng, n: int, p: float) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    nrm = schatten_norm(g, p)
    return g / nrm if nrm > 0 else np.eye(n, dtype=np.complex128)


def _aligned_factors(e: np.ndarray, q: float, ps: Sequence[float]) -> list[np.ndarray]:
    """Split the unit-S^q maximizer B = V diag(d) U* of tr(eB), from the
    SVD of e, into unit-S^{p_u} factors V diag(d^{q/p_u}) V*, the last
    one closing with U*; the product is B."""
    v, d, uh = _dual_split(e, q)
    rights = [v.conj().T] * (len(ps) - 1) + [uh]
    return [(v * d ** (q / p)) @ right for p, right in zip(ps, rights)]


def y_norm(e: np.ndarray, J: Sequence[int], tab: ExponentTable,
           budget: int = 10_000, seed: int = 0) -> YNormResult:
    """Dual seminorm of e against the spaces indexed by J (matrix case).

    The analytic value is the Schatten norm with the exponent conjugate
    to q_J^0.  The empirical value is the best of ``budget`` random
    proposals for sup |tr(e e_{s(1)} ... e_{s(k)})| over unit e_u and
    permutations s; proposals mix normalized complex Gaussians with
    factors aligned to the SVD of e, which attain the supremum.

    The aligned proposal is the first.  ``_best_gaussian`` scores the
    other budget - 1 in chunks of arrays: one normal draw per chunk, then
    one batched normalization per slot and one ``chain`` of stacks per
    permutation for only the proposals that a Frobenius bound of their
    Schatten norms leaves able to beat the best so far; the result is
    the same float as with every proposal normalized.  Its oracle
    ``_best_gaussian_per_draw`` draws, normalizes and scores one
    proposal at a time; the two agree to the last bit of each
    normalization and score (array and scalar powers and absolute values
    may round differently), within 1e-12.
    """
    if tab.S != 0:
        raise ValueError("y_norm handles the matrix case (S = 0) only")
    J = sorted(set(J))
    if not J:
        raise ValueError("index set must be non-empty")
    e = np.asarray(e, dtype=np.complex128)
    ps = [tab.column(j)[0] for j in J]
    q = tab.q_col(J)[0]  # pairing exponent
    analytic = schatten_norm(e, conjugate_exponent(q))
    perms = list(itertools.permutations(range(len(J))))
    aligned = _best_pairing(e, [_aligned_factors(e, q, ps)], perms)
    return YNormResult(analytic, max(aligned, _best_gaussian(e, ps, perms, budget - 1, seed)))


def _best_gaussian(e: np.ndarray, ps: Sequence[float], perms: list,
                   draws: int, seed: int) -> float:
    """Best pairing |tr(e e_{s(1)} ... e_{s(k)})| over ``draws`` proposals
    of normalized complex Gaussians, unit in S^{p_u} for slot u.

    The proposals come in chunks of at most ``_CHUNK_BYTES``: one
    ``standard_normal((B, k, 2, N, N))`` array per chunk, real parts at
    [..., 0, :, :] and imaginary parts at [..., 1, :, :] (the stream of
    one draw at a time).  A proposal's best trace over the permutations,
    unnormalized, over prod_u N^min(0, 1/p_u - 1/2) |g_u|_F (at most
    prod_u |g_u|_{S^{p_u}}) bounds its score, so only proposals whose
    bound reaches the running best, less 1e-9 for rounding, are
    normalized (one ``schatten_norms`` call per slot) and scored (one
    ``chain`` of stacks and trace per permutation), each row as in the
    whole chunk: the best is the same float as without the bound.
    ``_best_gaussian_per_draw`` is its oracle.
    """
    rng = np.random.default_rng(seed)
    n, k = e.shape[0], len(ps)
    rows = max(1, _CHUNK_BYTES // (k * n * n * 16))
    eye = np.eye(n, dtype=np.complex128)
    best = 0.0
    for start in range(0, max(0, draws), rows):
        x = rng.standard_normal((min(rows, draws - start), k, 2, n, n))
        g = x[:, :, 0] + 1j * x[:, :, 1]
        den = math.prod(n ** min(0.0, 1.0 / p - 0.5) * schatten_norms(g[:, u], 2)
                        for u, p in enumerate(ps))
        g = g[_best_traces(e, g, perms) >= best * (1 - 1e-9) * den]
        for u, p in enumerate(ps):
            nrm = schatten_norms(g[:, u], p)
            pos = nrm > 0
            g[pos, u] /= nrm[pos, None, None]
            g[~pos, u] = eye
        best = max(best, float(_best_traces(e, g, perms).max(initial=0.0)))
    return best


def _best_traces(e: np.ndarray, g: np.ndarray, perms: list) -> np.ndarray:
    """max over permutations s of |tr(e g_{s(1)} ... g_{s(k)})| for each
    proposal (row) of a (B, k, N, N) stack."""
    return np.max([np.abs(np.trace(chain([e, *(g[:, i] for i in perm)]), axis1=-2, axis2=-1))
                   for perm in perms], axis=0)


def _best_gaussian_per_draw(e: np.ndarray, ps: Sequence[float], perms: list,
                            draws: int, seed: int) -> float:
    """Oracle of ``_best_gaussian``: one proposal drawn, normalized and
    scored at a time."""
    rng = np.random.default_rng(seed)
    return _best_pairing(e, [[_random_unit(rng, e.shape[0], p) for p in ps]
                             for _ in range(max(0, draws))], perms)


def _best_pairing(e, candidate_lists, perms) -> float:
    best = 0.0
    for factors in candidate_lists:
        for perm in perms:
            best = max(best, abs(np.trace(chain([e, *(factors[i] for i in perm)]))))
    return best


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

UNIT_TOL = 1e-8


def factorize_positive(a: np.ndarray, ps: Sequence[float]) -> list[np.ndarray]:
    """Split a positive unit-S^q matrix into A^{q/p_u} factors, where
    1/q = sum_u 1/p_u.

    Requires |A|_{S^q} = 1; the factors multiply back to A and have unit
    S^{p_u} norms.
    """
    ps = [float(p) for p in ps]
    q = 1.0 / sum(1.0 / p for p in ps)
    nrm = schatten_norm(a, q)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ValueError(f"input must have unit S^{q} norm (got {nrm})")
    return power_pos(a, [q / p for p in ps])


def factorize_mixed(values: np.ndarray, J: Sequence[int],
                    space: MixedSpace) -> list[np.ndarray]:
    """Level-by-level factorization of a positive nested simple function.

    ``values`` must have unit nested norm in the combined q_J column
    and positive semidefinite leaves.  Returns one value tree per index
    in J, each of unit nested norm in its own column, multiplying back
    to the input pointwise.  Atoms where the function vanishes get zero
    factors.
    """
    J = sorted(set(J))
    if not J:
        raise ValueError("index set must be non-empty")
    tab = space.table
    q_col = tab.q_col(J)
    cols = [tab.column(j) for j in J]
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != space.value_shape():
        raise ValueError("value tree shape mismatch")
    levels = _level_norms(values, space, q_col)
    total = float(levels[-1])
    if abs(total - 1.0) > UNIT_TOL:
        raise ValueError(f"input must have unit nested norm (got {total})")

    # scale[u] at a leaf: the product over levels s of (subtree norm /
    # parent norm)^(q^s/p_u^s); the whole tree counts as norm 1, as the
    # input is unit; a zero subtree gives ratio 0
    scale = [np.ones(levels[0].shape) for _ in J]
    for s in range(1, space.S + 1):
        parent = levels[s][..., None] if s < space.S else 1.0
        ratio = np.divide(levels[s - 1], parent, out=np.zeros_like(levels[s - 1]),
                          where=parent > 0)
        ratio = ratio.reshape(ratio.shape + (1,) * (s - 1))
        for u in range(len(J)):
            scale[u] = scale[u] * ratio ** (q_col[s] / cols[u][s])
    outs = [np.zeros_like(values) for _ in J]
    nz = levels[0] > 0.0
    powers = power_pos(values[nz] / levels[0][nz][:, None, None],
                       [q_col[0] / col[0] for col in cols])
    for out, sc, pw in zip(outs, scale, powers):
        out[nz] = sc[nz][:, None, None] * pw
    return outs
