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

Exponents are plain tuples: ``holder_exponent`` gives the combined
exponent q of a tuple, 1/q = sum_u 1/p_u, wherever one is needed, and
owns the exponent domain [1, inf] (``conjugate_exponent`` asks it).
Mixed-norm spaces stack finitely many weighted atom levels on top of
the matrix level, given by a tuple of atom weights per level; the nested
norm of a value tree in an exponent column (one exponent per level)
evaluates one weighted l^p norm per level, with the Schatten norm at the
bottom.

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
    """p' with 1/p + 1/p' = 1, for p in [1, inf]."""
    holder_exponent([p])  # rejects p outside [1, inf]
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


def power_pos(a: np.ndarray, thetas: Sequence[float]) -> list[np.ndarray]:
    """Spectral powers A^theta, one per exponent of ``thetas`` in [0, inf)
    (A^0 = V V* = I), of a positive semidefinite matrix or of each matrix
    of a stack over the last two axes, all from one ``eigh``.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything more
    negative, or a non-Hermitian member, is rejected.
    """
    a = np.asarray(a, dtype=np.complex128)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    if np.any(asym > HERMITIAN_TOL * scale):
        raise ValueError("power_pos needs a Hermitian matrix")
    if not all(0 <= t < math.inf for t in thetas):
        raise ValueError("power exponents must lie in [0, inf)")
    w, v = np.linalg.eigh(a)
    if np.any(w.min(axis=-1, initial=0.0)
              < -POSITIVITY_TOL * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))):
        raise ValueError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    vh = v.conj().swapaxes(-2, -1)
    return [(v * (w ** t)[..., None, :]) @ vh for t in thetas]


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
# Hoelder exponents and mixed norms
# ---------------------------------------------------------------------------

def holder_exponent(ps: Sequence[float]) -> float:
    """The combined exponent q of exponents ``ps`` in [1, inf], 1/q =
    sum_u 1/p_u: an infinite p_u adds nothing, and q = inf when the sum is 0."""
    if not all(1 <= p <= math.inf for p in ps):  # NaN fails too
        raise ValueError(f"exponents {tuple(ps)} must lie in [1, inf]")
    inv = sum(1.0 / p for p in ps)
    return 1.0 / inv if inv else math.inf


def _value_tree(values: np.ndarray, weights: Sequence[Sequence[float]]) -> np.ndarray:
    """``values`` as a value tree over the atom levels of ``weights``:
    ``weights[s-1]`` holds the positive atom weights of level s = 1..S,
    and the tree has shape (len(weights[S-1]), ..., len(weights[0]), N,
    N), outermost level first."""
    if any(min(w, default=0.0) <= 0 for w in weights):
        raise ValueError("atom weights must be positive")
    values = np.asarray(values, dtype=np.complex128)
    atoms = tuple(len(w) for w in reversed(weights))
    if values.ndim < 2 or values.shape != atoms + values.shape[-1:] * 2:
        raise ValueError("value tree shape mismatch")
    return values


def _level_norms(values: np.ndarray, weights: Sequence[Sequence[float]],
                 col: Sequence[float]) -> list[np.ndarray]:
    """Nested norms of every subtree of a value tree, in one pass from the
    leaves up.  Entry s holds the level-s norms, shaped like the value
    tree cut after its level-(s+1) axis: entry 0 the Schatten col[0]
    norm of each leaf, entry S the nested norm of the whole tree.  A
    level's norm is a root of a weighted sum of powers, so its exponent
    must be finite (at inf the sum would read 1 for any nonzero tree)."""
    if len(col) != len(weights) + 1:
        raise ValueError(f"an exponent column has one entry per level, {len(weights) + 1}, "
                         f"not {len(col)}")
    if not all(1 <= p < math.inf for p in col[1:]):
        raise ValueError("atom-level exponents must lie in [1, inf)")
    levels = [schatten_norms(values, col[0])]
    for s in range(1, len(weights) + 1):
        w = np.asarray(weights[s - 1], dtype=float)
        levels.append((levels[-1] ** col[s] @ w) ** (1.0 / col[s]))
    return levels


def nested_norm(values: np.ndarray, weights: Sequence[Sequence[float]],
                column: Sequence[float]) -> float:
    """Nested mixed norm of a value tree (see ``_value_tree``) in the
    exponent ``column`` (p^0..p^S).

    Level s applies the weighted l^{p^s} norm over the level-s atoms to
    the level-(s-1) norms; level 0 is the Schatten p^0 norm.
    """
    return float(_level_norms(_value_tree(values, weights), weights, column)[-1])


def flat_product_norm(values: np.ndarray, weights: Sequence[Sequence[float]],
                      p: float) -> float:
    """L^p norm over the product of all atom levels (Fubini reference)."""
    values = _value_tree(values, weights)
    w = np.array([1.0])
    for level in reversed(weights):
        w = np.kron(w, np.asarray(level, dtype=float))
    norms = schatten_norms(values.reshape((-1,) + values.shape[-2:]), p)
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


def y_norm(e: np.ndarray, ps: Sequence[float],
           budget: int = 10_000, seed: int = 0) -> YNormResult:
    """Dual seminorm of e against the product of the spaces S^{p_u}, one
    for each exponent of ``ps`` (matrix case).

    The analytic value is the Schatten norm with the exponent conjugate
    to q = ``holder_exponent(ps)``, which must be at least 1.  The
    empirical value is the best of ``budget`` random proposals for
    sup |tr(e e_{s(1)} ... e_{s(k)})| over unit e_u and permutations s;
    proposals mix normalized complex Gaussians with factors aligned to
    the SVD of e, which attain the supremum.

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
    ps = [float(p) for p in ps]
    if not ps:
        raise ValueError("need at least one exponent")
    q = holder_exponent(ps)  # pairing exponent
    if q < 1:
        raise ValueError("exponents must have sum 1/p_u <= 1")
    e = np.asarray(e, dtype=np.complex128)
    analytic = schatten_norm(e, conjugate_exponent(q))
    perms = list(itertools.permutations(range(len(ps))))
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
    q = ``holder_exponent(ps)``.

    Requires |A|_{S^q} = 1; the factors multiply back to A and have unit
    S^{p_u} norms.  A factor with p_u = inf is I; an all-inf tuple has
    no power q/p_u, and ``power_pos`` rejects it.
    """
    ps = [float(p) for p in ps]
    q = holder_exponent(ps)
    nrm = schatten_norm(a, q)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ValueError(f"input must have unit S^{q} norm (got {nrm})")
    return power_pos(a, [q / p for p in ps])


def factorize_mixed(values: np.ndarray, weights: Sequence[Sequence[float]],
                    cols: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """Level-by-level factorization of a positive nested simple function.

    ``values`` is a value tree over the atom levels of ``weights`` (see
    ``_value_tree``) with positive semidefinite leaves and unit nested
    norm in the q column, q^s = ``holder_exponent`` of the level-s
    entries of the exponent columns ``cols``.  Returns one value tree
    per column, each of unit nested norm in its column, multiplying back
    to the input pointwise.  Atoms where the function vanishes get zero
    factors.
    """
    if not cols:
        raise ValueError("need at least one exponent column")
    values = _value_tree(values, weights)
    qs = [holder_exponent(ps) for ps in zip(*cols, strict=True)]
    levels = _level_norms(values, weights, qs)
    total = float(levels[-1])
    if abs(total - 1.0) > UNIT_TOL:
        raise ValueError(f"input must have unit nested norm (got {total})")

    # scale[u] at a leaf: the product over levels s of (subtree norm /
    # parent norm)^(q^s/p_u^s); the whole tree counts as norm 1, as the
    # input is unit; a zero subtree gives ratio 0
    S = len(weights)
    scale = [np.ones(levels[0].shape) for _ in cols]
    for s in range(1, S + 1):
        parent = levels[s][..., None] if s < S else 1.0
        ratio = np.divide(levels[s - 1], parent, out=np.zeros_like(levels[s - 1]),
                          where=parent > 0)
        ratio = ratio.reshape(ratio.shape + (1,) * (s - 1))
        for u, col in enumerate(cols):
            scale[u] = scale[u] * ratio ** (qs[s] / col[s])
    outs = [np.zeros_like(values) for _ in cols]
    nz = levels[0] > 0.0
    powers = power_pos(values[nz] / levels[0][nz][:, None, None],
                       [qs[0] / col[0] for col in cols])
    for out, sc, pw in zip(outs, scale, powers):
        out[nz] = sc[nz][:, None, None] * pw
    return outs
