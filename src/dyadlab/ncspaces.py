"""Matrix algebra with trace, Schatten norms, and iterated mixed norms.

The algebra is M_N(C) with the standard (unnormalized) trace.  Schatten
norms are computed from singular values via the Hermitian
eigendecomposition of A*A; a scalar value is a 1x1 matrix.  Mixed-norm
spaces stack finitely many weighted atom levels on top of the matrix
level; the nested norm of a value tree evaluates one weighted l^p norm
per level, with the Schatten norm at the bottom.

The factorization routines split a positive unit-norm element into a
product of unit-norm factors, one per exponent, level by level: scalar
mass carries the power q/p_u and the direction is factored recursively,
with spectral powers doing the matrix-level split.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

POSITIVITY_TOL = 1e-10
HERMITIAN_TOL = 1e-10
# largest proposal array of one chunk of the y_norm search, in bytes
_CHUNK_BYTES = 1 << 17


# ---------------------------------------------------------------------------
# trace and Schatten norms
# ---------------------------------------------------------------------------

def trace(a: np.ndarray) -> complex:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("trace needs a square matrix")
    return complex(np.trace(a))


def schatten_norm(a: np.ndarray, p: float) -> float:
    """l^p norm of the singular values; p = inf gives the operator norm."""
    return float(schatten_norms(a, p))


def schatten_norms(stack: np.ndarray, p: float) -> np.ndarray:
    """Schatten norms of a stack of matrices (batched); the singular
    values come from the spectrum of A*A, clipped at zero."""
    if p < 1:
        raise ValueError("Schatten exponent must be >= 1")
    a = np.asarray(stack, dtype=np.complex128)
    w = np.linalg.eigvalsh(np.swapaxes(a.conj(), -1, -2) @ a)
    s = np.sqrt(np.clip(w, 0.0, None))
    if np.isinf(p):
        return s.max(axis=-1)
    return (s ** p).sum(axis=-1) ** (1.0 / p)


def value_norms(values: np.ndarray, value_ndim: int, p: float) -> np.ndarray:
    """|v|_{S^p} of each value v of an array whose last ``value_ndim``
    axes hold one value: 0 for scalars, 2 for matrices.  A scalar is a
    1x1 matrix, so its S^p norm is |v| for every p >= 1."""
    if value_ndim == 2:
        return schatten_norms(values, p)
    if value_ndim != 0:
        raise ValueError("values must be scalars or matrices")
    if p < 1:
        raise ValueError("Schatten exponent must be >= 1")
    return np.abs(values)


def conjugate_exponent(p: float) -> float:
    if np.isinf(p):
        return 1.0
    if p == 1:
        return math.inf
    return p / (p - 1.0)


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    a = np.asarray(a)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return bool(np.abs(a - a.conj().T).max(initial=0.0) <= tol * scale)


def power_pos(a: np.ndarray, theta: float) -> np.ndarray:
    """Spectral power A^theta of a positive semidefinite matrix.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything more
    negative, or a non-Hermitian input, is rejected.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not is_hermitian(a):
        raise ValueError("power_pos needs a Hermitian matrix")
    if theta <= 0:
        raise ValueError("exponent must be positive")
    w, v = np.linalg.eigh(a)
    if w.min(initial=0.0) < -POSITIVITY_TOL * max(1.0, float(np.abs(w).max(initial=0.0))):
        raise ValueError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    return (v * (w ** theta)) @ v.conj().T


def schatten_dual_maximizer(a: np.ndarray, p: float) -> np.ndarray:
    """Unit-S^p matrix B with tr(AB) = |A|_{p'} (built from the SVD of A).

    Realizes the duality |A|_{p'} = sup { |tr(AB)| : |B|_p = 1 }.
    """
    a = np.asarray(a, dtype=np.complex128)
    u, s, vh = np.linalg.svd(a)
    if s.max(initial=0.0) <= 0.0:
        b = np.zeros_like(a)
        b[0, 0] = 1.0
        return b
    if np.isinf(p):
        d = np.ones_like(s)
    elif p == 1:
        d = (s == s.max()).astype(float)
        d /= d.sum()
    else:
        pp = conjugate_exponent(p)
        d = s ** (pp / p)
        d /= (d ** p).sum() ** (1.0 / p)
    return vh.conj().T @ np.diag(d) @ u.conj().T


# ---------------------------------------------------------------------------
# exponent tables and mixed spaces
# ---------------------------------------------------------------------------

HOLDER_TOL = 1e-12


@dataclass(frozen=True)
class ExponentTable:
    """Exponents p[j][s] for j = 1..m and levels s = 0..S.

    Each column s must satisfy sum_j 1/p[j][s] = 1 with all entries in
    (1, inf).  Index sets J select sub-tuples; ``q_col`` and ``p_col``
    give the combined exponent 1/q_J = sum_{j in J} 1/p_j and its
    complement 1/p_J = 1 - 1/q_J, per level.
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

    def p_col(self, J: Sequence[int]) -> tuple[float, ...]:
        out = []
        for q in self.q_col(J):
            inv = 1.0 - 1.0 / q
            out.append(math.inf if inv == 0 else 1.0 / inv)
        return tuple(out)

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "S": self.S,
                           "p": [list(r) for r in self.p]}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExponentTable":
        obj = json.loads(text)
        tab = cls(tuple(tuple(float(x) for x in row) for row in obj["p"]))
        if tab.m != obj["m"] or tab.S != obj["S"]:
            raise ValueError("declared sizes do not match the exponent array")
        return tab


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


def _nested_norm(values: np.ndarray, weights_desc: list[np.ndarray],
                 exps_desc: list[float], p0: float) -> float:
    """Recursive nested norm; weights/exponents listed outermost first."""
    if not weights_desc:
        return schatten_norm(values, p0)
    w = weights_desc[0]
    p = exps_desc[0]
    if values.shape[0] != len(w):
        raise ValueError("value tree shape does not match the atom weights")
    sub = np.array([_nested_norm(values[t], weights_desc[1:], exps_desc[1:], p0)
                    for t in range(len(w))])
    return float((w @ sub ** p) ** (1.0 / p))


def nested_norm(values: np.ndarray, space: MixedSpace, j: int,
                column: Sequence[float] | None = None) -> float:
    """Nested mixed norm of a value tree in slot j of the table.

    Level s applies the weighted l^{p_j^s} norm over the level-s atoms
    to the level-(s-1) norms; level 0 is the Schatten p_j^0 norm.  An
    explicit exponent ``column`` (p^0..p^S) overrides slot j.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != space.value_shape():
        raise ValueError("value tree shape mismatch")
    col = tuple(column) if column is not None else space.table.column(j)
    weights_desc = [np.asarray(space.weights[s - 1], dtype=float)
                    for s in range(space.S, 0, -1)]
    exps_desc = [col[s] for s in range(space.S, 0, -1)]
    return _nested_norm(values, weights_desc, exps_desc, col[0])


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


def _aligned_factors(b: np.ndarray, q: float, ps: Sequence[float]) -> list[np.ndarray]:
    """Split B = U diag(s) V* into unit-S^{p_u} factors U diag(s^{q/p_u}) U*,
    the last one closing with V*; for unit-S^q input the product is B."""
    u, s, vh = np.linalg.svd(b)
    out = []
    for i, p in enumerate(ps):
        d = s ** (q / p)
        nrm = (d ** p).sum() ** (1.0 / p)
        if nrm > 0:
            d = d / nrm
        right = vh if i == len(ps) - 1 else u.conj().T
        out.append((u * d) @ right)
    return out


def y_norm(e: np.ndarray, J: Sequence[int], tab: ExponentTable,
           budget: int = 10_000, seed: int = 0) -> YNormResult:
    """Dual seminorm of e against the spaces indexed by J (matrix case).

    The analytic value is the Schatten norm with the complementary
    exponent p_J^0.  The empirical value is the best of ``budget``
    random proposals for sup |tr(e e_{s(1)} ... e_{s(k)})| over unit
    e_u and permutations s; proposals mix normalized complex Gaussians
    with factors aligned to the SVD of e, which attain the supremum.

    The aligned proposal is the first.  ``_best_gaussian`` scores the
    other budget - 1 in chunks of arrays: one normal draw per chunk, one
    batched normalization per slot and one batched matmul chain per
    permutation.  Its oracle ``_best_gaussian_per_draw`` draws,
    normalizes and scores one proposal at a time; the two agree to the
    last bit of each normalization (array and scalar powers may round
    differently), within 1e-12.
    """
    if tab.S != 0:
        raise ValueError("y_norm handles the matrix case (S = 0) only")
    J = sorted(set(J))
    if not J:
        raise ValueError("index set must be non-empty")
    e = np.asarray(e, dtype=np.complex128)
    ps = [tab.column(j)[0] for j in J]
    q = 1.0 / sum(1.0 / p for p in ps)          # pairing exponent
    inv_dual = 1.0 - 1.0 / q
    p_dual = math.inf if inv_dual == 0 else 1.0 / inv_dual
    analytic = schatten_norm(e, p_dual)

    perms = list(itertools.permutations(range(len(J))))
    # SVD-aligned candidate: unit-S^q maximizer of tr(eB), factored
    aligned = _best_pairing(e, [_aligned_factors(schatten_dual_maximizer(e, q), q, ps)], perms)
    return YNormResult(analytic, max(aligned, _best_gaussian(e, ps, perms, budget - 1, seed)))


def _best_gaussian(e: np.ndarray, ps: Sequence[float], perms: list,
                   draws: int, seed: int) -> float:
    """Best pairing |tr(e e_{s(1)} ... e_{s(k)})| over ``draws`` proposals
    of normalized complex Gaussians, unit in S^{p_u} for slot u.

    The proposals come in chunks of at most ``_CHUNK_BYTES``: one
    ``standard_normal((B, k, 2, N, N))`` array per chunk, real parts at
    [..., 0, :, :] and imaginary parts at [..., 1, :, :] (the stream of
    one draw at a time), one ``schatten_norms`` call per slot, and one
    batched matmul chain and trace per permutation.
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
        for u, p in enumerate(ps):
            nrm = schatten_norms(g[:, u], p)
            pos = nrm > 0
            g[pos, u] /= nrm[pos, None, None]
            g[~pos, u] = eye
        for perm in perms:
            prod = e
            for i in perm:
                prod = prod @ g[:, i]
            best = max(best, float(np.abs(np.trace(prod, axis1=-2, axis2=-1)).max()))
    return best


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
            prod = e
            for i in perm:
                prod = prod @ factors[i]
            best = max(best, abs(np.trace(prod)))
    return best


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

UNIT_TOL = 1e-8


def factorize_positive(a: np.ndarray, q: float, ps: Sequence[float]) -> list[np.ndarray]:
    """Split a positive unit-S^q matrix into A^{q/p_u} factors.

    Requires sum_u 1/p_u = 1/q and |A|_{S^q} = 1; the factors multiply
    back to A and have unit S^{p_u} norms.
    """
    ps = [float(p) for p in ps]
    if abs(sum(1.0 / p for p in ps) - 1.0 / q) > 1e-12:
        raise ValueError("exponents do not sum to 1/q")
    nrm = schatten_norm(a, q)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ValueError(f"input must have unit S^{q} norm (got {nrm})")
    return [power_pos(a, q / p) for p in ps]


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
    total = nested_norm(values, space, J[0], column=q_col)
    if abs(total - 1.0) > UNIT_TOL:
        raise ValueError(f"input must have unit nested norm (got {total})")

    weights_desc = [np.asarray(space.weights[s - 1], dtype=float)
                    for s in range(space.S, 0, -1)]

    def split(tree: np.ndarray, s: int) -> list[np.ndarray]:
        if s == 0:
            if np.abs(tree).max(initial=0.0) == 0.0:
                return [np.zeros_like(tree) for _ in J]
            return [power_pos(tree, q_col[0] / cols[u][0]) for u in range(len(J))]
        outs = [np.zeros_like(tree) for _ in J]
        for t in range(tree.shape[0]):
            r = _nested_norm(tree[t], weights_desc[space.S - s + 1:],
                             [q_col[x] for x in range(s - 1, 0, -1)], q_col[0])
            if r == 0.0:
                continue
            subs = split(tree[t] / r, s - 1)
            for u in range(len(J)):
                outs[u][t] = (r ** (q_col[s] / cols[u][s])) * subs[u]
        return outs

    return split(values, space.S)
