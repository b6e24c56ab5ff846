"""Floating-point models of quaternionic hyperbolic space.

Quaternions are rows [w, x, y, z] of a numpy array; vectors in H^{m,1}
have shape (m+1, 4) and matrices (m+1, m+1, 4).  The module covers the
signature-(m,1) Hermitian pairing, the distance and metric formulas on
negative lines, membership tests for the isometry group and its Lie
algebra, an explicit ordered basis of that algebra with brackets and
Killing values, and the Lie-triple classification of tangent subspaces
into the totally geodesic types: totally real, totally complex, totally
quaternionic, and real 3-spaces of curvature -4 inside a quaternionic
line (Chen-Nagano, Duke Math. J. 45, 1978).

Everything here is numerical; exact arithmetic lives in the other
modules.  Tolerances are module constants.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from functools import lru_cache

from .errors import PreconditionError
from .records import Record, set_field


def _lazy_import(name: str):
    """``name``, loaded, or lazy by the ``importlib.util.LazyLoader`` recipe."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# numpy runs once a function here reads ``np``: the arithmetic CLI never does
np = _lazy_import("numpy")

#: membership in the isometry group / Lie algebra
GROUP_TOLERANCE = 1e-9
#: invariance properties checked on random data
INVARIANCE_TOLERANCE = 1e-8
#: linear independence and closure of subspace spans
SPAN_TOLERANCE = 1e-8
#: how far below 1 the distance argument may fall before it is an error
CLAMP_TOLERANCE = 1e-12
ZERO_BAND = 64.0 * sys.float_info.epsilon
#: largest m the consolidated report accepts (its cost grows like m^4)
MAX_REPORT_M = 16
#: most samples the report accepts (its memory grows by about 2 KB a sample)
MAX_REPORT_SAMPLES = 10_000

TOTALLY_REAL = "totally-real"
TOTALLY_COMPLEX = "totally-complex"
TOTALLY_QUATERNIONIC = "totally-quaternionic"
#: a real 3-space of curvature -4 inside a quaternionic line, u.span(i, j, k)
REAL_3_SPACE_IN_LINE = "real-3-space-in-line"
NOT_LIE_TRIPLE = "not-lie-triple"

#: The totally geodesic types, each with its rule on k = dim W and
#: r = dim_R(W.H) (the real span of W under right multiplication by
#: 1, i, j, k), and its standard span: the first ``axes`` coordinate axes
#: (``None``: the ``dim`` asked for) times the listed units (indices
#: into 1, i, j, k).
GEODESIC_TYPES = {
    TOTALLY_REAL: (lambda k, r: r == 4 * k, None, (0,)),
    TOTALLY_COMPLEX: (lambda k, r: r == 2 * k, 1, (0, 1)),
    TOTALLY_QUATERNIONIC: (lambda k, r: r == k, 2, (0, 1, 2, 3)),
    REAL_3_SPACE_IN_LINE: (lambda k, r: (k, r) == (3, 4), 1, (1, 2, 3)),
}


# ---------------------------------------------------------------------------
# quaternion arithmetic on trailing axes


def quat(w=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    return np.array([w, x, y, z], dtype=float)


@lru_cache(maxsize=None)
def _quat_units() -> tuple:
    """The rows 1, i, j, k."""
    return tuple(np.eye(4))


def __getattr__(name: str):
    """QUAT_ONE, QUAT_I, QUAT_J, QUAT_K and QUAT_UNITS, built on first read."""
    names = ("QUAT_ONE", "QUAT_I", "QUAT_J", "QUAT_K", "QUAT_UNITS")
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    units = _quat_units()
    return (*units, units)[names.index(name)]


def quat_conj(q: np.ndarray) -> np.ndarray:
    out = np.array(q, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def _hamilton(p, q, mul) -> np.ndarray:
    """Hamilton product of quaternion arrays (components on the last
    axis), with ``mul`` combining components: ``np.multiply`` for
    entrywise products, ``np.matmul`` for quaternion matrices."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    w1, x1, y1, z1 = (p[..., k] for k in range(4))
    w2, x2, y2, z2 = (q[..., k] for k in range(4))
    return np.stack(
        [
            mul(w1, w2) - mul(x1, x2) - mul(y1, y2) - mul(z1, z2),
            mul(w1, x2) + mul(x1, w2) + mul(y1, z2) - mul(z1, y2),
            mul(w1, y2) - mul(x1, z2) + mul(y1, w2) + mul(z1, x2),
            mul(w1, z2) + mul(x1, y2) - mul(y1, x2) + mul(z1, w2),
        ],
        axis=-1,
    )


def quat_mul(p, q) -> np.ndarray:
    """Quaternion product, broadcasting over leading axes."""
    return _hamilton(p, q, np.multiply)


def quat_norm_sq(q) -> float:
    q = np.asarray(q, dtype=float)
    return float((q * q).sum(axis=-1)) if q.ndim == 1 else (q * q).sum(axis=-1)


def mat_mul(A, B) -> np.ndarray:
    """Product of quaternion matrices via real component matmuls; an
    (n, 4) vector B gives the matrix-vector product."""
    return _hamilton(A, B, np.matmul)


def mat_conj_transpose(A) -> np.ndarray:
    """conj(A)^T, for one quaternion matrix or a stack of them."""
    return np.swapaxes(quat_conj(np.asarray(A, float)), -3, -2)


@lru_cache(maxsize=None)
def _form_matrix(n: int) -> np.ndarray:
    H = np.zeros((n, n, 4))
    for i in range(n):
        H[i, i, 0] = 1.0 if i < n - 1 else -1.0
    H.setflags(write=False)
    return H


def form_matrix(m: int) -> np.ndarray:
    """diag(1, ..., 1, -1) as an (m+1)-square quaternion matrix."""
    return np.array(_form_matrix(m + 1))


# ---------------------------------------------------------------------------
# the Hermitian pairing, distance, metric


def _vectors(*vs) -> list[np.ndarray]:
    """The vectors as float arrays, checked to share one shape (m+1, 4)."""
    out = [np.asarray(v, dtype=float) for v in vs]
    if any(v.shape != out[0].shape for v in out) or out[0].ndim != 2 or out[0].shape[-1] != 4:
        raise ValueError("vectors must share shape (m+1, 4)")
    return out


def _pairing(v, w) -> np.ndarray:
    """`form_h` over leading axes, without the shape check."""
    terms = quat_mul(quat_conj(v), w)
    return terms[..., :-1, :].sum(axis=-2) - terms[..., -1, :]


def form_h(v, w) -> np.ndarray:
    """h(v, w) = sum_i conj(v_i) w_i - conj(v_last) w_last."""
    return _pairing(*_vectors(v, w))


def _distances(v1, v2) -> np.ndarray:
    """`distance` over leading axes, without the shape check."""
    h11 = _pairing(v1, v1)[..., 0]
    h22 = _pairing(v2, v2)[..., 0]
    if np.any(h11 >= 0.0) or np.any(h22 >= 0.0):
        raise ValueError("distance is defined only between negative vectors")
    h12 = _pairing(v1, v2)
    arg = (h12 * h12).sum(axis=-1) / (h11 * h22)
    if np.any(arg < 1.0 - CLAMP_TOLERANCE):
        raise ValueError(f"distance argument {arg.min()} below 1 beyond tolerance")
    far = arg > 1.0 + ZERO_BAND
    return np.where(far, 2.0 * np.arccosh(np.sqrt(np.where(far, arg, 1.0))), 0.0)


def distance(v1, v2) -> float:
    """Hyperbolic distance between the negative lines of v1 and v2:
    2 arccosh sqrt(h(v1,v2) h(v2,v1) / (h(v1,v1) h(v2,v2))).

    The argument of the square root is >= 1 in exact arithmetic; round-off
    within ``CLAMP_TOLERANCE`` below 1 is clamped, anything farther is an
    error.  The ratio is formed by cancelling two products of nearly equal
    magnitude, so values within a few ulps above 1 are round-off as well and
    collapse to 1: lines closer than roughly 1e-7 read as distance 0 instead
    of as the square root of noise.
    """
    return float(_distances(*_vectors(v1, v2)))


def _metric(v, w1, w2) -> np.ndarray:
    """`metric_at` over leading axes of w1 and w2, without the shape check."""
    hvv = float(_pairing(v, v)[0])
    if hvv >= 0.0:
        raise ValueError("metric is defined only at negative vectors")
    value = hvv * _pairing(w1, w2) - quat_mul(_pairing(w1, v), _pairing(v, w2))
    return -4.0 * value / (hvv * hvv)


def metric_at(v, w1, w2) -> np.ndarray:
    """The Hermitian metric value -4 (h(v,v) h(w1,w2) - h(w1,v) h(v,w2))
    / h(v,v)^2 at the line of v; its real part is the Riemannian metric."""
    return _metric(*_vectors(v, w1, w2))


def base_point(m: int) -> np.ndarray:
    v = np.zeros((m + 1, 4))
    v[-1, 0] = 1.0
    return v


def ball_norm_sq(v) -> float:
    """Sum of squared quaternion norms of all but the last entry."""
    v = np.asarray(v, dtype=float)
    return float((v[:-1] ** 2).sum())


def ball_line_convert(v) -> np.ndarray:
    """Normalize the last coordinate to 1 by right multiplication,
    identifying the line of v with a point of the unit ball model
    (negative lines land strictly inside: ball_norm_sq < 1)."""
    v = np.asarray(v, dtype=float)
    last = v[-1]
    n2 = float((last * last).sum())
    if n2 <= 1e-30:
        raise ValueError("last coordinate is zero: the line lies at infinity")
    return quat_mul(v, quat_conj(last) / n2)


def ball_point_to_line(entries) -> np.ndarray:
    """Inverse direction: append a final coordinate 1 to a ball point."""
    entries = np.atleast_2d(np.asarray(entries, dtype=float))
    return np.vstack([entries, quat(1.0)])


# ---------------------------------------------------------------------------
# group and Lie algebra membership


def sp_dev(A) -> float:
    """Max-entry deviation of conj(A)^T H A from H, over a stack of
    matrices too."""
    n = A.shape[-2]
    H = form_matrix(n - 1)
    lhs = mat_mul(mat_conj_transpose(A), mat_mul(H, A))
    return float(np.abs(lhs - H).max())


def _square_quaternion_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[0] != A.shape[1] or A.shape[2] != 4:
        raise ValueError("expected a square quaternion matrix")
    return A


def sp_check(A) -> bool:
    """Membership of the isometry group of h: conj(A)^T H A = H."""
    return sp_dev(_square_quaternion_matrix(A)) <= GROUP_TOLERANCE


def lie_algebra_dev(A) -> float:
    """Max-entry deviation of H conj(A)^T H + A from 0, over a stack of
    matrices too."""
    n = A.shape[-2]
    H = form_matrix(n - 1)
    lhs = mat_mul(H, mat_mul(mat_conj_transpose(A), H)) + A
    return float(np.abs(lhs).max())


def lie_algebra_check(A) -> bool:
    """Membership of the Lie algebra: H conj(A)^T H + A = 0."""
    return lie_algebra_dev(_square_quaternion_matrix(A)) <= GROUP_TOLERANCE


def to_complex_matrix(A) -> np.ndarray:
    """Standard 2x2-complex-block image of a quaternion matrix (of each
    matrix in a stack)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[-2]
    a = A[..., 0] + 1j * A[..., 1]
    b = A[..., 2] + 1j * A[..., 3]
    out = np.empty(A.shape[:-3] + (2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = b
    out[..., 1::2, 0::2] = -b.conj()
    out[..., 1::2, 1::2] = a.conj()
    return out


def from_complex_matrix(M) -> np.ndarray:
    n = M.shape[-1] // 2
    a = M[..., 0::2, 0::2]
    b = M[..., 0::2, 1::2]
    out = np.empty(M.shape[:-2] + (n, n, 4))
    out[..., 0] = a.real
    out[..., 1] = a.imag
    out[..., 2] = b.real
    out[..., 3] = b.imag
    return out


def _expm(M: np.ndarray) -> np.ndarray:
    """exp of a complex square matrix (of each matrix in a stack) by
    scaling and squaring (Higham, *Functions of Matrices*, Ch. 10): scale
    to 1-norm <= 1/2, sum the Taylor series to degree 18, square back."""
    norm = np.abs(M).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norm)):
        raise ValueError("matrix exponential of a non-finite matrix")
    squarings = np.where(norm > 0.5, np.ceil(np.log2(np.maximum(2.0 * norm, 1.0))), 0.0)
    X = M / (2.0**squarings)[..., None, None]
    term = np.broadcast_to(np.eye(M.shape[-1], dtype=complex), M.shape)
    out = term.copy()
    for k in range(1, 19):
        term = term @ X / k
        out += term
    for k in range(int(squarings.max(initial=0.0))):
        out = np.where((k < squarings)[..., None, None], out @ out, out)
    return out


def matrix_exp(A) -> np.ndarray:
    """exp of a quaternion matrix (of each matrix in a stack) through its
    complex representation."""
    return from_complex_matrix(_expm(to_complex_matrix(A)))


def _gaussians(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal samples of the given shape from ``rng``."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def _random_sp_elements(m: int, seeds) -> np.ndarray:
    """`random_sp_element` for each seed, as one stack."""
    B = 0.4 * np.stack([_gaussians(random.Random(seed), (m + 1, m + 1, 4)) for seed in seeds])
    H = form_matrix(m)
    X = 0.5 * (B - mat_mul(H, mat_mul(mat_conj_transpose(B), H)))
    return matrix_exp(X)


def random_sp_element(m: int, seed: int) -> np.ndarray:
    """A reproducible pseudo-random isometry: exp of the anti-self-adjoint
    (with respect to h) projection of a Gaussian quaternion matrix drawn
    from ``random.Random(seed)``."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _random_sp_elements(m, [seed])[0]


# ---------------------------------------------------------------------------
# the ordered Lie algebra basis


def X_element(m: int, ell: int, alpha) -> np.ndarray:
    """Off-corner generator: alpha in row ell of the last column, its
    conjugate mirrored.  These span the tangent directions at the base
    point; there are 4m of them."""
    if not 1 <= ell <= m:
        raise ValueError(f"ell must lie in 1..{m}")
    A = np.zeros((m + 1, m + 1, 4))
    A[ell - 1, m] = alpha
    A[m, ell - 1] = quat_conj(np.asarray(alpha, float))
    return A


def Y_element(m: int, l1: int, l2: int, alpha) -> np.ndarray:
    """Rotation generator in the positive block: alpha at (l1, l2),
    minus its conjugate at (l2, l1); requires l1 < l2 <= m."""
    if not 1 <= l1 < l2 <= m:
        raise ValueError(f"need 1 <= l1 < l2 <= {m}")
    A = np.zeros((m + 1, m + 1, 4))
    A[l1 - 1, l2 - 1] = alpha
    A[l2 - 1, l1 - 1] = -quat_conj(np.asarray(alpha, float))
    return A


def H_element(m: int, ell: int, alpha) -> np.ndarray:
    """Diagonal generator: a pure-imaginary alpha at position ell
    (1..m+1) of the diagonal."""
    if not 1 <= ell <= m + 1:
        raise ValueError(f"ell must lie in 1..{m + 1}")
    alpha = np.asarray(alpha, dtype=float)
    if abs(alpha[0]) > 1e-15:
        raise ValueError("diagonal generators take pure-imaginary entries")
    A = np.zeros((m + 1, m + 1, 4))
    A[ell - 1, ell - 1] = alpha
    return A


@lru_cache(maxsize=None)
def _cached_basis(m: int) -> np.ndarray:
    units = _quat_units()
    out: list[np.ndarray] = []
    for ell in range(1, m + 1):
        for unit in units:
            out.append(X_element(m, ell, unit))
    for l1 in range(1, m + 1):
        for l2 in range(l1 + 1, m + 1):
            for unit in units:
                out.append(Y_element(m, l1, l2, unit))
    for ell in range(1, m + 2):
        for unit in units[1:]:
            out.append(H_element(m, ell, unit))
    basis = np.stack(out)
    basis.setflags(write=False)
    return basis


def lie_basis(m: int) -> list[np.ndarray]:
    """Ordered basis of the isometry Lie algebra: the 4m off-corner
    X-generators (ell ascending, components 1,i,j,k), then the
    2m(m-1) rotation Y-generators (index pairs lexicographic), then
    the 3(m+1) diagonal H-generators.  Total 2m^2 + 5m + 3."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return [np.array(A) for A in _cached_basis(m)]


def lie_dim(m: int) -> int:
    return 2 * m * m + 5 * m + 3


def bracket(A, B) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("bracket requires matrices of equal size")
    return mat_mul(A, B) - mat_mul(B, A)


@lru_cache(maxsize=None)
def _basis_pinv(m: int) -> np.ndarray:
    stacked = np.stack([A.ravel() for A in _cached_basis(m)], axis=1)
    P = np.linalg.pinv(stacked)
    P.setflags(write=False)
    return P


def coordinates(A, m: int) -> np.ndarray:
    """Coefficients of A in lie_basis(m) (least squares; exact for
    algebra members)."""
    return _basis_pinv(m) @ np.asarray(A, dtype=float).ravel()


def killing_value(A, B, m: int) -> float:
    """Killing form of sp(m,1): (2m+4) Re tr(rho(A) rho(B)) in the
    complex image rho (see :func:`killing_corner_value`), which equals
    the trace of ad(A) ad(B) on the 2m^2+5m+3-dimensional algebra."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (m + 1, m + 1, 4) or B.shape != A.shape:
        raise ValueError(f"expected two ({m + 1}, {m + 1}, 4) quaternion matrices")
    return float(_killing(A, B, m))


def _killing(A, B, m: int) -> np.ndarray:
    """`killing_value` over leading axes, without the shape check."""
    trace = np.einsum("...ij,...ji->...", to_complex_matrix(A), to_complex_matrix(B))
    return (2 * m + 4) * trace.real


def tangent_of_corner(X, m: int) -> np.ndarray:
    """The tangent vector at the base point matching an off-corner
    generator (each generator of a stack): its last column with the final
    entry dropped to 0."""
    X = np.asarray(X, dtype=float)
    w = np.zeros(X.shape[:-3] + (m + 1, 4))
    w[..., :m, :] = X[..., :m, m, :]
    return w


def killing_metric_ratios(m: int, samples: int, seed: int) -> np.ndarray:
    """Killing-to-metric ratios kappa(X,X)/g(w,w) for random horizontal
    directions at the base point, drawn from ``random.Random(seed)``."""
    if m < 2:
        raise ValueError("the ratio needs m >= 2")
    alphas = _gaussians(random.Random(seed), (samples, m, 4))
    X = np.zeros((samples, m + 1, m + 1, 4))
    X[:, :m, m] = alphas
    X[:, m, :m] = quat_conj(alphas)
    w = tangent_of_corner(X, m)
    return _killing(X, X, m) / _metric(base_point(m), w, w)[:, 0]


#: g(w, w) for the unit corner direction w at the base point
CORNER_METRIC = 4.0


def killing_corner_value(m: int) -> float:
    """kappa(X1(1), X1(1)) = 8(m+2).

    The Killing form of sp(2n, C) is (2n+2) tr(XY) in the defining
    representation, and sp(m,1) sits in sp(2m+2, C), so n = m+1.  The
    unit corner generator X1(1) has tr_C(rho(X1)^2) = 4.
    """
    return 8.0 * (m + 2)


def killing_metric_ratio(m: int) -> float:
    """kappa/g on horizontal vectors: 8(m+2) / g(w,w) = 2(m+2)."""
    return killing_corner_value(m) / CORNER_METRIC


def metric_scaling_check(
    m: int, samples: int = 100, seed: int = 0, reference: float | None = None
) -> float:
    """Max deviation of kappa/g from the reference constant over random
    horizontal tangent vectors; the default reference is
    :func:`killing_metric_ratio`.
    """
    if reference is None:
        reference = killing_metric_ratio(m)
    ratios = killing_metric_ratios(m, samples, seed)
    return float(np.abs(ratios - reference).max())


# ---------------------------------------------------------------------------
# Lie triple subspaces of the tangent space


def h0(v, w) -> np.ndarray:
    """The definite pairing sum conj(v_i) w_i on tangent vectors in H^m."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape or v.ndim != 2:
        raise ValueError("tangent vectors must share shape (m, 4)")
    return quat_mul(quat_conj(v), w).sum(axis=0)


class SubspaceSpan(Record):
    """A real-linear subspace of the tangent space H^m, given by
    spanning vectors of shape (k, m, 4), linearly independent over R.
    Spans compare by identity."""

    __slots__ = ("vectors",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, vectors: np.ndarray):
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 3 or arr.shape[-1] != 4 or arr.shape[0] == 0:
            raise ValueError("expected spanning vectors of shape (k, m, 4)")
        flat = arr.reshape(arr.shape[0], -1)
        s = np.linalg.svd(flat, compute_uv=False)
        if s[-1] <= SPAN_TOLERANCE * max(1.0, s[0]):
            raise ValueError("spanning vectors are not independent over R")
        set_field(self, "vectors", arr)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def orthonormal_flat(self) -> np.ndarray:
        flat = self.vectors.reshape(self.count, -1)
        Q, _ = np.linalg.qr(flat.T)
        return Q[:, : self.count]


def _h0_gram(vectors: np.ndarray) -> np.ndarray:
    """All pairing values h0(v_a, v_b) of a (k, m, 4) stack, as (k, k, 4)."""
    return quat_mul(quat_conj(vectors)[:, None], vectors[None, :]).sum(axis=2)


#: floats per intermediate array in :func:`lie_triple_closure`; larger
#: spans (up to k = 4m vectors) are checked in slices of the first index
_CLOSURE_CHUNK = 1 << 18


def lie_triple_closure(W: SubspaceSpan) -> bool:
    """Whether the span is closed under the double-bracket triple
    product: every value v_i h0(v_j, v_l) - v_j h0(v_i, v_l)
    - v_l (h0(v_i, v_j) - h0(v_j, v_i)) (entrywise right multiplication)
    stays inside within tolerance.  All k^3 values are formed at once
    from the Gram of h0 values."""
    Q = W.orthonormal_flat()
    V = W.vectors
    k = W.count
    G = _h0_gram(V)
    skew = G - np.swapaxes(G, 0, 1)
    step = max(1, _CLOSURE_CHUNK // (k * k * V[0].size))
    for lo in range(0, k, step):
        i = slice(lo, lo + step)
        T = (
            quat_mul(V[i, None, None], G[None, :, :, None])
            - quat_mul(V[None, :, None], G[i, None, :, None])
            - quat_mul(V[None, None, :], skew[i, :, None, None])
        ).reshape(-1, Q.shape[0])
        resid = np.linalg.norm(T - (T @ Q) @ Q.T, axis=1)
        bound = SPAN_TOLERANCE * np.maximum(1.0, np.linalg.norm(T, axis=1))
        if np.any(resid > bound):
            return False
    return True


def classify_subspace(W: SubspaceSpan) -> str:
    """The entry of ``GEODESIC_TYPES`` whose rule r = dim_R(W.H) meets
    k = dim W, gated by triple-product closure (not closed: not a Lie
    triple)."""
    if not lie_triple_closure(W):
        return NOT_LIE_TRIPLE
    k = W.count
    WH = quat_mul(W.vectors[None], np.stack(_quat_units())[:, None, None])
    s = np.linalg.svd(WH.reshape(4 * k, -1), compute_uv=False)
    r = int((s > SPAN_TOLERANCE * s[0]).sum())
    for kind, (rule, _, _) in GEODESIC_TYPES.items():
        if rule(k, r):
            return kind
    raise RuntimeError(f"a closed span with k = {k}, r = {r} fits no totally geodesic type")


def standard_span(m: int, kind: str, dim: int = 2) -> SubspaceSpan:
    """The standard span of a ``GEODESIC_TYPES`` entry: its units times
    each of its first coordinate axes, ``dim`` axes for totally-real."""
    if kind not in GEODESIC_TYPES:
        raise ValueError(f"unknown kind {kind!r}")
    _, axes, units = GEODESIC_TYPES[kind]
    axes = dim if axes is None else axes
    if axes > m:
        raise ValueError(f"{kind} needs m >= {axes}")
    vecs = np.zeros((axes, len(units), m, 4))
    for i in range(axes):
        vecs[i, range(len(units)), i, units] = 1.0
    return SubspaceSpan(vecs.reshape(-1, m, 4))


# ---------------------------------------------------------------------------
# bracket identity families and the consolidated report


def bracket_identity_dev(m: int) -> float:
    """Largest entry deviation across the four structural bracket
    families, over every applicable index pattern and all 16 unit
    component pairs:

    1. [X_l1(a), X_l2(b)] = Y_l1l2(a conj(b))        (l1 < l2 <= m)
    2. [X_l1(a), Y_l1l2(b)] = X_l2(conj(b) a)        (l1 < l2 <= m)
    3. [X_l1(a), H_l2(b)] = 0                        (l2 <= m, l2 != l1)
    4. [H_l1(a), Y_l2l3(b)] = 0                      (l2 < l3 <= m, l1 not in {l2, l3})

    Per index pair, one broadcast bracket covers all unit pairs; the
    right-hand sides expand a conj(b) and conj(b) a in the units through
    their product table, whose 0 and +-1 entries keep the sums exact.
    """
    n = m + 1
    basis = _cached_basis(m)
    X = basis[: 4 * m].reshape(m, 4, n, n, 4)
    Y = basis[4 * m : len(basis) - 3 * n].reshape(-1, 4, n, n, 4)
    H = basis[len(basis) - 3 * n :].reshape(n, 3, n, n, 4)
    index_pairs = [(l1, l2) for l1 in range(m) for l2 in range(l1 + 1, m)]
    units = np.stack(_quat_units())
    # [a, b, c]: the coefficient of unit c in a conj(b), resp. conj(b) a
    a_conj_b = quat_mul(units[:, None], quat_conj(units)[None, :])
    conj_b_a = quat_mul(quat_conj(units)[None, :], units[:, None])
    devs = []
    for (l1, l2), Y12 in zip(index_pairs, Y):
        rhs = np.einsum("abc,c...->ab...", a_conj_b, Y12)
        devs.append(_max_abs(bracket(*_all_pairs(X[l1], X[l2])) - rhs))
        rhs = np.einsum("abc,c...->ab...", conj_b_a, X[l2])
        devs.append(_max_abs(bracket(*_all_pairs(X[l1], Y12)) - rhs))
    for l1 in range(m):
        H_other = np.delete(H[:m], l1, axis=0).reshape(-1, n, n, 4)
        devs.append(_max_abs(bracket(*_all_pairs(X[l1], H_other))))
    for (l2, l3), Y23 in zip(index_pairs, Y):
        H_other = np.delete(H, [l2, l3], axis=0).reshape(-1, n, n, 4)
        devs.append(_max_abs(bracket(*_all_pairs(H_other, Y23))))
    return max(devs, default=0.0)


def _all_pairs(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (p, q) with p in the stack P and q in Q, as two stacks of
    shape (len(P), len(Q), ...)."""
    shape = (len(P), len(Q)) + P.shape[1:]
    return np.broadcast_to(P[:, None], shape), np.broadcast_to(Q[None, :], shape)


def _max_abs(D: np.ndarray) -> float:
    return float(np.abs(D).max(initial=0.0))


def geometry_report(m: int, samples: int = 25, seed: int = 7) -> dict:
    """Run every numeric check at a given m and collect the results.

    Each entry records the computed value, the reference it is held
    against, and a pass flag.  The two Killing-normalization checks hold
    kappa(X1(1), X1(1)) against 8(m+2) and kappa/g against 2(m+2) (see
    :func:`killing_corner_value` for the derivation).
    """
    if not 2 <= m <= MAX_REPORT_M:
        raise PreconditionError(f"the report needs 2 <= m <= {MAX_REPORT_M}, got m = {m}")
    if samples < 1:
        raise PreconditionError(f"the report needs at least one sample, got {samples}")
    if samples > MAX_REPORT_SAMPLES:
        raise PreconditionError(
            f"the report needs at most {MAX_REPORT_SAMPLES} samples, got {samples}"
        )
    rng = random.Random(seed)
    one, i_unit, j_unit, _ = _quat_units()
    checks = []

    def check(name, value, reference, passed, detail):
        checks.append(
            {"name": name, "value": value, "reference": reference,
             "passed": bool(passed), "detail": detail}
        )

    basis = _cached_basis(m)
    check(
        "basis-count", len(basis), lie_dim(m), len(basis) == lie_dim(m),
        f"{len(basis)} basis elements, expected 2m^2+5m+3 = {lie_dim(m)}",
    )

    member_dev = lie_algebra_dev(basis)
    check(
        "basis-membership", member_dev, 0.0, member_dev <= GROUP_TOLERANCE,
        f"max defining-identity deviation {member_dev:.2e}",
    )

    br_dev = bracket_identity_dev(m)
    check(
        "bracket-identities", br_dev, 0.0, br_dev == 0.0,
        f"four structural families, max deviation {br_dev:.2e}",
    )

    w = tangent_of_corner(X_element(m, 1, one), m)
    g_base = float(metric_at(base_point(m), w, w)[0])
    check(
        "base-metric", g_base, CORNER_METRIC, abs(g_base - CORNER_METRIC) <= 1e-12,
        f"g(w,w) = {g_base:.12g} for the unit corner direction",
    )

    kappa = killing_value(X_element(m, 1, one), X_element(m, 1, one), m)
    ref_kappa = killing_corner_value(m)
    check(
        "killing-x1", kappa, ref_kappa, abs(kappa - ref_kappa) <= 1e-9,
        f"kappa(X1(1), X1(1)) = {kappa:.12g}, reference 8(m+2) = {ref_kappa:g}",
    )

    ratios = killing_metric_ratios(m, samples, seed)
    ref_ratio = killing_metric_ratio(m)
    ratio_dev = float(np.abs(ratios - ref_ratio).max())
    check(
        "killing-metric-ratio", ratio_dev, 0.0, ratio_dev <= 1e-9,
        f"kappa/g in [{ratios.min():.12g}, {ratios.max():.12g}], "
        f"reference 2(m+2) = {ref_ratio:g}",
    )

    # ten trials at once: pairs of ball points of radius 0.1..0.9 as lines,
    # an isometry and a quaternion scalar each
    trials = 10
    b = _gaussians(rng, (trials, 2, m, 4))
    radii = np.array([rng.uniform(0.1, 0.9) for _ in range(2 * trials)]).reshape(trials, 2, 1, 1)
    pts = np.zeros((trials, 2, m + 1, 4))
    pts[..., :m, :] = b * radii / np.sqrt((b * b).sum(axis=(-2, -1), keepdims=True))
    pts[..., m, 0] = 1.0
    A = _random_sp_elements(m, range(seed + 1000, seed + 1000 + trials))
    moved = mat_mul(A[:, None], pts[..., None, :])[..., 0, :]
    inv_dev = _max_abs(_distances(moved[:, 0], moved[:, 1]) - _distances(pts[:, 0], pts[:, 1]))
    alpha = _gaussians(rng, (trials, 1, 4))
    proj_dev = _max_abs(_distances(pts[:, 0], quat_mul(pts[:, 0], alpha)))
    check(
        "distance-invariance", inv_dev, 0.0, inv_dev <= INVARIANCE_TOLERANCE,
        f"max change under random isometries {inv_dev:.2e}",
    )
    check(
        "distance-projective", proj_dev, 0.0, proj_dev <= 1e-10,
        f"max distance between a line and its rescaling {proj_dev:.2e}",
    )

    group_dev = sp_dev(_random_sp_elements(m, range(seed + 2000, seed + 2000 + trials)))
    check(
        "group-membership", group_dev, 0.0, group_dev <= GROUP_TOLERANCE,
        f"max form deviation of sampled isometries {group_dev:.2e}",
    )

    perturbed = np.zeros((2, m, 4))
    perturbed[0, 0] = one
    perturbed[1, 1] = j_unit
    perturbed[1, 0] = 0.3 * i_unit
    classify_ok = all(
        classify_subspace(standard_span(m, kind)) == kind for kind in GEODESIC_TYPES
    ) and classify_subspace(SubspaceSpan(perturbed)) == NOT_LIE_TRIPLE
    check(
        "triple-classification", classify_ok, True, classify_ok,
        f"standard spans of the {len(GEODESIC_TYPES)} totally geodesic types "
        "and a perturbed non-example",
    )

    return {
        "m": m,
        "seed": seed,
        "samples": samples,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
