"""Expected (Fisher) information matrices for the latent-size model.

Three variants are provided, ordered from least to most informative about
the slope: the full latent-size model (gamma-mixed Poisson sizes), the
Poisson-size submodel, and the hypothetical case where only the common size
mean is known. A closed-form block partition of the Poisson-size inverse is
included because the generic inverse loses the structure that makes its
mu-scaling visible.

A design is given as arrays: the covariate rows X (n x d) and the number
of observations r (n positive integers) sharing each row. Every (beta, mu)
block is one weighted Gram product over the rows,

    I = sum_i w_i u_i u_i',    u_i = ((1 - h_i) x_i, 1 / mu),

with h_i the logistic link at row x_i; the beta-only variant uses
u_i = x_i. The variants differ only in the weights:

    full model             r mu h / (1 + mu h / alpha)
    Poisson sizes          r mu h
    size mean known        r mu h (1 - h)             beta block only

No weight divides by h or 1 - h, so a row whose link saturates to exactly
0 or 1 adds nothing instead of 0/0. The block partition uses the
Poisson-size matrix at mu = 1. The full model adds the alpha curvature,
which has no closed form, on the diagonal: r @ expected_alpha_info(X), one
series per row, summed in one pass over the design against alpha-only
tables that every row shares.

Matrices are ordered (beta..., mu, alpha) like every parameter vector in
this package.
"""

from __future__ import annotations

import math
import numpy as np

from .model import ModelParams, _logistic, _mirrored

__all__ = [
    "info_full",
    "info_poisson_size",
    "info_known_mean",
    "expected_alpha_info",
    "block_variance_partition",
    "inverse_with_condition",
    "NEAR_SINGULAR_CONDITION",
]

# Condition number beyond which an inverse is reported but flagged.
NEAR_SINGULAR_CONDITION = 1e12

# The alpha-information tail sum stops once the probability mass it leaves
# unaccounted is below _ALPHA_TAIL_TOL. _ALPHA_MAX_TERMS caps its length, and
# with it the memory and time a huge size mean can ask for.
_ALPHA_TAIL_TOL = 1e-12
_ALPHA_MAX_TERMS = 1_000_000


def _design_arrays(X, r, params: ModelParams):
    """Validated read-only copies of the covariate rows X (n x d) and the
    replications r (n positive integers), and the link h at every row."""
    X = np.array(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("design X must be a non-empty n x d array")
    if not np.all(np.isfinite(X)):
        raise ValueError("design X must be finite")
    r = np.asarray(r)
    if r.ndim != 1 or r.dtype.kind not in "iu":
        raise ValueError("replications r must be a 1-D integer array")
    if r.size != X.shape[0]:
        raise ValueError(f"replications r has {r.size} entries for {X.shape[0]} rows")
    if np.any(r < 1):
        raise ValueError("replications must be >= 1")
    d = X.shape[1]
    if d != params.beta.size:
        raise ValueError(f"dimension mismatch: design d={d}, beta has {params.beta.size}")
    r = r.astype(np.int64)
    X.setflags(write=False)
    r.setflags(write=False)
    return X, r, _logistic(X @ params.beta)


def _gram(X: np.ndarray, h: np.ndarray, w: np.ndarray, mu=None) -> np.ndarray:
    """sum_i w_i u_i u_i' with u_i = ((1 - h_i) x_i, 1 / mu), or u_i = x_i
    when mu is None; exactly symmetric."""
    u = X
    if mu is not None:
        u = np.column_stack([(1.0 - h)[:, None] * X, np.full(h.size, 1.0 / mu)])
    return _mirrored((u * w[:, None]).T @ u)


def expected_alpha_info(X, params: ModelParams) -> np.ndarray:
    """Expected curvature of the log density in the shape parameter for one
    observation at each covariate row of X (n x d): one value per row.

    Each is a series over the counts, with no closed form. Its term at
    y = k + 1 is f_i(k+1) S[k], where m_i is the row's count mean,
    log f_i(k+1) = -alpha log1p(m_i/alpha) + C[k] + (k+1) log(m_i/(alpha+m_i)),
    C[k] = sum_{j<=k} log((alpha+j)/(j+1)) and S[k] = sum_{j<=k} (alpha+j)^-2.
    The alpha-only tables C and S are built once per call, at the longest
    row's term count, and every row takes one exp and one dot product over
    its own prefix, in place. A row sums m + 50 sd + 10 terms (at least 64)
    until a geometric bound on its true tail is below _ALPHA_TAIL_TOL (a
    float mass sum can stall a hair under 1); if not, it sums that many more
    terms again, and raises past _ALPHA_MAX_TERMS. A shape so small that S
    overflows (below about 1e-154) raises RuntimeError too.
    """
    if params.is_poisson_size:
        raise ValueError("alpha information requires finite alpha")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be an n x d array of covariate rows")
    a = params.alpha
    # S's first term, (1/a)^2, is the only one that can overflow.
    if math.isinf(1.0 / a * (1.0 / a)):
        raise RuntimeError(f"alpha information overflows at shape {a:g}")
    m = params.mu * _logistic(X @ params.beta)
    with np.errstate(over="ignore"):
        block = np.ceil(m + 50.0 * np.sqrt(m * (1.0 + m / a))) + 10.0
    block = np.clip(block, 64, _ALPHA_MAX_TERMS).astype(np.int64)
    terms = block.copy()
    out = np.zeros(m.size)
    tail = np.zeros(m.size)
    rows = np.flatnonzero(m > 0.0)
    while rows.size:
        k1 = np.arange(1.0, terms[rows].max() + 1.0)  # k + 1
        S = k1 - 1.0
        S += a
        C = S / k1
        np.cumsum(np.log(C, out=C), out=C)
        # (1/(a+j))^2 underflows quietly where (a+j)^2 would overflow.
        np.cumsum(np.square(np.reciprocal(S, out=S), out=S), out=S)
        work = np.empty_like(S)
        for i in rows:
            mi, K = float(m[i]), int(terms[i])
            log_ratio = math.log(mi) - math.log(a + mi)
            f = np.add(np.multiply(k1[:K], log_ratio, out=work[:K]), C[:K], out=work[:K])
            f -= a * math.log1p(mi / a)
            np.exp(f, out=f)
            out[i] = float(f @ S[:K]) - mi / a / (a + mi)
            # Tail after y = K: f(K) r / (1 - r), r the pmf ratio there.
            r = (a + K) / (K + 1.0) * math.exp(log_ratio)
            tail[i] = f[-1] * r / (1.0 - r) if r < 1.0 else math.inf
        rows = rows[~(tail[rows] < _ALPHA_TAIL_TOL)]
        if np.any(terms[rows] >= _ALPHA_MAX_TERMS):
            raise RuntimeError(f"alpha information tail still above "
                               f"{_ALPHA_TAIL_TOL} after {_ALPHA_MAX_TERMS} terms")
        terms[rows] = np.minimum(terms[rows] + block[rows], _ALPHA_MAX_TERMS)
    return out


def info_full(X, r, params: ModelParams) -> np.ndarray:
    """Expected information of the full latent-size model at the design
    rows X with replications r, ordered (beta..., mu, alpha).

    The shape parameter is orthogonal to (beta, mu): its off-diagonal row and
    column are exactly zero by construction.
    """
    if params.is_poisson_size:
        raise ValueError("full-model information requires finite alpha")
    X, r, h = _design_arrays(X, r, params)
    d = X.shape[1]
    mu = params.mu
    I = np.zeros((d + 2, d + 2))
    # mu h / alpha may overflow at a tiny shape; the weight's limit there is 0.
    with np.errstate(over="ignore"):
        w = r * mu * h / (1.0 + mu * h / params.alpha)
    I[:d + 1, :d + 1] = _gram(X, h, w, mu)
    I[d + 1, d + 1] = r @ expected_alpha_info(X, params)
    return I


def info_poisson_size(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about (beta, mu) when the sizes are Poisson with
    common mean mu."""
    X, r, h = _design_arrays(X, r, params)
    return _gram(X, h, r * params.mu * h, params.mu)


def info_known_mean(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about beta when only the size mean is known."""
    X, r, h = _design_arrays(X, r, params)
    return _gram(X, h, r * params.mu * h * (1.0 - h))


def block_variance_partition(X, r, params: ModelParams) -> tuple[np.ndarray, float]:
    """Closed-form (V11, V22) blocks of the inverse Poisson-size information.

    V11 is the asymptotic covariance of beta-hat, V22 the variance of mu-hat.
    Computed from the partitioned-inverse identities rather than a generic
    matrix inverse, so the factorization V11 = (1/mu) * (...) and
    V22 = mu * (...) with mu-free inner matrices stays explicit.
    """
    X, r, h = _design_arrays(X, r, params)
    d = X.shape[1]
    # The Poisson-size information at mu = 1 is [[A, b], [b', c]].
    G = _gram(X, h, r * h, 1.0)
    A, b, c = G[:d, :d], G[:d, d], G[d, d]
    inner = A - np.outer(b, b) / c
    v11 = np.linalg.inv(inner) / params.mu
    denom = c - b @ np.linalg.solve(A, b)
    if denom <= 0:
        raise np.linalg.LinAlgError("singular inner matrix in variance partition")
    v22 = params.mu / denom
    return v11, float(v22)


def inverse_with_condition(matrix: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Symmetric inverse with a condition report.

    Returns (inverse, condition number, near_singular flag). The inverse is
    computed from the eigendecomposition so that a nearly singular matrix
    still yields a result, flagged rather than raised; a singular or
    indefinite matrix yields condition = inf.
    """
    m = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    # A ratio of Python floats overflows to inf without a numpy warning.
    cond = math.inf if np.any(vals <= 0.0) else float(vals[-1]) / float(vals[0])
    if np.any(vals == 0.0):
        raise np.linalg.LinAlgError("information matrix is exactly singular")
    inv = (vecs / vals) @ vecs.T
    return inv, cond, not (cond < NEAR_SINGULAR_CONDITION)
