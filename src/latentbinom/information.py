"""Expected (Fisher) information matrices for the latent-size model.

Two functions cover three scenarios, ordered from least to most informative
about the slope: info_full gives the full latent-size model (gamma-mixed
Poisson sizes) at a finite shape alpha and the Poisson-size submodel at
alpha = INFINITE, and info_known_mean the hypothetical case where only the
common size mean is known. A closed-form block partition of the Poisson-size
inverse is included because the generic inverse loses the structure that
makes its mu-scaling visible.

A design is given as arrays: the covariate rows X (n x d) and the number
of observations r (n positive integers) sharing each row. Every block is
one weighted Gram product over the rows,

    I = sum_i w_i u_i u_i',    u_i = ((1 - h_i) x_i, 1 / mu),

with h_i the logistic link at row x_i; the beta-only variant uses
u_i = x_i. The scenarios differ only in the weights:

    full model             r mu h / (1 + mu h / alpha)
    Poisson sizes          r mu h                     (alpha = INFINITE)
    size mean known        r mu h (1 - h)             beta block only

No weight divides by h or 1 - h, so a row whose link saturates to exactly
0 or 1 adds nothing instead of 0/0. The block partition uses the
Poisson-size matrix at mu = 1.

The matrices are ordered (beta..., mu) and hold no alpha row: the shape is
orthogonal to (beta, mu) (Cox & Reid 1987, JRSS-B 49:1), so every slope and
size-mean variance reads off the (beta, mu) block alone. The alpha entry,
should it be wanted, is minus the expected model.hessian.
"""

from __future__ import annotations

import math
import numpy as np

from .model import ModelParams, _logistic, _mirrored

__all__ = [
    "info_full",
    "info_known_mean",
    "block_variance_partition",
    "inverse_with_condition",
    "NEAR_SINGULAR_CONDITION",
]

# Condition number beyond which an inverse is reported but flagged.
NEAR_SINGULAR_CONDITION = 1e12


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
    with np.errstate(over="ignore", invalid="ignore"):  # +-inf saturates the link
        return X, r, _logistic(X @ params.beta)


def _gram(X: np.ndarray, h: np.ndarray, w: np.ndarray, mu=None) -> np.ndarray:
    """sum_i w_i u_i u_i' with u_i = ((1 - h_i) x_i, 1 / mu), or u_i = x_i
    when mu is None; exactly symmetric."""
    u = X
    if mu is not None:
        u = np.column_stack([(1.0 - h)[:, None] * X, np.full(h.size, 1.0 / mu)])
    return _mirrored((u * w[:, None]).T @ u)


def info_full(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about (beta, mu) at the design rows X with
    replications r: the full latent-size model at a finite shape, the
    Poisson-size submodel at alpha = INFINITE.

    A size mean so small or so large that an entry overflows gives a
    non-finite matrix, which inverse_with_condition refuses.
    """
    X, r, h = _design_arrays(X, r, params)
    mu = params.mu
    # mu h / alpha may overflow at a tiny shape; the weight's limit there is
    # 0. At alpha = INFINITE the weight divides by exactly 1.0.
    with np.errstate(over="ignore", invalid="ignore"):
        return _gram(X, h, r * mu * h / (1.0 + mu * h / params.alpha), mu)


def info_known_mean(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about beta when only the size mean is known."""
    X, r, h = _design_arrays(X, r, params)
    with np.errstate(over="ignore", invalid="ignore"):
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
    still yields a result, flagged rather than raised; an indefinite matrix
    yields condition = inf. A non-finite matrix, or one with an eigenvalue
    whose reciprocal may overflow (zero included), raises LinAlgError.
    """
    m = np.asarray(matrix, dtype=float)
    with np.errstate(over="ignore"):
        m = 0.5 * (m + m.T)
    if not np.all(np.isfinite(m)):
        raise np.linalg.LinAlgError("information matrix has a non-finite entry")
    vals, vecs = np.linalg.eigh(m)
    # Below the smallest normal float, an eigenvalue's reciprocal may overflow.
    if not np.all(np.abs(vals) >= np.finfo(float).tiny):
        raise np.linalg.LinAlgError(
            "information matrix has an eigenvalue too close to zero to invert")
    # A ratio of Python floats overflows to inf without a numpy warning.
    cond = math.inf if np.any(vals <= 0.0) else float(vals[-1]) / float(vals[0])
    inv = (vecs / vals) @ vecs.T
    return inv, cond, not (cond < NEAR_SINGULAR_CONDITION)
