"""Expected (Fisher) information matrices for the latent-size model.

Two functions cover three scenarios, ordered from least to most informative
about the slope: info_full gives the full latent-size model (gamma-mixed
Poisson sizes) at a finite shape alpha and the Poisson-size submodel at
alpha = INFINITE, and info_known_mean the case where the sizes are observed
(not, despite the name, one where only their mean is known).

A design is given as arrays: the covariate rows X (n x d) and the number
of observations r (n positive integers) sharing each row. Every block is
one weighted Gram product over the rows,

    I = sum_i w_i u_i u_i',    u_i = ((1 - h_i) x_i, 1 / mu),

with h_i the logistic link at row x_i; the beta-only variant uses
u_i = x_i. The scenarios differ only in the weights:

    full model             r mu h / (1 + mu h / alpha)
    Poisson sizes          r mu h                     (alpha = INFINITE)
    sizes observed         r mu h (1 - h)             beta block only

No weight divides by h or 1 - h, so a row whose link saturates to exactly
0 or 1 adds nothing instead of 0/0. A stack of (mu, alpha) pairs or of
designs is one Gram product; info_full is the same code at one pair.
inverse_with_condition gives each inverse with its condition number. At
Poisson sizes its inverse scales as the model says: the beta block as 1/mu
and the mu entry as mu, which acceptance gate 7 checks.

The matrices are ordered (beta..., mu) and hold no alpha row: the shape is
orthogonal to (beta, mu) (Cox & Reid 1987, JRSS-B 49:1), so every slope and
size-mean variance reads off the (beta, mu) block alone. The alpha entry,
should it be wanted, is minus the expected model.hessian.
"""

from __future__ import annotations

import math
import numpy as np

from .model import ModelParams, _logistic, _mirrored, _real_copy

__all__ = [
    "info_full",
    "info_known_mean",
    "inverse_with_condition",
    "NEAR_SINGULAR_CONDITION",
]

# Condition number beyond which an inverse is reported as near-singular.
NEAR_SINGULAR_CONDITION = 1e12


def _design_arrays(X, r, params: ModelParams):
    """Validated read-only copies of the covariate rows X (n x d) and the
    replications r (n positive integers), and the link h at every row."""
    X = _real_copy(X, "design X")
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
    r.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):  # +-inf saturates the link
        return X, r, _logistic(X @ params.beta)


def _info_stack(X, r, h, mu, alpha) -> np.ndarray:
    """info_full on validated design arrays at each (mu, alpha) pair that mu
    and alpha broadcast to, with X, r and h: a matrix, else a stack (..., m, m).
    The leading axes of X (..., n, d) and of r and h (..., n) broadcast too."""
    mu = np.asarray(mu, dtype=float)
    m, a = mu[..., None], np.asarray(alpha, dtype=float)[..., None]
    # mu h / alpha may overflow at a tiny shape; the weight's limit there is
    # 0. At alpha = INFINITE the weight divides by exactly 1.0.
    with np.errstate(over="ignore", invalid="ignore"):
        w = r * m * h / (1.0 + m * h / a)
        u = np.empty(np.broadcast_shapes(mu.shape, h.shape[:-1])
                     + (h.shape[-1], X.shape[-1] + 1))
        u[..., :-1] = (1.0 - h)[..., None] * X
        u[..., -1] = (1.0 / mu)[..., None]
        return _mirrored((u * w[..., None]).swapaxes(-1, -2) @ u)


def info_full(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about (beta, mu) at the design rows X with
    replications r: the full latent-size model at a finite shape, the
    Poisson-size submodel at alpha = INFINITE.

    A size mean so small or so large that an entry overflows gives a
    non-finite matrix, which inverse_with_condition refuses.
    """
    X, r, h = _design_arrays(X, r, params)
    return _info_stack(X, r, h, params.mu, params.alpha)


def _known_sizes_gram(X, r, h, mu) -> np.ndarray:
    """info_known_mean on validated design arrays at mu, broadcast against r:
    the beta-only Gram product, u_i = x_i; exactly symmetric."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = r * np.asarray(mu, dtype=float) * h * (1.0 - h)
        return _mirrored((X * w[..., None]).swapaxes(-1, -2) @ X)


def info_known_mean(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about beta with the sizes observed: the binomial
    information given the sizes, averaged over the size law (mean mu)."""
    X, r, h = _design_arrays(X, r, params)
    return _known_sizes_gram(X, r, h, params.mu)


def inverse_with_condition(matrix: np.ndarray) -> tuple:
    """Symmetric inverse with a condition report.

    Returns (inverse, condition number). The inverse is computed from the
    eigendecomposition so that a nearly singular matrix still yields a
    result, for the caller to judge against NEAR_SINGULAR_CONDITION rather
    than raised; an indefinite matrix yields condition = inf. A non-finite
    matrix, or one with an eigenvalue whose reciprocal may overflow (zero
    included), raises LinAlgError, as does an empty or non-square input. A
    stack (..., m, m) gives an array of conditions, each slice as if alone,
    and is refused whole: a non-finite entry in any slice is reported before
    a near-zero eigenvalue in any.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise np.linalg.LinAlgError(f"information matrix is empty or not square: {m.shape}")
    with np.errstate(over="ignore"):
        m = 0.5 * (m + m.swapaxes(-1, -2))
    if not np.all(np.isfinite(m)):
        raise np.linalg.LinAlgError("information matrix has a non-finite entry")
    vals, vecs = np.linalg.eigh(m)
    # Below the smallest normal float, an eigenvalue's reciprocal may overflow.
    if not np.all(np.abs(vals) >= np.finfo(float).tiny):
        raise np.linalg.LinAlgError(
            "information matrix has an eigenvalue too close to zero to invert")
    with np.errstate(over="ignore"):  # eigh sorts: vals[..., 0] is the least
        cond = np.where(vals[..., 0] > 0.0, vals[..., -1] / vals[..., 0], math.inf)
    inv = (vecs / vals[..., None, :]) @ vecs.swapaxes(-1, -2)
    return inv, (float(cond) if m.ndim == 2 else cond)
