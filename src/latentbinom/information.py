"""Expected (Fisher) information matrices for the latent-size model.

Four variants are provided, ordered from least to most informative about the
slope: the full latent-size model (gamma-mixed Poisson sizes), the
Poisson-size submodel, the hypothetical case where only the common size mean
is known, and the case where every size is observed. A closed-form block
partition of the Poisson-size inverse is included because the generic
inverse loses the structure that makes its mu-scaling visible.

A design is given as arrays: the covariate rows X (n x d) and the number
of observations r (n positive integers) sharing each row. Every (beta, mu)
block is one weighted Gram product over the rows,

    I = sum_i w_i v_i v_i',    v_i = (grad h_i, h_i / mu),

with h_i the logistic link at row x_i and grad h_i = h_i (1 - h_i) x_i. The variants differ only in the weights:

    full model             r mu / (h (1 + mu h / alpha))
    Poisson sizes          r mu / h
    size mean known        r mu / (h (1 - h))          beta block only
    sizes known            n_sum / (h (1 - h))         beta block only

where n_sum is the total observed size at the row. The block partition
uses the Poisson-size matrix at mu = 1. The full model adds the alpha
curvature, which has no closed form, on the diagonal.

Matrices are ordered (beta..., mu, alpha) like every parameter vector in
this package.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import ModelParams, _logistic, _mirrored, link_h

__all__ = [
    "info_full",
    "info_poisson_size",
    "info_known_mean",
    "info_known_sizes",
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
    """sum_i w_i v_i v_i' with v_i = (grad h_i, h_i / mu), or v_i = grad h_i
    when mu is None; exactly symmetric."""
    v = (h * (1.0 - h))[:, None] * X
    if mu is not None:
        v = np.column_stack([v, h / mu])
    return _mirrored((v * w[:, None]).T @ v)


def expected_alpha_info(x, params: ModelParams) -> float:
    """Expected curvature of the log density in the shape parameter.

    This is the negative expectation of the second alpha-derivative for a
    single observation at covariate row x. No closed form exists, so the
    expectation is a sum over the count distribution, truncated once the
    probability mass left beyond the last term provably drops below
    _ALPHA_TAIL_TOL.

    The count pmf is built by the stable forward recurrence
    f(y+1)/f(y) = (alpha+y)/(y+1) * m/(alpha+m), and the curvature summand
    uses S(y) = sum_{j<y} (alpha+j)^-2, so no special-function evaluations
    are needed inside the loop. The stop rule is a geometric bound on the
    true tail, not a watch on the accumulated float mass: rounding in a long
    pmf sum can saturate the accumulator a hair under 1, which would turn a
    mass-based rule into an infinite loop.
    """
    if params.is_poisson_size:
        raise ValueError("alpha information requires finite alpha")
    a = params.alpha
    m = params.mu * link_h(x, params.beta)
    if m == 0.0:
        return 0.0
    log_ratio = math.log(m) - math.log(a + m)
    # Sum in blocks sized to the distribution; past the mean the pmf ratio
    # falls below 1 and the geometric tail bound applies.
    block = max(int(math.ceil(m + 50.0 * math.sqrt(m * (1.0 + m / a)))) + 10, 64)
    log_f0 = -a * math.log1p(m / a)
    start = 0
    logf_start = log_f0
    s_start = 0.0
    acc = 0.0  # the y = 0 term vanishes since S(0) = 0
    while True:
        if start >= _ALPHA_MAX_TERMS:
            raise RuntimeError(
                f"alpha information tail still above {_ALPHA_TAIL_TOL} "
                f"after {_ALPHA_MAX_TERMS} terms"
            )
        count = min(block, _ALPHA_MAX_TERMS - start)
        j = np.arange(start, start + count, dtype=float)
        steps = np.log((a + j) / (j + 1.0)) + log_ratio
        logf = logf_start + np.cumsum(steps)
        f = np.exp(logf)
        s = s_start + np.cumsum(1.0 / (a + j) ** 2)
        acc += float(f @ s)
        logf_start = float(logf[-1])
        s_start = float(s[-1])
        start += count
        # Tail after the last included y: f_last * r / (1 - r) with
        # r the (decreasing, < 1 here) pmf ratio at that y.
        r = (a + start) / (start + 1.0) * math.exp(log_ratio)
        if r < 1.0 and math.exp(logf_start) * r / (1.0 - r) < _ALPHA_TAIL_TOL:
            break
    return acc - m / (a * (a + m))


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
    I[:d + 1, :d + 1] = _gram(X, h, r * mu / (h * (1.0 + mu * h / params.alpha)), mu)
    for x, ri in zip(X, r):
        I[d + 1, d + 1] += ri * expected_alpha_info(x, params)
    return I


def info_poisson_size(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about (beta, mu) when the sizes are Poisson with
    common mean mu."""
    X, r, h = _design_arrays(X, r, params)
    return _gram(X, h, r * params.mu / h, params.mu)


def info_known_mean(X, r, params: ModelParams) -> np.ndarray:
    """Expected information about beta when only the size mean is known."""
    X, r, h = _design_arrays(X, r, params)
    return _gram(X, h, r * params.mu / (h * (1.0 - h)))


def info_known_sizes(X, r, sizes: Sequence[int], params: ModelParams) -> np.ndarray:
    """Information about beta when every size n_i is observed.

    sizes must align with the design expanded one observation per
    replication, in row order.
    """
    X, r, h = _design_arrays(X, r, params)
    total = int(r.sum())
    if len(sizes) != total:
        raise ValueError(f"expected {total} sizes, got {len(sizes)}")
    sizes = np.asarray(sizes, dtype=float)
    if np.any(sizes < 0):
        raise ValueError("sizes must be non-negative")
    n_sum = np.add.reduceat(sizes, np.cumsum(r) - r)
    return _gram(X, h, n_sum / (h * (1.0 - h)))


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
    G = _gram(X, h, r / h, 1.0)
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
    if np.any(vals <= 0.0):
        cond = math.inf
    else:
        cond = float(vals[-1] / vals[0])
    if np.any(vals == 0.0):
        raise np.linalg.LinAlgError("information matrix is exactly singular")
    inv = (vecs / vals) @ vecs.T
    return inv, cond, not (cond < NEAR_SINGULAR_CONDITION)
