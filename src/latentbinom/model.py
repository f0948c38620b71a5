"""Probability model for binomial dose-response with latent group sizes.

Each observed count y is binomial with an unobserved size n, where n is
Poisson with a gamma-distributed mean. Integrating the latent quantities out
leaves y negative-binomial with mean mu * h(x, beta) and shape alpha, where h
is the logistic link. alpha = INFINITE (math.inf) selects the degenerate
limit in which the sizes are Poisson with a common mean and y is Poisson
distributed; that limit is handled as its own code path, never as a large
float stand-in.

Parameter vectors are always ordered (beta_0 .. beta_{d-1}, mu, alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "INFINITE",
    "ModelParams",
    "Dataset",
    "link_h",
    "log_pmf",
    "log_likelihood",
    "score",
    "hessian",
]

INFINITE = math.inf

# Counts are stored as int64; a larger count is rejected, not wrapped.
_MAX_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Parameter vector theta = (beta, mu, alpha).

    beta are the regression coefficients of the logistic link, mu the mean of
    the latent gamma size distribution, alpha its shape. alpha = INFINITE
    encodes the Poisson-size submodel.
    """

    beta: np.ndarray
    mu: float
    alpha: float

    def __post_init__(self) -> None:
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if beta.ndim != 1 or beta.size < 1 or not np.all(np.isfinite(beta)):
            raise ValueError("beta must be a finite vector of length >= 1")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive (or INFINITE)")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def is_poisson_size(self) -> bool:
        return math.isinf(self.alpha)

    def as_array(self) -> np.ndarray:
        """(beta..., mu) for the Poisson-size submodel, else (beta..., mu, alpha)."""
        if self.is_poisson_size:
            return np.concatenate([self.beta, [self.mu]])
        return np.concatenate([self.beta, [self.mu, self.alpha]])


def _validated_counts(y) -> np.ndarray:
    """Read-only int64 copy of the counts y, a 1-D array-like.

    Every count must be a non-negative integer (2.0 passes, 2.7, -0.5, NaN
    and +/-inf do not) no larger than the largest int64. The first
    offending count is named in the ValueError.
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("y must be a one-dimensional sequence of counts")
    kind = y.dtype.kind
    if kind in "biu":
        invalid = y < 0
        # numpy compares integer arrays with a Python int exactly.
        too_big = y > _MAX_COUNT
        values = y
    elif kind in "fO":
        if kind == "f":
            invalid = y < 0
            # float(_MAX_COUNT) rounds up to 2.0**63, so `y > _MAX_COUNT`
            # would let 2**63 through; every float >= 2**63 is too big.
            too_big = y >= 2.0**63
        else:
            # Object arrays hold Python ints beyond uint64 and the like:
            # compare them as Python numbers, exactly. A NaN among them
            # compares False here and is caught as non-finite below.
            try:
                with np.errstate(invalid="ignore"):
                    invalid = (y < 0).astype(bool)
                    too_big = (y > _MAX_COUNT).astype(bool)
            except TypeError:
                raise ValueError("counts must be numbers") from None
        # What is left lies in [0, 2**63) or is NaN, so converts safely.
        values = np.where(invalid | too_big, 0.0, y).astype(float)
        invalid |= ~np.isfinite(values)
        invalid |= values != np.floor(values)
    else:
        raise ValueError("counts must be numbers")
    bad = invalid | too_big
    if bad.any():
        i = int(bad.argmax())
        (value,) = y[i:i + 1].tolist()
        if value != math.inf and value > _MAX_COUNT:
            raise ValueError(
                f"count {int(value)} exceeds the largest supported count "
                f"{_MAX_COUNT}")
        raise ValueError("y must be a non-negative integer")
    out = values.astype(np.int64)
    out.setflags(write=False)
    return out


def _finite_copy(x) -> np.ndarray:
    """Read-only C-contiguous float64 copy of x; every entry must be finite."""
    out = np.array(x, dtype=float, order="C")
    if not np.isfinite(out).all():
        raise ValueError("x must be finite")
    out.setflags(write=False)
    return out


class Dataset:
    """Immutable counts y (int64, length n) and covariate rows X (float64,
    n x d), validated once as whole arrays and stored as read-only copies.

    A 1-D X is one covariate per row. Raises ValueError when there are no
    rows, when y and X differ in length, when a count is not a non-negative
    integer within int64, or when a covariate is not finite.
    """

    def __init__(self, y, X):
        y = _validated_counts(y)
        X = _finite_copy(X)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError("X must be a 1-D or 2-D array of covariates")
        if len(y) != len(X):
            raise ValueError("y and X must have the same number of rows")
        if len(y) == 0:
            raise ValueError("dataset must contain at least one observation")
        self._y = y
        self._X = X

    @classmethod
    def from_arrays(cls, y, X) -> "Dataset":
        """The Dataset of counts y and covariate rows X; same as Dataset(y, X)."""
        return cls(y, X)

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def X(self) -> np.ndarray:
        return self._X

    @property
    def d(self) -> int:
        return self._X.shape[1]

    @cached_property
    def _log_y_factorial(self) -> np.ndarray:
        # log(y!) is the same at every parameter value, so the optimizer's
        # repeated likelihood evaluations compute it once per dataset.
        out = _log_gamma(self._y + 1.0)
        out.setflags(write=False)
        return out

    @property
    def n_obs(self) -> int:
        return self._X.shape[0]

    def __len__(self) -> int:
        return self.n_obs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self._y, other._y) and np.array_equal(self._X, other._X)

    def __repr__(self) -> str:
        return f"Dataset(n_obs={self.n_obs}, d={self.d})"


def _logistic(t: np.ndarray) -> np.ndarray:
    # exp(-|t|) never overflows, and the form chosen by sign saturates
    # smoothly at +/-745. min(t, -t) rather than -abs(t) keeps a NaN's sign.
    e = np.exp(np.minimum(t, -t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def link_h(x, beta) -> float:
    """Logistic success probability exp(x'beta) / (1 + exp(x'beta))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if x.shape != beta.shape:
        raise ValueError(f"dimension mismatch: x has {x.size}, beta has {beta.size}")
    t = np.asarray([float(x @ beta)])
    return float(_logistic(t)[0])


def _h_vector(dataset: Dataset, params: ModelParams) -> np.ndarray:
    if dataset.d != params.beta.size:
        raise ValueError(
            f"dimension mismatch: dataset d={dataset.d}, beta has {params.beta.size}"
        )
    return _logistic(dataset.X @ params.beta)


def _shift_table(y_max: int, alpha: float, power: int) -> np.ndarray:
    """T[k] = sum_{j<k} (log(alpha+j) if power==0 else (alpha+j)^-power).

    Gamma-type functions of alpha + y collapse to these finite sums when y is
    an integer: log G(a+y) - log G(a) = T0[y], psi(a+y) - psi(a) = T1[y],
    psi'(a+y) - psi'(a) = -T2[y]. Evaluating the differences this way stays
    exact when alpha is many orders larger than y, where subtracting two
    large special-function values would lose every significant digit.
    """
    try:
        j = np.arange(y_max, dtype=float)
        vals = np.log(alpha + j) if power == 0 else (alpha + j) ** (-float(power))
        table = np.zeros(y_max + 1)
    except (MemoryError, ValueError):  # ValueError: more bytes than intp holds
        raise RuntimeError(f"count {y_max} needs a shift table of {y_max + 1} "
                           "entries, more than memory allows") from None
    np.cumsum(vals, out=table[1:])
    return table


# log-gamma for the log(y!) constant: the Lanczos approximation (g=7, 9
# coefficients) below the cutoff, a Stirling series above it. It differs from
# scipy.special.gammaln in the last bit on some integers, enough to change
# the optimizer's iteration counts, so the two are not interchangeable.
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos coefficients for g = 7, n = 9 (double precision).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Stirling-series coefficients B_{2n} / (2n (2n-1)) for n = 1..8.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# Above this the Stirling series with 8 terms is at float64 roundoff; below it
# the Lanczos form is more accurate.
_STIRLING_CUTOFF = 13.0


def _lanczos_log_gamma(z: np.ndarray) -> np.ndarray:
    zs = z - 1.0
    acc = np.full_like(zs, _LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zs + i)
    t = zs + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zs + 0.5) * np.log(t) - t + np.log(acc)


def _stirling_log_gamma(z: np.ndarray) -> np.ndarray:
    zsafe = np.where(z >= _STIRLING_CUTOFF, z, _STIRLING_CUTOFF)
    out = (zsafe - 0.5) * np.log(zsafe) - zsafe + _HALF_LOG_2PI
    inv = 1.0 / zsafe
    inv2 = inv * inv
    term = inv
    for c in _STIRLING:
        out = out + c * term
        term = term * inv2
    return out


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log of the gamma function over a float array z >= 1, such as y + 1.

    Absolute error is below 1e-12 wherever that is representable in double
    precision (roughly z <= 400, where |log gamma| < 2e3); beyond that the
    result is correct to relative error ~1e-15.
    """
    return np.where(
        z >= _STIRLING_CUTOFF,
        _stirling_log_gamma(z),
        _lanczos_log_gamma(np.where(z >= _STIRLING_CUTOFF, 1.0, z)),
    )


def _loglik_terms(y: np.ndarray, m: np.ndarray, alpha: float,
                  lgy1: np.ndarray) -> np.ndarray:
    """Per-observation log density of y given its negative-binomial mean m;
    lgy1 holds log(y!)."""
    if math.isinf(alpha):
        with np.errstate(divide="ignore", invalid="ignore"):
            ylogm = np.where(y > 0, y * np.log(np.where(m > 0, m, 1.0)), 0.0)
            ylogm = np.where((y > 0) & (m == 0.0), -np.inf, ylogm)
        return ylogm - m - lgy1
    lg_diff = _shift_table(int(y.max()), alpha, 0)[y]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(y > 0, y * np.log(np.where(m > 0, m, 1.0) / (alpha + m)), 0.0)
        ratio = np.where((y > 0) & (m == 0.0), -np.inf, ratio)
    return lg_diff + ratio - lgy1 - alpha * np.log1p(m / alpha)


def log_pmf(y: int, x, params: ModelParams) -> float:
    """Log marginal probability of a single count at covariate row x."""
    return log_likelihood(Dataset([y], [x]), params)


def log_likelihood(data: Dataset, params: ModelParams) -> float:
    """Sum of log_pmf over the dataset."""
    m = params.mu * _h_vector(data, params)
    return float(np.sum(_loglik_terms(data.y, m, params.alpha,
                                      data._log_y_factorial)))


def score(data: Dataset, params: ModelParams) -> np.ndarray:
    """Analytic gradient of log_likelihood in the order (beta..., mu, alpha).

    For alpha = INFINITE the returned vector has length d + 1 (no alpha
    component exists in the submodel).
    """
    y = data.y
    h = _h_vector(data, params)
    mu = params.mu
    m = mu * h
    dh = h * (1.0 - h)
    if params.is_poisson_size:
        dbeta = data.X.T @ ((y / h - mu) * dh)
        dmu = float(np.sum(y / mu - h))
        return np.concatenate([dbeta, [dmu]])
    a = params.alpha
    w = (a + y) / (a + m)
    dbeta = data.X.T @ ((y / h - w * mu) * dh)
    dmu = float(np.sum(y / mu - w * h))
    # log a + 1 - log(a+m) - w == -log1p(m/a) - (y-m)/(a+m), which stays
    # accurate when alpha dwarfs m; the digamma difference is a shift table.
    psi_diff = _shift_table(int(y.max()), a, 1)[y]
    dalpha = float(np.sum(psi_diff - np.log1p(m / a) - (y - m) / (a + m)))
    return np.concatenate([dbeta, [dmu, dalpha]])


def _mirrored(block: np.ndarray) -> np.ndarray:
    # BLAS may round the two triangles of X' diag(w) X differently; copy the
    # upper triangle down so the assembled Hessian is exactly symmetric.
    return np.triu(block) + np.triu(block, 1).T


def hessian(data: Dataset, params: ModelParams) -> np.ndarray:
    """Analytic Hessian of log_likelihood, ordered (beta..., mu, alpha).

    Assembled from the closed-form second derivatives of the marginal log
    density, including the second derivative of the logistic link. Returns a
    (d+1) x (d+1) matrix when alpha = INFINITE, else (d+2) x (d+2). The
    result is symmetric by construction.
    """
    y = data.y
    X = data.X
    d = data.d
    h = _h_vector(data, params)
    mu = params.mu
    m = mu * h
    dh = h * (1.0 - h)
    d2h = dh * (1.0 - 2.0 * h)

    if params.is_poisson_size:
        H = np.zeros((d + 1, d + 1))
        cb = (y / h - mu) * d2h - (y / h**2) * dh**2
        H[:d, :d] = _mirrored((X * cb[:, None]).T @ X)
        H[d, d] = float(np.sum(-y / mu**2))
        cross = -(dh @ X)
        H[:d, d] = cross
        H[d, :d] = cross
        return H

    a = params.alpha
    am = a + m
    w = (a + y) / am
    H = np.zeros((d + 2, d + 2))
    cb = (y / h - w * mu) * d2h + ((a + y) * mu**2 / am**2 - y / h**2) * dh**2
    H[:d, :d] = _mirrored((X * cb[:, None]).T @ X)
    H[d, d] = float(np.sum(-y / mu**2 + (a + y) * h**2 / am**2))
    # trigamma difference as a shift table; 1/a - 1/(a+m) written m/(a(a+m)).
    psi1_diff = -_shift_table(int(y.max()), a, 2)[y]
    H[d + 1, d + 1] = float(np.sum(psi1_diff + m / (a * am) + (y - m) / am**2))
    bm = (-(a + y) * a / am**2 * dh) @ X
    H[:d, d] = bm
    H[d, :d] = bm
    ba = (mu * (y - m) / am**2 * dh) @ X
    H[:d, d + 1] = ba
    H[d + 1, :d] = ba
    ma = float(np.sum(h * (y - m) / am**2))
    H[d, d + 1] = ma
    H[d + 1, d] = ma
    return H
