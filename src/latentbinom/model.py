"""Probability model for binomial dose-response with latent group sizes.

Each observed count y is binomial with an unobserved size n, where n is
Poisson with a gamma-distributed mean. Integrating the latent quantities out
leaves y negative-binomial with mean mu * h(x, beta) and shape alpha, where h
is the logistic link. alpha = INFINITE (math.inf) selects the degenerate
limit in which the sizes are Poisson with a common mean and y is Poisson
distributed. It is never a large float stand-in: the limit has its own
log-likelihood, and its score and Hessian set each shape factor to its limit.

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
        # A copy: the caller's array stays writable, and writing to it later
        # cannot change these parameters.
        beta = np.atleast_1d(_real_copy(self.beta, "beta"))
        if beta.ndim != 1 or beta.size < 1 or not np.isfinite(beta).all():
            raise ValueError("beta must be a finite vector of length >= 1")
        for name in ("mu", "alpha"):  # one real number each, under beta's rule
            value = getattr(self, name)
            if not isinstance(value, float) and _real_copy(value, name).ndim != 0:
                raise ValueError(f"{name} must be one number, not shape {np.shape(value)}")
            object.__setattr__(self, name, float(value))
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive (or INFINITE)")
        object.__setattr__(self, "beta", beta)

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
    and +/-inf do not) no larger than the largest int64. Integer and float
    arrays are accepted whole; an object array (Python ints past uint64,
    Decimal, Fraction), or an array refused whole, is checked one count at
    a time, in order, as Python numbers, so none is rounded through a float
    and the first offending count is named in the ValueError.
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("y must be a one-dimensional sequence of counts")
    kind = y.dtype.kind
    if kind in "biu":
        # numpy compares integer arrays with a Python int exactly.
        whole = not ((y < 0) | (y > _MAX_COUNT)).any()
    elif kind == "f":
        # float(_MAX_COUNT) rounds up to 2.0**63, which is already too big.
        whole = bool(((y >= 0) & (y < 2.0**63) & (y == np.floor(y))).all())
    elif kind == "O":
        whole = False
    else:
        raise ValueError("counts must be numbers")
    if whole:
        out = y.astype(np.int64)
    else:
        counts = []
        for v in y.tolist():
            try:
                valid = v >= 0 and v == int(v)
            except TypeError:
                raise ValueError("counts must be numbers") from None
            except ArithmeticError:  # int() of an infinity, a Decimal NaN
                valid = False
            if not valid:
                raise ValueError("y must be a non-negative integer")
            if v > _MAX_COUNT:
                raise ValueError(f"count {int(v)} exceeds the largest supported "
                                 f"count {_MAX_COUNT}")
            counts.append(int(v))
        out = np.array(counts, dtype=np.int64)
    out.setflags(write=False)
    return out


def _real_copy(x, name: str) -> np.ndarray:
    """Read-only C-contiguous float64 copy of x: bool, integer, float or real
    objects such as Decimal; complex values and strings raise ValueError."""
    x = np.asarray(x)
    if x.dtype.kind not in "biufO" or x.dtype.kind == "O" and any(
            isinstance(v, (str, bytes, complex, np.complexfloating)) for v in x.flat):
        raise ValueError(f"{name} must be real numbers, not complex values or strings")
    out = np.array(x, dtype=float, order="C")
    out.setflags(write=False)
    return out


class Dataset:
    """Immutable counts y (int64, length n) and covariate rows X (float64,
    n x d), validated once and stored as read-only copies.

    A 1-D X is one covariate per row. Raises ValueError when there are no
    rows or no columns, when y and X differ in length, when a count is not a
    non-negative integer within int64, or when a covariate is not real and finite.
    """

    def __init__(self, y, X):
        y = _validated_counts(y)
        X = _real_copy(X, "x")
        if not np.isfinite(X).all():
            raise ValueError("x must be finite")
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError("X must be a 1-D or 2-D array of covariates")
        if len(y) != len(X):
            raise ValueError("y and X must have the same number of rows")
        if len(y) == 0:
            raise ValueError("dataset must contain at least one observation")
        if X.shape[1] == 0:
            raise ValueError("X needs at least one covariate column")
        self._y = y
        self._X = X

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def X(self) -> np.ndarray:
        return self._X

    @property
    def d(self) -> int:
        return self._X.shape[1]

    # These are the same at every parameter value, so the optimizer's
    # repeated evaluations compute them once per dataset.
    @cached_property
    def _log_y_factorial(self) -> np.ndarray:
        out = _log_gamma(self._yf + 1.0)
        out.setflags(write=False)
        return out

    @cached_property
    def _yf(self) -> np.ndarray:
        return self._y.astype(float)

    @cached_property
    def _positive(self) -> np.ndarray:
        return self._y > 0

    @cached_property
    def _y_max(self) -> int:
        return int(np.maximum.reduce(self._y))

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
    e = np.minimum(t, -t)
    np.exp(e, out=e)
    return np.divide(np.where(t >= 0, 1.0, e), 1.0 + e)


def link_h(x, beta) -> float:
    """Logistic success probability exp(x'beta) / (1 + exp(x'beta))."""
    x = np.atleast_1d(_real_copy(x, "x"))
    beta = np.atleast_1d(_real_copy(beta, "beta"))
    if x.shape != beta.shape:
        raise ValueError(f"dimension mismatch: x has {x.size}, beta has {beta.size}")
    t = np.asarray([float(x @ beta)])
    return float(_logistic(t)[0])


def _point(data: Dataset, beta: np.ndarray, mu: float, alpha: float) -> tuple:
    """(mu, alpha, h, m = mu h, alpha + m, log1p(m / alpha)) over the rows at
    plain, checked values, the last two None at alpha = INFINITE: all that
    _derivatives reads of the parameters, so one link serves every pass."""
    if data.d != beta.size:
        raise ValueError(f"dimension mismatch: dataset d={data.d}, beta has {beta.size}")
    h = _logistic(data.X @ beta)
    m = mu * h
    if math.isinf(alpha):
        return mu, alpha, h, m, None, None
    return mu, alpha, h, m, alpha + m, np.log1p(m / alpha)


def _shift_sums(data: Dataset, alpha: float, order: int):
    """Yield T0[y], ..., T_order[y] at the counts y, where
    Tp[k] = sum_{j<k} (log(alpha+j) if p == 0 else (alpha+j)^-p).

    Gamma-type functions of alpha + y collapse to these finite sums when y is
    an integer: log G(a+y) - log G(a) = T0[y], psi(a+y) - psi(a) = T1[y],
    psi'(a+y) - psi'(a) = -T2[y]. Evaluating the differences this way stays
    exact when alpha is many orders larger than y, where subtracting two
    large special-function values would lose every significant digit. One
    alpha + j vector and one buffer serve every table, gathered on demand.
    """
    y_max = data._y_max
    try:
        aj = np.arange(y_max, dtype=float)
        aj += alpha  # in place: a freed temporary here fragments the heap
        table = np.zeros(y_max + 1)
        for p in range(order + 1):
            np.add.accumulate(np.log(aj) if p == 0 else aj ** (-float(p)), out=table[1:])
            yield table[data.y]
    except (MemoryError, ValueError):  # ValueError: more bytes than intp holds
        raise RuntimeError(f"count {y_max} needs a shift table of {y_max + 1} "
                           "entries, more than memory allows") from None


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


def log_pmf(y: int, x, params: ModelParams) -> float:
    """Log marginal probability of a single count at covariate row x."""
    return log_likelihood(Dataset([y], [x]), params)


def log_likelihood(data: Dataset, params: ModelParams) -> float:
    """Sum of log_pmf over the dataset."""
    return _derivatives(data, _point(data, params.beta, params.mu, params.alpha), 0)[0]


def score(data: Dataset, params: ModelParams) -> np.ndarray:
    """Analytic gradient of log_likelihood in the order (beta..., mu, alpha).

    For alpha = INFINITE the returned vector has length d + 1 (no alpha
    component exists in the submodel).
    """
    return _derivatives(data, _point(data, params.beta, params.mu, params.alpha), 1)[1]


def _mirrored(block: np.ndarray) -> np.ndarray:
    # BLAS may round the two triangles of X' diag(w) X differently; copy the
    # upper triangle down so each assembled matrix is exactly symmetric.
    return np.triu(block) + np.triu(block, 1).swapaxes(-1, -2)


def hessian(data: Dataset, params: ModelParams) -> np.ndarray:
    """Analytic Hessian of log_likelihood, ordered (beta..., mu, alpha).

    Assembled from the closed-form second derivatives of the marginal log
    density, including the second derivative of the logistic link. Returns a
    (d+1) x (d+1) matrix when alpha = INFINITE, else (d+2) x (d+2). The
    result is symmetric by construction.
    """
    return _derivatives(data, _point(data, params.beta, params.mu, params.alpha), 2)[2]


def _y_log_mean(data: Dataset, m: np.ndarray, am) -> np.ndarray:
    """y log(m), or y log(m / (alpha + m)) at a finite shape: 0 where y = 0,
    -inf where y > 0 but m underflowed to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(data._positive,
                        data._yf * np.log(m if am is None else m / am), 0.0)


def _derivatives(data: Dataset, point: tuple, order: int) -> tuple:
    """(log_likelihood,), (.., score) or (.., score, hessian) for order 0, 1
    or 2, at point = _point(data, beta, mu, alpha), read alone. One pass
    shares the link, the means and the shift tables among the three. The
    (beta, mu) terms are the finite-shape ones; at alpha = INFINITE each
    shape factor takes its limit: w = (a+y)/(a+m) is 1, the curvature terms
    (a+y)mu^2/(a+m)^2 and (a+y)h^2/(a+m)^2 are 0, and the mu-beta weight
    -(a+y)a/(a+m)^2 is -1."""
    mu, a, h, m, am, log1p_ma = point
    y, X, d = data._yf, data.X, data.d
    poisson = am is None
    # Each full-length term is summed where it is formed and the order-2
    # factors are inline: a temporary kept alive costs heap page faults.
    if poisson:
        out = [float(np.add.reduce(_y_log_mean(data, m, am) - m - data._log_y_factorial))]
    else:
        shifts = _shift_sums(data, a, order)
        out = [float(np.add.reduce(next(shifts) + _y_log_mean(data, m, am)
                                   - data._log_y_factorial - a * log1p_ma))]
    if order >= 1:
        dh = h * (1.0 - h)
        w = 1.0 if poisson else (a + y) / am
        grad = np.empty(d + 1 if poisson else d + 2)
        grad[:d] = X.T @ ((y / h - w * mu) * dh)
        grad[d] = np.add.reduce(y / mu - (h if poisson else w * h))
        if not poisson:
            # log a + 1 - log(a+m) - w == -log1p(m/a) - (y-m)/(a+m), which
            # stays accurate when alpha dwarfs m; the digamma difference is T1[y].
            grad[d + 1] = np.add.reduce(next(shifts) - log1p_ma - (y - m) / am)
        out.append(grad)
    if order >= 2:
        H = np.zeros((d + 1, d + 1) if poisson else (d + 2, d + 2))
        cb = ((y / h - w * mu) * (dh * (1.0 - 2.0 * h))
              + ((0.0 if poisson else (a + y) * mu**2 / am**2) - y / h**2) * dh**2)
        H[:d, :d] = _mirrored((X * cb[:, None]).T @ X)
        H[d, d] = np.add.reduce(-y / mu**2 + (0.0 if poisson else (a + y) * h**2 / am**2))
        H[:d, d] = H[d, :d] = ((-1.0 if poisson else -(a + y) * a / am**2) * dh) @ X
        if not poisson:
            # The trigamma difference is -T2[y]; 1/a - 1/(a+m) written m/(a(a+m)).
            H[d + 1, d + 1] = np.add.reduce(-next(shifts) + m / (a * am) + (y - m) / am**2)
            H[:d, d + 1] = H[d + 1, :d] = (mu * (y - m) / am**2 * dh) @ X
            H[d, d + 1] = H[d + 1, d] = np.add.reduce(h * (y - m) / am**2)
        out.append(H)
    return tuple(out)
