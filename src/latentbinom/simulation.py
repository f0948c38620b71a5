"""Data generation under the latent-size model and the Monte Carlo study of
slope estimation (bias, mean squared error, and Wald coverage).

Reproducibility contract: every sample index derives its own RNG stream from
(seed, sample_index), so results are bit-identical whether samples run
serially or are farmed out, and aggregation always happens in sample order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .efficiency import EffSetting
from .estimation import fit_full
from .information import info_full, inverse_with_condition
from .model import Dataset, _logistic

__all__ = ["SimConfig", "SimSummary", "LatentRecord", "generate_dataset", "run_study"]


@dataclass(frozen=True)
class SimConfig:
    setting: EffSetting
    replications_per_x: int = 10
    n_samples: int = 1000
    seed: int = 0
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.replications_per_x < 1:
            raise ValueError("replications_per_x must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimSummary:
    """Aggregates for the slope coefficient over the converged fits."""

    bias: float
    mse: float
    coverage: float
    n_converged: int

    def __post_init__(self) -> None:
        if self.n_converged > 0 and self.mse < self.bias**2 - 1e-12:
            raise ValueError("mse cannot fall below squared bias")


@dataclass(frozen=True, eq=False)
class LatentRecord:
    """The latent draws behind a generated dataset, kept for diagnostics."""

    lam: np.ndarray
    n: np.ndarray


def generate_dataset(setting: EffSetting, replications: int,
                     rng: np.random.Generator) -> tuple[Dataset, LatentRecord]:
    """Draw one dataset: per observation a gamma mean, a Poisson size, and a
    binomial count through the logistic link.

    With alpha = INFINITE the gamma collapses and every latent mean equals mu
    exactly. A zero size simply yields a zero count.
    """
    X = np.repeat(setting.X, replications, axis=0)
    h = _logistic(X @ setting.beta)
    n_obs = X.shape[0]
    if math.isinf(setting.alpha):
        lam = np.full(n_obs, setting.mu)
    else:
        lam = rng.gamma(shape=setting.alpha, scale=setting.mu / setting.alpha,
                        size=n_obs)
    n = rng.poisson(lam)
    y = rng.binomial(n, h)
    return Dataset.from_arrays(y, X), LatentRecord(lam=lam, n=n)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


def _slope_se_expected(X, r, slope_idx: int, fit) -> float:
    """Asymptotic slope standard error from the expected information at the
    fitted parameters. Coverage here probes the asymptotic variance claim,
    which is stated through the expected information, so the interval width
    comes from it rather than from the fit's observed-curvature errors; those
    remain the fallback when this inverse is unusable.
    """
    try:
        inv, _, _ = inverse_with_condition(info_full(X, r, fit.params))
        var = float(inv[slope_idx, slope_idx])
    except (ValueError, RuntimeError, np.linalg.LinAlgError):
        var = math.nan
    if math.isfinite(var) and var > 0.0:
        return math.sqrt(var)
    return float(fit.std_errors[slope_idx])


def run_study(config: SimConfig) -> SimSummary:
    """Monte Carlo study: generate, fit the full model, and aggregate slope
    bias, MSE, and Wald interval coverage over the converged fits."""
    setting = config.setting
    slope_true = float(setting.beta[-1])
    slope_idx = setting.beta.size - 1
    z = NormalDist().inv_cdf(0.5 + config.ci_level / 2.0)
    r = np.full(setting.r.size, config.replications_per_x)

    sum_err = 0.0
    sum_sq = 0.0
    n_cover = 0
    n_converged = 0
    for i in range(config.n_samples):
        rng = _sample_rng(config.seed, i)
        data, _ = generate_dataset(setting, config.replications_per_x, rng)
        try:
            fit = fit_full(data)
        except np.linalg.LinAlgError:
            continue
        if not fit.converged:
            continue
        est = float(fit.params.beta[slope_idx])
        se = _slope_se_expected(setting.X, r, slope_idx, fit)
        if not math.isfinite(se):
            continue
        n_converged += 1
        err = est - slope_true
        sum_err += err
        sum_sq += err * err
        if abs(err) <= z * se:
            n_cover += 1

    if n_converged == 0:
        return SimSummary(bias=math.nan, mse=math.nan, coverage=math.nan,
                          n_converged=0)
    return SimSummary(
        bias=sum_err / n_converged,
        mse=sum_sq / n_converged,
        coverage=n_cover / n_converged,
        n_converged=n_converged,
    )
