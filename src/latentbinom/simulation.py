"""Data generation under the latent-size model and the Monte Carlo study of
slope estimation (bias, mean squared error, and Wald coverage).

Reproducibility contract: `_sample(config, i)` draws sample i from its own RNG
stream, from (seed, i), and `_summarize` folds outcomes in sample order, so a
study is bit-identical whether its samples run serially or are farmed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .efficiency import EffSetting
from .estimation import fit_full
from .information import info_full, inverse_with_condition
from .model import Dataset

__all__ = ["SimConfig", "SimSummary", "LatentRecord", "generate_dataset", "run_study"]


@dataclass(frozen=True)
class SimConfig:
    setting: EffSetting
    n_samples: int = 1000
    seed: int = 0
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (self.n_samples, self.seed)):
            raise ValueError("n_samples and seed must be integers")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")
        if 0.5 + self.ci_level / 2.0 == 1.0:  # run_study's quantile would be infinite
            raise ValueError(f"ci_level {self.ci_level!r} is too close to 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimSummary:
    """Aggregates for the slope coefficient over the samples with status
    "ok": converged, with a finite SE."""

    bias: float
    mse: float
    coverage: float
    n_converged: int

    def __post_init__(self) -> None:
        # With n equal errors mse equals bias**2 up to the fold's rounding,
        # which stays below 2 n eps bias**2.
        if self.n_converged > 0 and self.mse < self.bias**2 * (
                1.0 - 2 * self.n_converged * np.finfo(float).eps):
            raise ValueError("mse cannot fall below squared bias")


@dataclass(frozen=True, eq=False)
class LatentRecord:
    """The latent draws behind a generated dataset, kept for diagnostics."""

    lam: np.ndarray
    n: np.ndarray


def generate_dataset(setting: EffSetting,
                     rng: np.random.Generator) -> tuple[Dataset, LatentRecord]:
    """Draw one dataset: per observation a gamma mean, a Poisson size, and a
    binomial count through the setting's link h. Design row i appears
    setting.r[i] times, in row order.

    With alpha = INFINITE the gamma collapses and every latent mean equals mu
    exactly. A zero size simply yields a zero count.
    """
    X = np.repeat(setting.X, setting.r, axis=0)
    n_obs = X.shape[0]
    if math.isinf(setting.alpha):
        lam = np.full(n_obs, setting.mu)
    else:
        lam = rng.gamma(shape=setting.alpha, scale=setting.mu / setting.alpha,
                        size=n_obs)
    n = rng.poisson(lam)
    y = rng.binomial(n, np.repeat(setting.h, setting.r))
    return Dataset(y, X), LatentRecord(lam=lam, n=n)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


def _sample(config: SimConfig, i: int) -> tuple[str, float, float]:
    """Draw and fit sample i from its own stream: (status, slope estimate,
    slope SE). The status is "ok" when the sample counts, else why it was
    dropped; values not reached are NaN. Coverage probes the asymptotic claim,
    stated through the expected information, so the SE comes from its inverse
    at the estimate, or from the fit's observed SE when that is unusable."""
    setting = config.setting
    slope_idx = setting.beta.size - 1
    data, _ = generate_dataset(setting, _sample_rng(config.seed, i))
    if not data.y.any():
        return "all_zero", math.nan, math.nan  # fit_full refuses: no finite maximum
    try:
        fit = fit_full(data)
    except np.linalg.LinAlgError:
        return "linalg_error", math.nan, math.nan
    if not fit.converged:
        return "not_converged", math.nan, math.nan
    est = float(fit.params.beta[slope_idx])
    try:
        inv, _ = inverse_with_condition(info_full(setting.X, setting.r, fit.params))
        var = float(inv[slope_idx, slope_idx])
    except np.linalg.LinAlgError:
        var = math.nan
    if math.isfinite(var) and var > 0.0:
        return "ok", est, math.sqrt(var)
    se = float(fit.std_errors[slope_idx])
    return ("ok" if math.isfinite(se) else "nonfinite_se"), est, se


def _summarize(config: SimConfig, outcomes) -> SimSummary:
    """Fold sample outcomes, in the order given, into slope bias, MSE and
    Wald coverage over the "ok" samples."""
    slope_true = float(config.setting.beta[-1])
    z = NormalDist().inv_cdf(0.5 + config.ci_level / 2.0)
    sum_err = sum_sq = 0.0
    n_cover = n = 0
    for status, est, se in outcomes:
        if status == "ok":
            n += 1
            err = est - slope_true
            sum_err += err
            sum_sq += err * err
            n_cover += abs(err) <= z * se
    if n == 0:
        return SimSummary(math.nan, math.nan, math.nan, n_converged=0)
    return SimSummary(bias=sum_err / n, mse=sum_sq / n, coverage=n_cover / n,
                      n_converged=n)


def run_study(config: SimConfig) -> SimSummary:
    """Monte Carlo study: slope bias, MSE and Wald coverage of the full fit."""
    return _summarize(config, (_sample(config, i) for i in range(config.n_samples)))
