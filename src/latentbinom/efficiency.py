"""Slope-efficiency comparisons across latent-size information scenarios.

Three nested scenarios are compared through the asymptotic marginal variance
of the slope coefficient: sizes fully observed, sizes Poisson with known
form, and sizes gamma-mixed (the full model). rho measures the loss from not
observing the sizes, gamma the further loss from size overdispersion, and
rho_gamma their product. Each measure is the fourth root of the
corresponding variance ratio, the convention used by the reference tables
this module reproduces.

The two built-in 11-point covariate sets and the 2^4 grid of
(design, slope, size mean, shape) settings are provided for the table runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .information import (
    _design_arrays,
    info_full,
    info_known_mean,
    info_poisson_size,
    inverse_with_condition,
)
from .model import ModelParams

__all__ = [
    "EffSetting",
    "EffResult",
    "builtin_designs",
    "table_settings",
    "efficiency_measures",
    "gamma_curve",
    "sd_vs_mu_curves",
]

_X1 = tuple(float(v) for v in range(-5, 6))
# Normal draws known to two decimals only; the rounding can move the
# efficiency measures of this design by up to about 1.7e-3.
_X2 = (-0.63, 1.59, -3.01, -6.85, -4.97, 1.86, -7.54, -3.45, -4.45, -1.87, 6.49)

# Table configuration: intercept fixed at 1, slopes and size parameters on a
# 2^4 grid, 10 replications per covariate value.
_TABLE_BETA0 = 1.0
_TABLE_SLOPES = (1.0, 2.0)
_TABLE_MEANS = (100.0, 300.0)
_TABLE_SHAPES = (25.0, 49.0)
_TABLE_REPLICATIONS = 10


@dataclass(frozen=True, eq=False)
class EffSetting:
    """A design, as covariate rows X (n x d) and replications r (n positive
    integers), plus generating parameters for one efficiency evaluation."""

    X: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    mu: float
    alpha: float

    def __post_init__(self) -> None:
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        X, r, _ = _design_arrays(self.X, self.r, self.params)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "r", r)

    @property
    def params(self) -> ModelParams:
        return ModelParams(beta=self.beta, mu=self.mu, alpha=self.alpha)


@dataclass(frozen=True)
class EffResult:
    rho: float
    gamma: float
    rho_gamma: float

    def __post_init__(self) -> None:
        for name, v in (("rho", self.rho), ("gamma", self.gamma),
                        ("rho_gamma", self.rho_gamma)):
            if not 0.0 < v <= 1.0 + 1e-12:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")


def builtin_designs() -> tuple[list[float], list[float]]:
    """The two built-in covariate sets: the integers -5..5 and a fixed sample
    of 11 draws from a normal with mean 0 and variance 25.

    The draws are given to two decimals only. That rounding alone can move a
    second-design efficiency cell by up to about 1.7e-3, so those cells match
    the reference table only to within that range, not to its third decimal.
    """
    return list(_X1), list(_X2)


def make_setting(design_values: Sequence[float], slope: float, mu: float,
                 alpha: float, replications: int = _TABLE_REPLICATIONS) -> EffSetting:
    """An intercept-plus-slope setting on the given covariate values."""
    values = np.asarray(design_values, dtype=float)
    return EffSetting(
        X=np.column_stack([np.ones(values.size), values]),
        r=np.full(values.size, replications),
        beta=np.array([_TABLE_BETA0, slope]),
        mu=mu,
        alpha=alpha,
    )


def table_settings() -> list[EffSetting]:
    """The 16 table settings: first design for 1-8, second for 9-16, with
    (slope, mu, alpha) cycling fastest on slope, then mean, then shape."""
    x1, x2 = builtin_designs()
    out = []
    for values in (x1, x2):
        for alpha in _TABLE_SHAPES:
            for mu in _TABLE_MEANS:
                for slope in _TABLE_SLOPES:
                    out.append(make_setting(values, slope, mu, alpha))
    return out


def _slope_variance(matrix: np.ndarray) -> tuple[float, float]:
    """The slope's marginal variance and the matrix's condition number."""
    inv, cond, _ = inverse_with_condition(matrix)
    return float(inv[1, 1]), cond


def efficiency_measures(setting: EffSetting) -> EffResult:
    """rho, gamma, and their product for the slope coefficient.

    Variances are marginal: each information matrix is inverted whole and the
    slope diagonal entry taken. The measures are fourth roots of the variance
    ratios known-mean/Poisson-size (rho) and Poisson-size/full (gamma), so
    smaller values mean more efficiency lost to the weaker scenario.
    Raises RuntimeError when a measure falls outside (0, 1], which only an
    unstable inverse of an ill-conditioned information matrix produces.
    """
    params = setting.params
    (v_known, c_known), (v_poisson, c_poisson), (v_full, c_full) = (
        _slope_variance(info(setting.X, setting.r, params))
        for info in (info_known_mean, info_poisson_size, info_full))
    rho = (v_known / v_poisson) ** 0.25
    gamma = (v_poisson / v_full) ** 0.25
    for name, v in (("rho", rho), ("gamma", gamma)):
        # A negative variance ratio has a complex fourth root.
        if isinstance(v, complex) or not 0.0 < v <= 1.0 + 1e-12:
            raise RuntimeError(
                f"{name} = {v!r} lies outside (0, 1]: the information "
                "matrices are too ill-conditioned to invert stably (largest "
                f"condition {max(c_known, c_poisson, c_full):.3e})")
    return EffResult(rho=rho, gamma=gamma, rho_gamma=rho * gamma)


def _ascending_grid(values: Sequence[float], name: str) -> list[float]:
    """values as floats, checked positive and strictly ascending."""
    grid = [float(v) for v in values]
    if any(v <= 0 for v in grid):
        raise ValueError(f"{name} grid must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly ascending")
    return grid


def gamma_curve(setting: EffSetting,
                alpha_grid: Sequence[float]) -> list[tuple[float, float]]:
    """gamma evaluated along an ascending grid of shape values.

    The design, slope, and size mean come from the setting; its alpha is
    ignored in favor of the grid.
    """
    grid = _ascending_grid(alpha_grid, "alpha")
    base = setting.params
    v_poisson, _ = _slope_variance(info_poisson_size(setting.X, setting.r, base))
    out = []
    for a in grid:
        params = ModelParams(beta=base.beta, mu=base.mu, alpha=a)
        v_full, _ = _slope_variance(info_full(setting.X, setting.r, params))
        out.append((a, (v_poisson / v_full) ** 0.25))
    return out


def sd_vs_mu_curves(setting: EffSetting,
                    mu_grid: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Asymptotic standard deviations (sd_beta0, sd_beta1, sd_mu) of the
    full-model estimates along an ascending grid of size means.

    The intercept and slope columns are nonincreasing in the mean and the
    mean's own column nondecreasing: more latent counts pin the response
    probabilities down better while the mean itself gets harder to separate.
    """
    grid = _ascending_grid(mu_grid, "mu")
    base = setting.params
    out = []
    for mu in grid:
        params = ModelParams(beta=base.beta, mu=mu, alpha=base.alpha)
        inv, _, _ = inverse_with_condition(info_full(setting.X, setting.r, params))
        out.append((
            mu,
            float(np.sqrt(inv[0, 0])),
            float(np.sqrt(inv[1, 1])),
            float(np.sqrt(inv[2, 2])),
        ))
    return out
