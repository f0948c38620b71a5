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
A setting keeps the link h at its rows. A table's settings, and a curve's
grid, have their information matrices built and inverted as stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .information import (_design_arrays, _info_stack, _known_sizes_gram,
                          inverse_with_condition)
from .model import INFINITE, ModelParams

__all__ = [
    "EffSetting",
    "EffResult",
    "builtin_designs",
    "table_settings",
    "efficiency_measures",
    "efficiency_table",
    "gamma_curve",
    "make_setting",
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
    h: np.ndarray = field(init=False, repr=False)  # read-only link at each row

    def __post_init__(self) -> None:
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        X, r, h = _design_arrays(self.X, self.r, self.params)
        h.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "h", h)

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


def _measure(name: str, ratio: float, cond: float) -> float:
    """The fourth root of a variance ratio, refused with RuntimeError outside
    (0, 1], which only an unstable inverse of an ill-conditioned information
    matrix produces; cond is the largest condition number behind the ratio."""
    v = ratio ** 0.25
    # A negative variance ratio has a complex fourth root.
    if isinstance(v, complex) or not 0.0 < v <= 1.0 + 1e-12:
        raise RuntimeError(
            f"{name} = {v!r} lies outside (0, 1]: the information "
            "matrices are too ill-conditioned to invert stably (largest "
            f"condition {cond:.3e})")
    return v


def efficiency_measures(setting: EffSetting) -> EffResult:
    """efficiency_table([setting])[0]: the setting's rho, gamma and product,
    or efficiency_table's RuntimeError or np.linalg.LinAlgError."""
    return efficiency_table([setting])[0]


def _evaluate(settings: Sequence[EffSetting]) -> list[EffResult]:
    """efficiency_table on settings of one design shape, without retries."""
    X, r, h = (np.stack([getattr(s, k) for s in settings]) for k in "Xrh")
    mu = np.array([[s.mu] for s in settings], dtype=float)
    known, c_known = inverse_with_condition(_known_sizes_gram(X, r, h, mu))
    inv, conds = inverse_with_condition(_info_stack(
        X[:, None], r[:, None], h[:, None], mu,
        [[INFINITE, s.alpha] for s in settings]))
    out = []
    # Python floats, divided and rooted in setting order, rho before gamma.
    for v_known, (v_poisson, v_full), cond in zip(
            known[:, 1, 1].tolist(), inv[..., 1, 1].tolist(),
            np.maximum(c_known, conds.max(axis=1)).tolist()):
        rho = _measure("rho", v_known / v_poisson, cond)
        gamma = _measure("gamma", v_poisson / v_full, cond)
        out.append(EffResult(rho=rho, gamma=gamma, rho_gamma=rho * gamma))
    return out


def efficiency_table(settings: Sequence[EffSetting]) -> list[EffResult]:
    """rho, gamma, and their product for the slope coefficient, per setting:
    fourth roots of the marginal variance ratios observed-sizes/Poisson-size
    and Poisson-size/full (gamma = 1 at alpha = INFINITE). All settings'
    matrices form two stacks, each inverted in one call, so the designs must
    share one shape (ValueError). The first setting k (from 1) to fail alone
    raises its error with " (setting k)" appended: RuntimeError for a measure
    outside (0, 1], np.linalg.LinAlgError for a non-finite matrix or one with
    an eigenvalue too close to zero to invert (as at a size mean of 1e-310).
    """
    if len(shapes := sorted({s.X.shape for s in settings})) != 1:
        raise ValueError(f"settings need one design shape, got {shapes}")
    try:
        return _evaluate(settings)
    except (RuntimeError, np.linalg.LinAlgError) as stacked:
        # A stack reports its first failure anywhere, not the first setting's.
        for k, setting in enumerate(settings, start=1):
            try:
                _evaluate([setting])
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                raise type(exc)(f"{exc} (setting {k})") from None
        raise stacked


def _ascending_grid(values: Sequence[float], name: str, finite=False) -> list[float]:
    """values as floats: positive (NaN is not), finite if asked, strictly ascending."""
    grid = [float(v) for v in values]
    if not all(v > 0 and (v < INFINITE or not finite) for v in grid):
        raise ValueError(f"{name} grid must be positive" + " and finite" * finite)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly ascending")
    return grid


def gamma_curve(setting: EffSetting,
                alpha_grid: Sequence[float]) -> list[tuple[float, float]]:
    """gamma evaluated along an ascending grid of shape values.

    The design, slope, and size mean come from the setting; its alpha is
    ignored in favor of the grid, evaluated with the Poisson-size point as
    one stack. Raises RuntimeError when a gamma falls outside (0, 1], as
    efficiency_measures does.
    """
    grid = _ascending_grid(alpha_grid, "alpha")
    inv, cond = inverse_with_condition(_info_stack(
        setting.X, setting.r, setting.h, setting.mu, [INFINITE] + grid))
    # Python floats, as efficiency_measures divides and takes roots.
    (v_poisson, *v_full), (c_poisson, *c_full) = inv[:, 1, 1].tolist(), cond.tolist()
    return [(a, _measure("gamma", v_poisson / v, max(c_poisson, c)))
            for a, v, c in zip(grid, v_full, c_full)]


def sd_vs_mu_curves(setting: EffSetting,
                    mu_grid: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Asymptotic standard deviations (sd_beta0, sd_beta1, sd_mu) of the
    full-model estimates along an ascending grid of size means.

    The intercept and slope columns are nonincreasing in the mean and the
    mean's own column nondecreasing: more latent counts pin the response
    probabilities down better while the mean itself gets harder to separate.
    The grid is one stacked evaluation, as in gamma_curve. Raises
    RuntimeError when an unstable inverse gives a non-positive variance.
    """
    grid = _ascending_grid(mu_grid, "mu", finite=True)
    inv, cond = inverse_with_condition(_info_stack(
        setting.X, setting.r, setting.h, grid, setting.alpha))
    var = np.diagonal(inv, axis1=-2, axis2=-1)[:, :3]
    for mu, v, c in zip(grid, var, cond):
        if not np.all(v > 0.0):
            raise RuntimeError(
                f"non-positive variance at mu = {mu!r}: the information matrix "
                f"is too ill-conditioned to invert stably (condition {c:.3e})")
    return [(mu, *sd) for mu, sd in zip(grid, np.sqrt(var).tolist())]
