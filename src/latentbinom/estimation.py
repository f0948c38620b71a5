"""Maximum likelihood fitting, standard errors, Wald intervals, and the
likelihood-ratio test between the full latent-size model and its Poisson-size
submodel.

Optimization runs in unconstrained coordinates (beta, log mu[, log alpha])
with the analytic score: a quasi-Newton stage (BFGS) followed by a damped
Newton polish using the analytic Hessian. Standard errors come from the
inverse of the negated observed Hessian at the estimate, which is also what
reproduces the reference results; the expected-information matrices in the
information module stay available for cross-checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
from scipy.optimize import minimize

from .information import NEAR_SINGULAR_CONDITION, inverse_with_condition
from .model import Dataset, ModelParams, INFINITE, hessian, log_likelihood, score

__all__ = [
    "ModelVariant",
    "FitResult",
    "LrtResult",
    "fit_poisson_size",
    "fit_full",
    "likelihood_ratio_test",
    "wald_ci",
]

# Transformed-coordinate guards: log mu and log alpha are clamped here so a
# runaway flat direction saturates instead of overflowing.
_LOG_MU_BOUND = 300.0
_LOG_ALPHA_BOUND = 30.0

_GRAD_TOL = 1e-8        # transformed-gradient max-norm declaring convergence
_RAW_SCORE_TOL = 1e-6   # fallback stationarity bound on the raw-parameter score
_MAX_ITER = 500
_POLISH_STEPS = 50

# Trial points far from the maximum may overflow or divide by zero in the
# likelihood and its derivatives; the optimizer and the standard errors
# judge the resulting inf and NaN themselves, so numpy stays quiet.
_QUIET = dict(over="ignore", divide="ignore", invalid="ignore")

# Flat-alpha diagnostics: the alpha standard error is withheld when its
# variance estimate exceeds (10 alpha-hat)^2 or the matrix is this badly
# conditioned.
_ALPHA_VAR_FACTOR = 100.0


class ModelVariant(enum.Enum):
    FULL = "full"
    POISSON_SIZE = "poisson_size"


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    std_errors aligns with params.as_array(); an entry is NaN when no usable
    standard error exists (flat direction or indefinite Hessian), with the
    reason recorded in diagnostics. info_condition is the condition number of
    the negated observed Hessian the standard errors came from.
    """

    params: ModelParams
    std_errors: np.ndarray
    loglik: float
    converged: bool
    n_iterations: int
    info_condition: float
    model_variant: ModelVariant
    diagnostics: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        se = np.asarray(self.std_errors, dtype=float)
        se.setflags(write=False)
        object.__setattr__(self, "std_errors", se)
        if self.converged and not math.isfinite(self.loglik):
            raise ValueError("a converged fit must have finite log-likelihood")
        with np.errstate(invalid="ignore"):
            if np.any(se[np.isfinite(se)] < 0):
                raise ValueError("standard errors must be non-negative")


@dataclass(frozen=True)
class LrtResult:
    statistic: float
    p_value: float
    reject_poisson: bool
    significance_level: float


def _unpack(p: np.ndarray, d: int, full: bool) -> ModelParams:
    beta = p[:d]
    mu = math.exp(min(max(p[d], -_LOG_MU_BOUND), _LOG_MU_BOUND))
    if not full:
        return ModelParams(beta=beta, mu=mu, alpha=INFINITE)
    alpha = math.exp(min(max(p[d + 1], -_LOG_ALPHA_BOUND), _LOG_ALPHA_BOUND))
    return ModelParams(beta=beta, mu=mu, alpha=alpha)


def _transformed_grad(params: ModelParams, raw: np.ndarray, full: bool) -> np.ndarray:
    g = raw.copy()
    d = params.beta.size
    g[d] *= params.mu
    if full:
        g[d + 1] *= params.alpha
    return g


def _transformed_hess(params: ModelParams, raw_h: np.ndarray, raw_g: np.ndarray,
                      full: bool) -> np.ndarray:
    d = params.beta.size
    mu = params.mu
    H = raw_h.copy()
    H[d, :] *= mu
    H[:, d] *= mu
    H[d, d] += mu * raw_g[d]
    if full:
        a = params.alpha
        H[d + 1, :] *= a
        H[:, d + 1] *= a
        H[d + 1, d + 1] += a * raw_g[d + 1]
    return H


def _default_beta_mu_init(data: Dataset) -> tuple[np.ndarray, float]:
    """Cheap starting point: least squares on empirical logits, then match
    the largest count through the fitted link."""
    y_max = int(data.y.max())
    p = (data.y + 0.5) / (y_max + 1.0)
    p = np.clip(p, 1e-6, 1.0 - 1e-6)
    z = np.log(p / (1.0 - p))
    beta, *_ = np.linalg.lstsq(data.X, z, rcond=None)
    t = data.X @ beta
    h_max = float(1.0 / (1.0 + np.exp(-t.max())))
    mu = max(y_max / max(h_max, 1e-12), 1e-6)
    return beta, mu


def _optimize(data: Dataset, p0: np.ndarray, full: bool):
    d = data.d

    def objective(p):
        params = _unpack(p, d, full)
        ll = log_likelihood(data, params)
        g = _transformed_grad(params, score(data, params), full)
        return -ll, -g

    with np.errstate(**_QUIET):
        res = minimize(objective, p0, jac=True, method="BFGS",
                       options={"gtol": _GRAD_TOL, "maxiter": _MAX_ITER})
        p = res.x.copy()
        params = _unpack(p, d, full)
        ll = log_likelihood(data, params)
        n_iter = int(res.nit)

        # Damped Newton refinement with the analytic Hessian. The quasi-Newton
        # stage often exits on a failed line search a few digits short of the
        # gradient target; these steps close the gap when the Hessian allows.
        # Near the maximum the objective is flat to float resolution while
        # the gradient is still computable accurately, so a step that leaves
        # the log-likelihood unchanged within evaluation noise but clearly
        # shrinks the gradient is also accepted.
        ll_slack = 1e3 * np.finfo(float).eps * (1.0 + abs(ll))
        g_norm = math.inf
        for _ in range(_POLISH_STEPS):
            raw_g = score(data, params)
            g = _transformed_grad(params, raw_g, full)
            g_norm = np.max(np.abs(g))
            if g_norm < _GRAD_TOL:
                break
            Ht = _transformed_hess(params, hessian(data, params), raw_g, full)
            try:
                delta = np.linalg.solve(Ht, -g)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(delta)):
                break
            biggest = np.max(np.abs(delta))
            if biggest > 2.0:
                delta *= 2.0 / biggest
            step = 1.0
            improved = False
            for _ in range(30):
                cand = p + step * delta
                cand_params = _unpack(cand, d, full)
                cand_ll = log_likelihood(data, cand_params)
                accept = cand_ll > ll
                if not accept and cand_ll >= ll - ll_slack:
                    cand_g = _transformed_grad(
                        cand_params, score(data, cand_params), full)
                    accept = np.max(np.abs(cand_g)) < 0.9 * g_norm
                if accept:
                    p, params, ll = cand, cand_params, cand_ll
                    improved = True
                    break
                step *= 0.5
            n_iter += 1
            if not improved:
                break

    raw_g = score(data, params)
    g = _transformed_grad(params, raw_g, full)
    converged = bool(
        np.max(np.abs(g)) < _GRAD_TOL or np.max(np.abs(raw_g)) < _RAW_SCORE_TOL
    )
    return params, ll, converged, n_iter


def _standard_errors(data: Dataset, params: ModelParams,
                     alpha_guard: bool) -> tuple[np.ndarray, float, list[str]]:
    notes: list[str] = []
    with np.errstate(**_QUIET):
        neg_h = -hessian(data, params)
    cov, cond, near_singular = inverse_with_condition(neg_h)
    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.diag(cov))
    if np.any(~np.isfinite(se)):
        notes.append("indefinite Hessian: some standard errors unavailable")
    if near_singular:
        notes.append(f"near-singular Hessian (condition {cond:.3e})")
    if alpha_guard:
        a_idx = params.beta.size + 1
        a_var = cov[a_idx, a_idx]
        if (a_var > _ALPHA_VAR_FACTOR * params.alpha**2
                or not cond < NEAR_SINGULAR_CONDITION):
            se = se.copy()
            se[a_idx] = math.nan
            notes.append(
                "flat shape direction: alpha standard error withheld "
                f"(condition {cond:.3e})"
            )
    return se, cond, notes


def _boundary_result(data: Dataset, variant: ModelVariant) -> FitResult:
    d = data.d
    n = d + (1 if variant is ModelVariant.POISSON_SIZE else 2)
    params = ModelParams(
        beta=np.zeros(d), mu=1.0,
        alpha=INFINITE if variant is ModelVariant.POISSON_SIZE else 1.0,
    )
    return FitResult(
        params=params,
        std_errors=np.full(n, math.nan),
        loglik=math.nan,
        converged=False,
        n_iterations=0,
        info_condition=math.inf,
        model_variant=variant,
        diagnostics=(
            "boundary: all counts are zero, the likelihood increases without "
            "bound as the intercept decreases; no finite maximum exists",
        ),
    )


def _require_full_rank(data: Dataset) -> None:
    rank = int(np.linalg.matrix_rank(data.X))
    if rank < data.d:
        raise ValueError(
            f"rank-deficient design: the {data.d} covariate columns have rank "
            f"{rank}, so the regression coefficients are not identifiable")


def fit_poisson_size(data: Dataset, init: ModelParams | None = None) -> FitResult:
    """Fit the Poisson-size submodel (alpha = INFINITE) over (beta, mu).

    Raises ValueError when the design matrix has rank below its column count.
    """
    _require_full_rank(data)
    if int(data.y.max()) == 0:
        return _boundary_result(data, ModelVariant.POISSON_SIZE)
    if init is not None:
        beta0, mu0 = np.asarray(init.beta, dtype=float), float(init.mu)
    else:
        beta0, mu0 = _default_beta_mu_init(data)
    p0 = np.concatenate([beta0, [math.log(mu0)]])
    params, ll, converged, n_iter = _optimize(data, p0, full=False)
    se, cond, notes = _standard_errors(data, params, alpha_guard=False)
    return FitResult(
        params=params, std_errors=se, loglik=ll, converged=converged,
        n_iterations=n_iter, info_condition=cond,
        model_variant=ModelVariant.POISSON_SIZE, diagnostics=tuple(notes),
    )


def fit_full(data: Dataset, init: ModelParams | None = None) -> FitResult:
    """Fit the full latent-size model over (beta, mu, alpha).

    Without an explicit init, fits the Poisson-size submodel first and starts
    from its beta and mu with alpha = 100. A Poisson-size init, such as the
    params of an existing fit_poisson_size result, gives that start directly:
    its beta and mu with alpha = 100, and the submodel is not fitted again.
    A full-model init is used as given. When the shape direction is too flat
    to carry information (huge variance or severe ill-conditioning), the
    alpha standard error is reported as NaN and a diagnostic explains why.
    Raises ValueError when the design matrix has rank below its column count.
    """
    _require_full_rank(data)
    if int(data.y.max()) == 0:
        return _boundary_result(data, ModelVariant.FULL)
    if init is None:
        init = fit_poisson_size(data).params
    beta0, mu0 = np.asarray(init.beta, float), float(init.mu)
    alpha0 = 100.0 if init.is_poisson_size else float(init.alpha)
    p0 = np.concatenate([beta0, [math.log(mu0), math.log(alpha0)]])
    params, ll, converged, n_iter = _optimize(data, p0, full=True)
    se, cond, notes = _standard_errors(data, params, alpha_guard=True)
    return FitResult(
        params=params, std_errors=se, loglik=ll, converged=converged,
        n_iterations=n_iter, info_condition=cond,
        model_variant=ModelVariant.FULL, diagnostics=tuple(notes),
    )


def likelihood_ratio_test(
        data: Dataset, level: float = 0.05, *,
        fits: tuple[FitResult, FitResult] | None = None) -> LrtResult:
    """Test the Poisson-size submodel against the full model.

    The submodel pins alpha at the edge of its range, so under the null the
    statistic is a half-half mixture of a point mass at zero and chi-square
    with one degree of freedom; the p-value uses that mixture.

    ``fits`` passes existing (Poisson-size, full) fits of ``data`` to test
    instead of fitting both models here.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if fits is None:
        sub = fit_poisson_size(data)
        full = fit_full(data, init=sub.params)
    else:
        sub, full = fits
        if (sub.model_variant is not ModelVariant.POISSON_SIZE
                or full.model_variant is not ModelVariant.FULL):
            raise ValueError("fits must be a (poisson_size, full) pair")
    for fit in (sub, full):
        if not fit.converged:
            raise RuntimeError(
                f"{fit.model_variant.value} fit did not converge: "
                + "; ".join(fit.diagnostics or ("no diagnostics",))
            )
    statistic = 2.0 * (full.loglik - sub.loglik)
    if statistic < -1e-6:
        raise RuntimeError(
            f"full-model log-likelihood fell {-statistic / 2:.3e} below the "
            "submodel's; the full fit is untrustworthy"
        )
    statistic = max(statistic, 0.0)
    # The chi-square(1) tail beyond s is erfc(sqrt(s / 2)).
    p_value = 1.0 if statistic <= 0.0 else 0.5 * math.erfc(math.sqrt(statistic / 2.0))
    return LrtResult(
        statistic=float(statistic),
        p_value=p_value,
        reject_poisson=bool(p_value < level),
        significance_level=float(level),
    )


def wald_ci(fit: FitResult, level: float = 0.05) -> list[tuple[float, float]]:
    """Normal-theory intervals, estimate +/- z_(1-level/2) * SE, per parameter.

    Parameters with an absent (NaN) standard error get a (nan, nan) interval.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if not fit.converged:
        raise ValueError("confidence intervals require a converged fit")
    z = NormalDist().inv_cdf(1.0 - level / 2.0)
    out: list[tuple[float, float]] = []
    for est, se in zip(fit.params.as_array(), fit.std_errors):
        if math.isnan(se):
            out.append((math.nan, math.nan))
        else:
            out.append((float(est - z * se), float(est + z * se)))
    return out
