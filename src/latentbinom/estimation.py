"""Maximum likelihood fitting, standard errors, Wald intervals, and the
likelihood-ratio test between the full latent-size model and its Poisson-size
submodel.

Optimization runs in unconstrained coordinates (beta, log mu[, log alpha])
with the analytic score: a quasi-Newton stage (BFGS) followed by a damped
Newton polish using the analytic Hessian. Each trial point's link is
evaluated once and passed to one derivative pass of the order it needs: the
score in the quasi-Newton stage, the value alone at a polish trial, and the
Hessian too at each accepted point, which the next step and the result
read; only the quasi-Newton result's link is evaluated again, for its
Hessian. The quasi-Newton stage asks again for points it has seen; a memo
that lasts one fit, keyed on the exact coordinates, answers those repeats
with the same bits, so it evaluates each distinct point once. Standard
errors come from the inverse of the negated observed Hessian at the
estimate, which is also what reproduces the reference results; the
expected-information matrices in the information module stay available for
cross-checks. The BFGS stage is scipy.optimize's, imported by the first fit,
so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .information import NEAR_SINGULAR_CONDITION, inverse_with_condition
from .model import Dataset, ModelParams, INFINITE, _derivatives, _point

__all__ = [
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


@dataclass(frozen=True, eq=False)
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

    @property
    def model(self) -> str:
        """"poisson_size" when alpha is INFINITE, else "full"."""
        return "poisson_size" if self.params.is_poisson_size else "full"


@dataclass(frozen=True)
class LrtResult:
    statistic: float
    p_value: float
    reject_poisson: bool
    significance_level: float


def _unpack(p: np.ndarray, d: int) -> ModelParams:
    """The full model when p holds log alpha after (beta, log mu)."""
    beta = p[:d]
    mu = math.exp(min(max(p[d], -_LOG_MU_BOUND), _LOG_MU_BOUND))
    if p.size == d + 1:
        return ModelParams(beta=beta, mu=mu, alpha=INFINITE)
    alpha = math.exp(min(max(p[d + 1], -_LOG_ALPHA_BOUND), _LOG_ALPHA_BOUND))
    return ModelParams(beta=beta, mu=mu, alpha=alpha)


def _transformed_grad(params: ModelParams, raw: np.ndarray) -> np.ndarray:
    g = raw.copy()
    d = params.beta.size
    g[d] *= params.mu
    if not params.is_poisson_size:
        g[d + 1] *= params.alpha
    return g


def _transformed_hess(params: ModelParams, raw_h: np.ndarray,
                      raw_g: np.ndarray) -> np.ndarray:
    d = params.beta.size
    mu = params.mu
    H = raw_h.copy()
    H[d, :] *= mu
    H[:, d] *= mu
    H[d, d] += mu * raw_g[d]
    if not params.is_poisson_size:
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


def _optimize(data: Dataset, p0: np.ndarray):
    d = data.d
    # BFGS's line searches return to their base point, and a failed one is
    # walked again by the fallback search: about a third of its requests.
    seen: dict[bytes, tuple[float, np.ndarray]] = {}

    def objective(p):
        # `point` holds the last point until the next exists; freed between
        # evaluations, its arrays let glibc trim the heap and fault pages back
        # in (473k vs 17k minor faults: 1,400 (ll, score) pairs, 2e4 rows).
        nonlocal point
        key = p.tobytes()
        if key not in seen:
            params = _unpack(p, d)
            point = _point(data, params)
            ll, raw_g = _derivatives(data, params, point, 1)
            seen[key] = (-ll, -_transformed_grad(params, raw_g))
        f, g = seen[key]
        return f, g.copy()  # scipy may write to the gradient it is given

    # Here, not at module top: scipy.optimize is ~75% of the package's import time.
    from scipy.optimize import minimize
    with np.errstate(**_QUIET):
        res = minimize(objective, p0, jac=True, method="BFGS",
                       options={"gtol": _GRAD_TOL, "maxiter": _MAX_ITER})
        p = res.x.copy()
        params = _unpack(p, d)
        point = _point(data, params)  # drops the objective's last point
        ll, raw_g, raw_h = _derivatives(data, params, point, 2)
        n_iter = int(res.nit)

        # Damped Newton refinement with the analytic Hessian. The quasi-Newton
        # stage often exits on a failed line search a few digits short of the
        # gradient target; these steps close the gap when the Hessian allows.
        # Near the maximum the objective is flat to float resolution while
        # the gradient is still computable accurately, so a step that leaves
        # the log-likelihood unchanged within evaluation noise but clearly
        # shrinks the gradient is also accepted. Each accepted point gets one
        # order-2 pass, which the next step and the result both read.
        ll_slack = 1e3 * np.finfo(float).eps * (1.0 + abs(ll))
        for _ in range(_POLISH_STEPS):
            g = _transformed_grad(params, raw_g)
            g_norm = np.max(np.abs(g))
            if g_norm < _GRAD_TOL:
                break
            Ht = _transformed_hess(params, raw_h, raw_g)
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
                cand_params = _unpack(cand, d)
                cand_point = _point(data, cand_params)
                (cand_ll,) = _derivatives(data, cand_params, cand_point, 0)
                accept = cand_ll > ll
                if not accept and cand_ll >= ll - ll_slack:
                    _, cand_g = _derivatives(data, cand_params, cand_point, 1)
                    accept = (np.max(np.abs(_transformed_grad(cand_params, cand_g)))
                              < 0.9 * g_norm)
                if accept:
                    p, params, point = cand, cand_params, cand_point
                    ll, raw_g, raw_h = _derivatives(data, params, point, 2)
                    improved = True
                    break
                step *= 0.5
            n_iter += 1
            if not improved:
                break

    g = _transformed_grad(params, raw_g)
    converged = bool(
        np.max(np.abs(g)) < _GRAD_TOL or np.max(np.abs(raw_g)) < _RAW_SCORE_TOL
    )
    return params, ll, converged, n_iter, raw_h


def _standard_errors(params: ModelParams,
                     raw_h: np.ndarray) -> tuple[np.ndarray, float, list[str]]:
    notes: list[str] = []
    cov, cond = inverse_with_condition(-raw_h)
    near_singular = not cond < NEAR_SINGULAR_CONDITION
    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.diag(cov))
    if np.any(~np.isfinite(se)):
        notes.append("indefinite Hessian: some standard errors unavailable")
    if near_singular:
        notes.append(f"near-singular Hessian (condition {cond:.3e})")
    if not params.is_poisson_size:
        a_idx = params.beta.size + 1
        a_var = cov[a_idx, a_idx]
        if a_var > _ALPHA_VAR_FACTOR * params.alpha**2 or near_singular:
            se = se.copy()
            se[a_idx] = math.nan
            notes.append(
                "flat shape direction: alpha standard error withheld "
                f"(condition {cond:.3e})"
            )
    return se, cond, notes


def _fit(data: Dataset, p0: np.ndarray) -> FitResult:
    """Optimize from the transformed start p0, whose length names the model
    (see _unpack), and attach standard errors."""
    params, ll, converged, n_iter, raw_h = _optimize(data, p0)
    se, cond, notes = _standard_errors(params, raw_h)
    return FitResult(
        params=params, std_errors=se, loglik=ll, converged=converged,
        n_iterations=n_iter, info_condition=cond, diagnostics=tuple(notes),
    )


def _require_identifiable(data: Dataset, init: ModelParams | None) -> None:
    # _unpack splits the start vector by data.d: refuse any other length.
    if init is not None and init.beta.size != data.d:
        raise ValueError(f"dimension mismatch: dataset d={data.d}, "
                         f"init beta has {init.beta.size}")
    rank = int(np.linalg.matrix_rank(data.X))
    if rank < data.d:
        raise ValueError(
            f"rank-deficient design: the {data.d} covariate columns have rank "
            f"{rank}, so the regression coefficients are not identifiable")
    # mu h(x'beta) takes one value per distinct row: d or fewer leave (beta,
    # mu) a flat direction. Each pass drops the copies of the first row left.
    columns, left, distinct = data.X.T.copy(), np.ones(data.n_obs, bool), 0
    while distinct <= data.d and left.any():
        left &= np.logical_or.reduce(columns != columns[:, [left.argmax()]])
        distinct += 1
    if distinct <= data.d:
        raise ValueError(
            f"non-identifiable design: {distinct} distinct covariate rows for "
            f"{data.d + 1} parameters (beta, mu)")
    if not data.y.any():
        raise ValueError(
            "all counts are zero: the likelihood rises toward 1 as mu falls "
            "to 0, so no finite maximum exists")


def fit_poisson_size(data: Dataset, init: ModelParams | None = None) -> FitResult:
    """Fit the Poisson-size submodel (alpha = INFINITE) over (beta, mu).

    Raises ValueError on an init beta whose length is not the dataset's d,
    non-identifiable (beta, mu) or all-zero counts.
    """
    _require_identifiable(data, init)
    if init is not None:
        beta0, mu0 = np.asarray(init.beta, dtype=float), float(init.mu)
    else:
        beta0, mu0 = _default_beta_mu_init(data)
    return _fit(data, np.concatenate([beta0, [math.log(mu0)]]))


def fit_full(data: Dataset, init: ModelParams | None = None) -> FitResult:
    """Fit the full latent-size model over (beta, mu, alpha).

    Without an explicit init, fits the Poisson-size submodel first and starts
    from its beta and mu with alpha = 100. A Poisson-size init, such as the
    params of an existing fit_poisson_size result, gives that start directly:
    its beta and mu with alpha = 100, and the submodel is not fitted again.
    A full-model init is used as given. When the shape direction is too flat
    to carry information (huge variance or severe ill-conditioning), the
    alpha standard error is reported as NaN and a diagnostic explains why.
    Raises ValueError as fit_poisson_size does.
    """
    if init is None:
        init = fit_poisson_size(data).params
    else:
        _require_identifiable(data, init)
    beta0, mu0 = np.asarray(init.beta, float), float(init.mu)
    alpha0 = 100.0 if init.is_poisson_size else float(init.alpha)
    p0 = np.concatenate([beta0, [math.log(mu0), math.log(alpha0)]])
    return _fit(data, p0)


def likelihood_ratio_test(sub: FitResult, full: FitResult,
                          level: float = 0.05) -> LrtResult:
    """Test the Poisson-size submodel against the full model, given a
    converged fit of each to the same data.

    The submodel pins alpha at the edge of its range, so under the null the
    statistic is a half-half mixture of a point mass at zero and chi-square
    with one degree of freedom; the p-value uses that mixture.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if not sub.params.is_poisson_size or full.params.is_poisson_size:
        raise ValueError("fits must be a (poisson_size, full) pair")
    for fit in (sub, full):
        if not fit.converged:
            raise RuntimeError(
                f"{fit.model} fit did not converge: "
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
