"""Maximum likelihood fitting, standard errors, Wald intervals, and the
likelihood-ratio test between the full latent-size model and its Poisson-size
submodel.

Optimization runs in unconstrained coordinates (beta, log mu[, log alpha])
with the analytic score: a quasi-Newton stage (our BFGS loop, Moré-Thuente
line search and fallback Wolfe search, scipy 1.17's to the bit) followed by
a damped Newton polish using the analytic Hessian. Each trial point's link is
evaluated once and passed to one derivative pass of the order it needs: the
score in the quasi-Newton stage, the value alone at a polish trial, and the
Hessian too at each accepted point, which the next step and the result read;
BFGS's result reuses its last point unless it exits on precision loss. A
failing line search asks again for points it has made, and the fallback
search walks them again; a memo that lasts one fit, keyed on the exact
coordinates, answers those repeats with the same bits, so it evaluates each
distinct point once. Standard errors come from the inverse of the negated
observed Hessian at the estimate, which is also what reproduces the
reference results; the expected-information matrices in the information
module stay available for cross-checks. The fits run on numpy alone.
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


def _unpack(p: np.ndarray, d: int) -> tuple[np.ndarray, float, float]:
    """(beta, mu, alpha) as plain values from p = (beta, log mu[, log alpha])."""
    mu = math.exp(min(max(p[d], -_LOG_MU_BOUND), _LOG_MU_BOUND))
    if p.size == d + 1:
        return p[:d], mu, INFINITE
    return p[:d], mu, math.exp(min(max(p[d + 1], -_LOG_ALPHA_BOUND), _LOG_ALPHA_BOUND))


def _transformed_grad(d: int, point: tuple, raw: np.ndarray) -> np.ndarray:
    # log mu, then log alpha where the model has it; zip stops at raw's end.
    g = raw.copy()
    for i, s in zip(range(d, g.size), point[:2]):
        g[i] *= s
    return g


def _transformed_hess(d: int, point: tuple, raw_h: np.ndarray,
                      raw_g: np.ndarray) -> np.ndarray:
    # Row, column, then diagonal, mu before alpha: H * outer(s, s) would
    # round (x mu) alpha and x (mu alpha) differently.
    H = raw_h.copy()
    for i, s in zip(range(d, len(H)), point[:2]):
        H[i, :] *= s
        H[:, i] *= s
        H[i, i] += s * raw_g[i]
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


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip(x, lo, hi) on floats, with its NaN and signed-zero results."""
    x = x if x != x or x >= lo else lo
    return x if x != x or x <= hi else hi


def _dcstep_at(sqrt, brackt, stx, fx, dx, sty, fy, dy, stp, fp, dp, stpmin, stpmax):
    opposite = dp < 0 < dx or dx < 0 < dp  # np.sign(dp) * np.sign(dx) < 0
    higher = fp > fx
    if higher or opposite or abs(dp) < abs(dx):
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        disc = (theta / s) ** 2 - (dx / s) * (dp / s)
    if higher:  # a higher value: the cubic step, or its mean with the quadratic
        gamma = s * sqrt(disc)
        if stp < stx:
            gamma *= -1  # not -gamma: a NaN keeps its sign bit, as in scipy
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
    elif opposite:  # derivatives of opposite sign: the cubic or the secant step
        gamma = s * sqrt(disc)
        if stp > stx:
            gamma *= -1
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
    elif abs(dp) < abs(dx):  # the derivative shrinks: cubic only if it turns up
        gamma = s * sqrt(max(0, disc))
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        stpc = (stp + r * (stx - stp) if r < 0 and gamma != 0
                else stpmax if stp > stx else stpmin)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            stpf = (min if stp > stx else max)(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = _clip(stpc if abs(stpc - stp) > abs(stpq - stp) else stpq, stpmin, stpmax)
    elif brackt:  # it does not shrink: the cubic step towards sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if higher:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt or higher or opposite


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's dcstep (Moré & Thuente 1994), operation for operation as
    scipy 1.17 ports it, on plain floats: the next step and the new interval.
    Python raises where numpy gives inf or NaN (a zero divisor, an overflowing
    square, a negative root); such a call runs again on numpy scalars."""
    floats = stx, fx, dx, sty, fy, dy, stp, fp, dp, stpmin, stpmax
    try:
        return _dcstep_at(math.sqrt, brackt, *floats)
    except (ZeroDivisionError, OverflowError, ValueError):
        with np.errstate(all="ignore"):
            *out, brackt = _dcstep_at(np.sqrt, brackt, *map(np.float64, floats))
        return (*map(float, out), brackt)


# line_search_wolfe1 as BFGS calls it: c1, c2, xtol and the step bounds.
_C1, _C2, _XTOL, _AMIN, _AMAX = 1e-4, 0.9, 1e-14, 1e-100, 1e100


def _wolfe1(objective, xk, pk, gfk, old_fval, old_old_fval):
    """(step, f, gradient) of scipy 1.17's line_search_wolfe1 with amin _AMIN
    and amax _AMAX, bit for bit and trial for trial: MINPACK-2's dcsrch on
    plain floats, one objective request per trial. A failed search returns
    step None with the last trial's f and gradient, or xk's if it made none."""
    ginit = float(np.dot(gfk, pk))
    stp = min(1.0, 1.01 * 2 * (old_fval - old_old_fval) / ginit) if ginit != 0 else 1.0
    stp = 1.0 if stp < 0 else stp
    if stp < _AMIN or ginit >= 0:  # dcsrch's input errors; stp is at most 1
        return None, old_fval, gfk
    gtest, brackt, stage = _C1 * ginit, False, 1
    width, width1 = _AMAX - _AMIN, (_AMAX - _AMIN) / 0.5
    stx, fx, gx, sty, fy, gy = 0.0, old_fval, ginit, 0.0, old_fval, ginit
    stmin, stmax = 0.0, stp + 4.0 * stp
    for trial in range(100):
        f, gval = objective(xk + stp * pk)
        if trial == 99:  # dcsrch's iteration cap
            break
        g = float(np.dot(gval, pk))
        ftest = old_fval + stp * gtest
        stage = 2 if f <= ftest and g >= 0 else stage
        if f <= ftest and abs(g) <= _C2 * -ginit:
            return stp, f, gval
        if (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax)
                or stp == _AMAX and f <= ftest and g <= gtest
                or stp == _AMIN and (f > ftest or g >= gtest)):
            break  # dcsrch's warnings
        if stage == 1 and f <= fx and f > ftest:  # the modified function psi
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax)
            fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = _clip(stp, _AMIN, _AMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax):
            stp = stx  # no further progress: back to the best step
        if not math.isfinite(stp):
            break
    return None, f, gval


def _quadmin(a, fa, fpa, b, fb):
    """scipy's _quadmin: the minimizer of the quadratic through (a, fa) and
    (b, fb) with slope fpa at a, or None. The slope is a numpy scalar, as
    scipy's derphi returns, so numpy raises where scipy's does."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            C, db = np.float64(fpa), b - a
            xmin = a - C / (2.0 * ((fb - fa - C * db) / (db * db)))
        except ArithmeticError:
            return None
    return float(xmin) if math.isfinite(xmin) else None


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """scipy's _cubicmin, through (c, fc) too, as _quadmin. Its 2x2 product
    stays np.dot: a*b + c*d can round differently."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            C, db, dc = np.float64(fpa), b - a, c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.array([[dc ** 2, -db ** 2], [-dc ** 3, db ** 3]])
            A, B = np.dot(d1, np.asarray([fb - fa - C * db, fc - fa - C * dc])) / denom
            xmin = a + (-B + np.sqrt(B * B - 3 * A * C)) / (3 * A)
        except ArithmeticError:
            return None
    return float(xmin) if math.isfinite(xmin) else None


def _zoom(objective, xk, pk, a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi0, derphi0):
    """scipy's _zoom (Nocedal & Wright 2006, Alg. 3.6), at most 11 trials;
    the first sets (a_rec, phi_rec), which scipy's initial values leave unread."""
    for i in range(11):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        if i > 0:  # the cubic, else the quadratic, else bisection
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if i == 0 or a_j is None or a_j > b - 0.2 * dalpha or a_j < a + 0.2 * dalpha:
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - 0.1 * dalpha or a_j < a + 0.1 * dalpha:
                a_j = a_lo + 0.5 * dalpha
        f, g = objective(xk + a_j * pk)
        if f > phi0 + _C1 * a_j * derphi0 or f >= phi_lo:
            phi_rec, a_rec, a_hi, phi_hi = phi_hi, a_hi, a_j, f
            continue
        slope = float(np.dot(g, pk))
        if abs(slope) <= -_C2 * derphi0:
            return a_j, f, g
        if slope * (a_hi - a_lo) >= 0:
            phi_rec, a_rec, a_hi, phi_hi = phi_hi, a_hi, a_lo, phi_lo
        else:
            phi_rec, a_rec = phi_lo, a_lo
        a_lo, phi_lo, derphi_lo = a_j, f, slope
    return None, None, None


def _wolfe2(objective, xk, pk, gfk, old_fval, old_old_fval):
    """(step, f, gradient) of scipy 1.17's line_search_wolfe2 with amax _AMAX,
    bit for bit and trial for trial: one objective request per trial, and a
    slope along pk only where scipy asks for one. A failed search returns
    step None; one out of iterations, its last step and f but no gradient."""
    derphi0 = float(np.dot(gfk, pk))
    alpha1 = min(1.0, 1.01 * 2 * (old_fval - old_old_fval) / derphi0) if derphi0 != 0 else 1.0
    alpha1 = 1.0 if alpha1 < 0 else alpha1
    # amax never binds: ten doublings from a first step of at most 1.
    alpha0, phi_a0, derphi_a0 = 0.0, old_fval, derphi0
    phi_a1, g1 = objective(xk + alpha1 * pk)
    if alpha1 == 0:  # rounding errors: the first step slipped below resolution
        return None, None, None
    for i in range(10):
        if phi_a1 > old_fval + _C1 * alpha1 * derphi0 or i > 0 and phi_a1 >= phi_a0:
            return _zoom(objective, xk, pk, alpha0, alpha1, phi_a0, phi_a1, derphi_a0,
                         old_fval, derphi0)
        derphi_a1 = float(np.dot(g1, pk))
        if abs(derphi_a1) <= -_C2 * derphi0:
            return alpha1, phi_a1, g1
        if derphi_a1 >= 0:
            return _zoom(objective, xk, pk, alpha1, alpha0, phi_a1, phi_a0, derphi_a1,
                         old_fval, derphi0)
        alpha0, alpha1, phi_a0, derphi_a0 = alpha1, 2 * alpha1, phi_a1, derphi_a1
        phi_a1, g1 = objective(xk + alpha1 * pk)
    return alpha1, phi_a1, None


def _bfgs(objective, p0: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, iterations) of scipy 1.17's minimize(objective, p0, jac=True,
    method="BFGS") with gtol _GRAD_TOL and maxiter _MAX_ITER, step for step:
    BFGS (Nocedal & Wright 2006, Alg. 6.1) with Moré-Thuente and fallback Wolfe
    line searches. A failed search (precision loss) or a non-finite f stops at xk."""
    (old_fval, gfk), xk, k = objective(p0), p0, 0
    Hk = I = np.eye(len(p0), dtype=int)
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2  # a first step of about 1
    gnorm = np.maximum.reduce(np.abs(gfk))
    while gnorm > _GRAD_TOL and k < _MAX_ITER:
        pk = -np.dot(Hk, gfk)
        alpha_k, fval, gfkp1 = _wolfe1(objective, xk, pk, gfk, old_fval, old_old_fval)
        if alpha_k is None:
            alpha_k, fval, gfkp1 = _wolfe2(objective, xk, pk, gfk, old_fval, old_old_fval)
            if alpha_k is None:
                break
        old_fval, old_old_fval = fval, old_fval
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = objective(xk)[1]
        yk, gfk, k = gfkp1 - gfk, gfkp1, k + 1
        gnorm = np.maximum.reduce(np.abs(gfk))
        # scipy's step test at xrtol = 0: a NaN on either side keeps going.
        if (gnorm <= _GRAD_TOL or not np.isfinite(old_fval)
                or alpha_k * np.add.reduce(np.abs(pk) ** 2) ** 0.5
                <= 0 * np.add.reduce(np.abs(xk) ** 2) ** 0.5):
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0. else 1. / rhok_inv
        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = I - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])
    return xk, k


def _optimize(data: Dataset, p0: np.ndarray):
    d = data.d
    # A failing line search asks again for points it has made, and the
    # fallback search walks them again: about half of BFGS's requests repeat.
    seen: dict[bytes, tuple[float, np.ndarray]] = {}
    last = None

    def objective(p):
        # `last` holds the last point made until the next exists; freed between
        # evaluations, its arrays let glibc trim the heap and fault pages back
        # in (473k vs 17k minor faults: 1,400 (ll, score) pairs, 2e4 rows).
        nonlocal last
        key = p.tobytes()
        if key not in seen:
            last = key, _point(data, *_unpack(p, d))
            ll, raw_g = _derivatives(data, last[1], 1)
            seen[key] = (-ll, -_transformed_grad(d, last[1], raw_g))
        f, g = seen[key]
        return f, g.copy()  # a caller's write must not reach the memo

    with np.errstate(**_QUIET):
        p, n_iter = _bfgs(objective, p0)
        (key, point), last = last, None  # the objective's last point
        if key != p.tobytes():  # an exit on precision loss returns an earlier one
            point = _point(data, *_unpack(p, d))
        ll, raw_g, raw_h = _derivatives(data, point, 2)

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
            g = _transformed_grad(d, point, raw_g)
            g_norm = np.max(np.abs(g))
            if g_norm < _GRAD_TOL:
                break
            Ht = _transformed_hess(d, point, raw_h, raw_g)
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
                cand_point = _point(data, *_unpack(cand, d))
                (cand_ll,) = _derivatives(data, cand_point, 0)
                accept = cand_ll > ll
                if not accept and cand_ll >= ll - ll_slack:
                    _, cand_g = _derivatives(data, cand_point, 1)
                    accept = (np.max(np.abs(_transformed_grad(d, cand_point, cand_g)))
                              < 0.9 * g_norm)
                if accept:
                    p, point = cand, cand_point
                    ll, raw_g, raw_h = _derivatives(data, point, 2)
                    improved = True
                    break
                step *= 0.5
            n_iter += 1
            if not improved:
                break

    g = _transformed_grad(d, point, raw_g)
    converged = bool(
        np.max(np.abs(g)) < _GRAD_TOL or np.max(np.abs(raw_g)) < _RAW_SCORE_TOL
    )
    return ModelParams(p[:d], *point[:2]), ll, converged, n_iter, raw_h


def _standard_errors(params: ModelParams,
                     raw_h: np.ndarray) -> tuple[np.ndarray, float, list[str]]:
    notes: list[str] = []
    try:
        cov, cond = inverse_with_condition(-raw_h)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"observed information at the estimate: {exc}") from None
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
    non-identifiable (beta, mu) or all-zero counts, and LinAlgError when the
    observed information at the stopping point is non-finite or uninvertible.
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
    Raises ValueError and LinAlgError as fit_poisson_size does.
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
    if 1.0 - level / 2.0 == 1.0:  # the quantile would be infinite
        raise ValueError(f"level {level!r} is below float resolution")
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
