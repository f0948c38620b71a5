"""Maximum-likelihood fitting, standard errors, Wald intervals, and the LRT."""

import dataclasses
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats
from conftest import count_calls, expected_information

from latentbinom import estimation
from latentbinom import (Dataset, FitResult, INFINITE, NEAR_SINGULAR_CONDITION,
                         ModelParams, builtin_designs, fit_full,
                         fit_poisson_size, generate_dataset, info_full,
                         inverse_with_condition,
                         jejunal_dataset, likelihood_ratio_test, make_setting,
                         score, table_settings, wald_ci)


def seeded(entropy, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(i,)))


def lrt(data, level=0.05):
    """The LRT of data as the CLI's auto mode runs it: the submodel first,
    then the full fit started from it."""
    sub = fit_poisson_size(data)
    return likelihood_ratio_test(sub, fit_full(data, init=sub.params), level)


def assert_same_fit(a, b):
    assert a.model == b.model
    assert np.array_equal(a.params.as_array(), b.params.as_array())
    assert np.array_equal(a.std_errors, b.std_errors, equal_nan=True)
    assert a.loglik == b.loglik
    assert a.converged == b.converged
    assert a.n_iterations == b.n_iterations
    assert a.info_condition == b.info_condition
    assert a.diagnostics == b.diagnostics


# -- Poisson-size submodel fit --------------------------------------------------


def test_poisson_fit_reproduces_published_estimates():
    fit = fit_poisson_size(jejunal_dataset())
    assert fit.converged
    assert fit.model == "poisson_size" and fit.params.is_poisson_size
    b0, b1, mu = fit.params.as_array()
    assert b0 == pytest.approx(6.705, abs=0.005)
    assert b1 == pytest.approx(-1.124, abs=0.005)
    assert mu == pytest.approx(196.2, abs=0.5)
    for se, want in zip(fit.std_errors, (0.764, 0.063, 47.4)):
        assert se == pytest.approx(want, rel=0.02)
    assert fit.loglik == pytest.approx(-354.83754744, rel=1e-9)


def test_poisson_fit_confidence_intervals_match_published():
    fit = fit_poisson_size(jejunal_dataset())
    cis = wald_ci(fit, 0.05)
    published = [(5.207, 8.203), (-1.248, -1.000), (103.4, 289.0)]
    tols = (0.01, 0.01, 0.5)
    for (lo, hi), (plo, phi), tol in zip(cis, published, tols):
        assert lo == pytest.approx(plo, abs=tol)
        assert hi == pytest.approx(phi, abs=tol)


def test_poisson_fit_initialization_invariant():
    data = jejunal_dataset()
    rng = np.random.default_rng(9)
    baseline = fit_poisson_size(data)
    for _ in range(10):
        init = ModelParams(
            beta=np.array([rng.uniform(4.0, 9.0), rng.uniform(-2.0, -0.5)]),
            mu=rng.uniform(100.0, 400.0), alpha=INFINITE)
        fit = fit_poisson_size(data, init)
        assert fit.converged
        assert abs(fit.loglik - baseline.loglik) < 1e-6
        assert np.max(np.abs(fit.params.as_array() - baseline.params.as_array())) < 1e-4


def test_poisson_fit_zero_noise_limit_recovers_beta():
    rng = np.random.default_rng(2024)
    setting = make_setting((-2.0, -1.0, 0.0, 1.0, 2.0), -0.8, 5000.0, INFINITE,
                           replications=40)
    data, _ = generate_dataset(setting, rng)
    fit = fit_poisson_size(data)
    assert fit.converged
    cis = wald_ci(fit, 0.05)
    for truth, (lo, hi) in zip((1.0, -0.8), cis):
        assert lo <= truth <= hi
        assert hi - lo < 0.1


def test_all_zero_counts_rejected():
    # Every P(y = 0) rises toward 1 as mu falls to 0: no finite maximum, so
    # no fit may report estimates, with or without a start.
    data = Dataset([0, 0, 0, 0], [[1.0, t] for t in (-1.0, 0.0, 1.0, 2.0)])
    starts = (ModelParams(beta=np.array([0.0, 1.0]), mu=5.0, alpha=INFINITE),
              ModelParams(beta=np.array([0.0, 1.0]), mu=5.0, alpha=20.0))
    calls = [lambda: fit_poisson_size(data), lambda: fit_full(data)]
    calls += [lambda init=init: fit_full(data, init=init) for init in starts]
    for call in calls:
        with pytest.raises(ValueError, match="all counts are zero"):
            call()


# -- full-model fit ---------------------------------------------------------------


def test_full_fit_flat_alpha_direction_on_crypt_data():
    data = jejunal_dataset()
    fit20 = fit_full(data, ModelParams(beta=np.array([6.7, -1.1]), mu=196.0, alpha=20.0))
    fit200 = fit_full(data, ModelParams(beta=np.array([6.7, -1.1]), mu=196.0, alpha=200.0))
    assert fit20.converged and fit200.converged
    assert abs(fit20.loglik - fit200.loglik) < 1e-3
    assert fit20.info_condition > 1e10
    assert fit200.info_condition > 1e10
    # The flat direction must be surfaced, not silently numbered.
    assert math.isnan(fit20.std_errors[-1])
    assert any("flat shape direction" in note for note in fit20.diagnostics)


def test_full_fit_close_to_poisson_fit_on_crypt_data():
    data = jejunal_dataset()
    full = fit_full(data)
    pois = fit_poisson_size(data)
    for est_full, est_pois, se in zip(full.params.as_array(),
                                      pois.params.as_array(), pois.std_errors):
        assert abs(est_full - est_pois) < se


def test_full_fit_alpha_interval_covers_truth():
    setting = table_settings()[0]
    assert np.array_equal(setting.beta, [1.0, 1.0])
    assert setting.mu == 100.0 and setting.alpha == 25.0
    hits = usable = 0
    for i in range(200):
        data, _ = generate_dataset(setting, seeded(1234, i))
        fit = fit_full(data)
        if not fit.converged or not np.isfinite(fit.std_errors[-1]):
            continue
        lo, hi = wald_ci(fit, 0.05)[-1]
        usable += 1
        hits += lo <= 25.0 <= hi
    assert usable > 150
    coverage = hits / usable
    assert 0.90 <= coverage <= 0.995


@pytest.mark.parametrize("case", ["jejunal", "simulated"])
def test_full_fit_from_poisson_fit_matches_fresh_fit(monkeypatch, case):
    if case == "jejunal":
        data = jejunal_dataset()
    else:
        setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0,
                               100.0, 5.0)
        data, _ = generate_dataset(setting, seeded(31, 0))
    fresh = fit_full(data)
    sub = fit_poisson_size(data)
    calls = count_calls(monkeypatch, estimation, ("fit_poisson_size",))
    reused = fit_full(data, init=sub.params)
    assert calls["fit_poisson_size"] == 0
    assert_same_fit(reused, fresh)


def test_optimizer_evaluates_through_module_names(monkeypatch):
    # Call counts per layer are read by wrapping these names in the
    # estimation namespace; a fit that bypassed them would read as zero.
    # Every trial point has one link evaluation, which the derivative passes
    # read: each point made is read, at no order twice. The optimizer's
    # repeated requests are answered from the fit's memo, and the first
    # order-2 pass reads the objective's last point, so no coordinates are
    # made twice, except when BFGS exits on precision loss (status 2, the
    # full fit here): its result is an earlier point, made again. On the
    # jejunal data BFGS asks for 24 and 170 points (23 and 71 distinct), and
    # the fits make 23 (all distinct) and 73 (72 distinct).
    data = jejunal_dataset()
    points, passes = [], []
    point, derivatives = estimation._point, estimation._derivatives

    def counted_point(data, beta, mu, alpha):
        points.append(((beta.tobytes(), mu, alpha), point(data, beta, mu, alpha)))
        return points[-1][1]

    def counted_derivatives(data, at, order):
        passes.append((id(at), order))
        return derivatives(data, at, order)

    monkeypatch.setattr(estimation, "_point", counted_point)
    monkeypatch.setattr(estimation, "_derivatives", counted_derivatives)

    def check(n_points, made_again):
        assert len(points) == n_points
        assert {at for at, _ in passes} == {id(p) for _, p in points}
        assert len(set(passes)) == len(passes)
        assert 1 <= sum(order == 2 for _, order in passes) < n_points
        coords = [c for c, _ in points]
        first_order_2 = next(at for at, order in passes if order == 2)
        result = next(c for c, p in points if id(p) == first_order_2)
        assert coords.count(result) == 1 + made_again
        assert len(set(coords)) == n_points - made_again
        points.clear()
        passes.clear()

    sub = fit_poisson_size(data)
    check(23, made_again=False)
    fit_full(data, init=sub.params)
    check(73, made_again=True)


def test_fits_build_one_model_params_each(monkeypatch):
    # Trial points are plain numbers: a fit builds its one ModelParams, the
    # result's, however many points it evaluates (23 and 73 here).
    data = jejunal_dataset()
    built, post_init = [], ModelParams.__post_init__

    def counted_post_init(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(ModelParams, "__post_init__", counted_post_init)
    sub = fit_poisson_size(data)
    assert len(built) == 1
    full = fit_full(data, init=sub.params)
    assert len(built) == 2
    monkeypatch.undo()
    assert sub.params.is_poisson_size and not full.params.is_poisson_size


def test_repeated_trial_point_returns_the_first_values(monkeypatch):
    # The objective answers a repeated point from its memo without a new
    # point, and hands out a copy: writing to one gradient reaches no other.
    data = jejunal_dataset()
    bfgs, made, checked = estimation._bfgs, [], []
    point = estimation._point

    def counted_point(*args):
        made.append(1)
        return point(*args)

    def checked_bfgs(fun, x0):
        f1, g1 = fun(x0.copy())
        kept = g1.copy()
        g1[:] = np.nan
        f2, g2 = fun(x0.copy())
        assert len(made) == 1
        assert f2 == f1
        assert np.array_equal(g2, kept)
        g2[:] = np.nan
        assert np.array_equal(fun(x0.copy())[1], kept)
        checked.append(1)
        return bfgs(fun, x0)

    monkeypatch.setattr(estimation, "_point", counted_point)
    monkeypatch.setattr(estimation, "_bfgs", checked_bfgs)
    fit = fit_poisson_size(data)
    monkeypatch.undo()
    assert checked == [1]
    assert_same_fit(fit, fit_poisson_size(data))


def captured_objectives(fit, data):
    """(objective, start) of each optimizer call that fit(data) makes: the
    fit's memoized objective, as _optimize hands it to _bfgs."""
    got, bfgs = [], estimation._bfgs

    def capture(objective, p0):
        got.append((objective, p0.copy()))
        return bfgs(objective, p0)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimation, "_bfgs", capture)
        fit(data)
    return got


def first_requests(objective):
    """objective, and the list of the points it is asked for, each logged
    the first time."""
    order = []

    def logged(p):
        if p.tobytes() not in order:
            order.append(p.tobytes())
        return objective(p)

    return logged, order


def assert_bfgs_matches_scipy(objective, p0, maxiter=estimation._MAX_ITER):
    """Run _bfgs and scipy's BFGS from p0 and require the same x bits, the
    same iteration count and the same points in the same order. Returns
    scipy's result and how many fallback searches _bfgs ran."""
    from scipy.optimize import minimize
    ours, our_order = first_requests(objective)
    theirs, their_order = first_requests(objective)
    wolfe2, fallbacks = estimation._wolfe2, []

    def counted_wolfe2(*args):
        fallbacks.append(1)
        return wolfe2(*args)

    with np.errstate(**estimation._QUIET):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(estimation, "_MAX_ITER", maxiter)
            m.setattr(estimation, "_wolfe2", counted_wolfe2)
            x, nit = estimation._bfgs(ours, p0.copy())
        res = minimize(theirs, p0.copy(), jac=True, method="BFGS",
                       options={"gtol": estimation._GRAD_TOL, "maxiter": maxiter})
    assert x.tobytes() == res.x.tobytes()
    assert nit == res.nit
    assert our_order == their_order
    return res, len(fallbacks)


def quadratic_with(value, grad):
    """0.5 |x - (3, -1)|^2, except where x[0] > 1.5: there f is value and
    each gradient entry grad."""
    centre = np.array([3.0, -1.0])

    def objective(x):
        if x[0] > 1.5:
            return value, np.full(2, grad)
        return 0.5 * ((x - centre) @ (x - centre)), x - centre

    return objective


def stiff_quadratic(x):
    # 0.5 x'Ax + 0.5e17 (x1 - x2)^2: from (1.25, 2.25) a step's y'k sk sums
    # terms near 1e17 that cancel to exactly 0.0, so BFGS takes rhok = 1000.
    r = x[0] - x[1]
    return (0.5 * x @ np.array([[2.0, 1.0], [1.0, 3.0]]) @ x + 0.5e17 * r * r,
            np.array([2.0 * x[0] + x[1], x[0] + 3.0 * x[1]]) + 1e17 * r * np.array([1.0, -1.0]))


# Objectives built to reach the loop's other branches, each from its start:
# "max-norm" stops at a gradient within _GRAD_TOL in the max-norm but not in
# the 2-norm, "inf" ends when both line searches fail, "-inf" stops on a
# non-finite f after an accepted step, and "nan" stops on one after a
# fallback search that returns no gradient.
SYNTHETIC = {
    "max-norm": (lambda x: (0.5 * x @ np.array([[3.0, 1.0], [1.0, 2.0]]) @ x,
                            np.array([3.0 * x[0] + x[1], x[0] + 2.0 * x[1]])),
                 np.ones(2)),
    "zero-curvature": (stiff_quadratic, np.array([1.25, 2.25])),
    "inf": (quadratic_with(np.inf, np.nan), np.zeros(2)),
    "-inf": (quadratic_with(-np.inf, 0.5), np.zeros(2)),
    "nan": (quadratic_with(np.nan, np.nan), np.zeros(2)),
}


@pytest.mark.parametrize("case,status,fallbacks", [
    ("jejunal-poisson", 0, 0), ("jejunal-full", 2, 3), ("maxiter", 1, 0),
    ("max-norm", 0, 0), ("zero-curvature", 0, 0), ("inf", 2, 2), ("-inf", 2, 0),
    ("nan", 2, 1)])
def test_bfgs_matches_scipy_minimize(case, status, fallbacks):
    # scipy.optimize.minimize(method="BFGS") is the oracle for _bfgs, on the
    # fits' own memoized objectives and on the synthetic ones. Status 0 is
    # convergence, 1 the iteration cap and 2 precision loss: a failed line
    # search or a non-finite f.
    maxiter = 3 if case == "maxiter" else estimation._MAX_ITER
    if case in SYNTHETIC:
        objective, p0 = SYNTHETIC[case]
    else:  # fit_full fits the Poisson-size model first
        calls = captured_objectives(fit_full, jejunal_dataset())
        objective, p0 = calls[case != "jejunal-poisson"]
    res, n_fallbacks = assert_bfgs_matches_scipy(objective, p0, maxiter)
    assert (res.status, n_fallbacks) == (status, fallbacks)
    assert res.nit >= 2


@settings(max_examples=20, deadline=None)
@given(setting=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_bfgs_matches_scipy_minimize_on_study_samples(setting, seed):
    # Both optimizer calls of a study sample's full fit: the Poisson-size
    # fit's, then the full model's from its estimate.
    data, _ = generate_dataset(table_settings()[setting - 1], seeded(seed, 0))
    assume(data.y.any())
    for objective, p0 in captured_objectives(fit_full, data):
        assert_bfgs_matches_scipy(objective, p0)


def bits(value):
    return np.float64(value).tobytes()


def assert_search_matches_scipy(objective, xk, pk, gfk, old_fval, old_old_fval):
    """Run _wolfe1 and scipy's line_search_wolfe1, with the bounds _bfgs
    gives it, on one call: the same step, f, old_fval and gradient bits and
    the same trial points in the same order. Returns (step, trial points)."""
    from scipy.optimize._linesearch import line_search_wolfe1
    ours, theirs = [], []

    def our_objective(x):
        ours.append(x.tobytes())
        return objective(x)

    def their_f(x):  # scipy asks for the gradient at each such point next
        theirs.append(x.tobytes())
        return objective(x)[0]

    with np.errstate(**estimation._QUIET):
        stp, fval, gval = estimation._wolfe1(our_objective, xk, pk, gfk,
                                             old_fval, old_old_fval)
        want = line_search_wolfe1(their_f, lambda x: objective(x)[1], xk, pk, gfk,
                                  old_fval, old_old_fval,
                                  amin=estimation._AMIN, amax=estimation._AMAX)
    assert (stp is None) == (want[0] is None)
    if stp is not None:
        assert bits(stp) == bits(want[0])
    assert bits(fval) == bits(want[3])
    assert bits(old_fval) == bits(want[4])  # what _bfgs keeps as old_old_fval
    assert np.asarray(gval).tobytes() == np.asarray(want[5]).tobytes()
    assert ours == theirs
    return stp, ours


def recorded_searches(run, name="_wolfe1"):
    """The arguments of each call of the named search that run() makes."""
    calls, search = [], getattr(estimation, name)

    def record(objective, xk, pk, gfk, old_fval, old_old_fval):
        calls.append((objective, xk.copy(), pk.copy(), gfk.copy(), old_fval,
                      old_old_fval))
        return search(objective, xk, pk, gfk, old_fval, old_old_fval)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimation, name, record)
        with np.errstate(**estimation._QUIET):
            run()
    return calls


@pytest.mark.parametrize("case", ["jejunal-fits", *SYNTHETIC])
def test_wolfe_search_matches_scipy_on_every_bfgs_step(case):
    # Each search of both jejunal fits (the Poisson-size fit, then the full
    # one from it) and of the synthetic objectives' BFGS runs, replayed
    # through scipy's search on the same arguments.
    if case == "jejunal-fits":
        calls = recorded_searches(lambda: fit_full(jejunal_dataset()))
    else:
        objective, p0 = SYNTHETIC[case]
        calls = recorded_searches(lambda: estimation._bfgs(objective, p0.copy()))
    assert len(calls) >= 2
    for call in calls:
        assert_search_matches_scipy(*call)


def scripted(answers):
    """A one-dimensional objective whose k-th distinct point gets the k-th
    (f, slope) of answers."""
    memo = {}

    def objective(x):
        if x.tobytes() not in memo:
            f, slope = answers[len(memo)]
            memo[x.tobytes()] = f, np.array([slope])
        return memo[x.tobytes()]

    return objective


def dcstep_calls(monkeypatch):
    """(ran on numpy scalars, next step) of each dcstep call from here on."""
    calls, step_at = [], estimation._dcstep_at

    def logged(sqrt, *args):
        out = step_at(sqrt, *args)
        calls.append((sqrt is np.sqrt, out[6]))
        return out

    monkeypatch.setattr(estimation, "_dcstep_at", logged)
    return calls


# One-dimensional searches from 0 along +1, so a gradient entry is the slope
# along the search; the slope at 0 is -1.
ORIGIN, AHEAD, DOWNHILL = np.zeros(1), np.ones(1), np.array([-1.0])


def test_wolfe_search_refuses_an_ascent_direction():
    # dcsrch's input error: the slope along pk at xk is not negative, so no
    # trial is made and the search returns xk's value and gradient.
    objective = SYNTHETIC["max-norm"][0]
    xk = np.ones(2)
    f0, g0 = objective(xk)
    for pk in (g0, np.zeros(2)):
        assert assert_search_matches_scipy(objective, xk, pk, g0, f0, f0 + 1.0) == (None, [])


def test_wolfe_search_stops_on_a_nan_step(monkeypatch):
    # An infinite value at the first trial makes the cubic step NaN, and
    # dcsrch gives up before evaluating it.
    steps = dcstep_calls(monkeypatch)
    objective = scripted([(math.inf, 0.5)])
    stp, trials = assert_search_matches_scipy(objective, ORIGIN, AHEAD, DOWNHILL, 0.0, 0.5)
    assert stp is None and len(trials) == 1
    assert [math.isnan(step) for _, step in steps] == [True]


def test_wolfe_search_retries_a_zero_divisor_on_numpy_scalars(monkeypatch):
    # After a NaN slope the interval's slopes no longer match its ends; at
    # the third trial the cubic's numerator and denominator are both 0.0.
    # Python raises there, so that dcstep call runs again on numpy scalars,
    # whose 0/0 is a NaN step that ends the search.
    steps = dcstep_calls(monkeypatch)
    objective = scripted([(-2.0, math.nan), (-2.0, 2.0), (2.0, -0.5)])
    stp, trials = assert_search_matches_scipy(objective, ORIGIN, AHEAD, DOWNHILL, 1.0, 1.5)
    assert stp is None and len(trials) == 3
    assert [numpy for numpy, _ in steps] == [False, False, True]
    assert math.isnan(steps[-1][1])


def test_wolfe_search_stops_at_the_iteration_cap(monkeypatch):
    # A straight descent never meets the curvature condition: each step is
    # about five times the last, so dcsrch's 100 trials end far below amax.
    steps = dcstep_calls(monkeypatch)

    def descent(x):
        return -float(x[0]), np.array([-1.0])

    stp, trials = assert_search_matches_scipy(descent, ORIGIN, AHEAD, DOWNHILL, 0.0, 0.5)
    assert stp is None and len(trials) == 100
    assert len(steps) == 99
    assert 0 < max(step for _, step in steps) < estimation._AMAX


def test_wolfe_search_returns_to_the_best_step_at_a_kink():
    # |x - 0.3| has slope -1 then 1, so no step meets the curvature
    # condition: the bracket closes on the kink until dcsrch's xtol test
    # sends the step back to stx, which is asked for again before the
    # rounding warning ends the search.
    def kink(x):
        return abs(x[0] - 0.3), np.array([math.copysign(1.0, x[0] - 0.3)])

    stp, trials = assert_search_matches_scipy(kink, ORIGIN, AHEAD, DOWNHILL, 0.3, 0.8)
    assert stp is None and len(trials) > 20
    assert trials[-1] in trials[:-1]


def noisy_search(seed):
    """The arguments of one search on x'x whose value and gradient carry
    noise drawn from the point's own bits, so the slopes disagree with the
    values the way they do on a likelihood flat to rounding."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))

    def objective(x):
        a, b = np.random.default_rng(np.frombuffer(x.tobytes(), np.uint32)).integers(-6, 7, 2)
        return float(x @ x) + 5e-4 * a, 2.0 * x + 0.5 * b

    xk = rng.uniform(-2.0, 2.0, d)
    f0, g0 = objective(xk)
    pk = (-g0 * rng.choice([1.0, 1e-3, 1e3, 1e-8]) if rng.random() < 0.5
          else rng.uniform(-3.0, 3.0, d))
    return objective, xk, pk, g0, f0, f0 + rng.choice(
        [0.0, 1e-8, 1.0, 100.0, -1.0, float(np.linalg.norm(g0)) / 2])


# Seeds, from a scan of 3000, whose searches reach the shrinking-slope step
# inside a bracket with a negative cubic discriminant (the cubic step is
# then the secant one), a branch the fits and the cases above do not reach.
@pytest.mark.parametrize("seed", [0, 1, 2, 512, 954, 1386, 2024, 2584, 2936])
def test_wolfe_search_matches_scipy_on_noisy_slopes(seed):
    assert_search_matches_scipy(*noisy_search(seed))


def test_step_clip_matches_numpy_and_caps_at_amax():
    # The search clips each new step to [amin, amax] as scipy does with
    # np.clip. No search reaches amax itself: a step grows at most fivefold
    # per trial from a first step of at most 1 (see the iteration cap), and
    # an infinite dcstep step only arises in a bracket, whose test sends the
    # capped step back to stx. So the cap is checked here, with np.clip's
    # NaN and signed-zero results.
    values = [0.0, -0.0, 1e-300, 1.0, 1e100, 1e300, math.inf, -math.inf, math.nan]
    for x, lo, hi in itertools.product(values, repeat=3):
        assert bits(estimation._clip(x, lo, hi)) == bits(np.clip(x, lo, hi))
    assert estimation._clip(math.inf, estimation._AMIN, estimation._AMAX) == 1e100
    assert estimation._clip(0.0, estimation._AMIN, estimation._AMAX) == 1e-100


@pytest.mark.parametrize("stp, sty, brackt", [
    (2.0, 0.0, False), (2.0, 0.0, True), (2.0, 2.0, True), (-1.0, 2.0, True)])
@pytest.mark.parametrize("fp, dp", [
    (1.0, -0.5), (-1.0, 0.5), (-1.0, -0.25), (-1.0, -3.0), (0.0, 0.0),
    (math.inf, 1.0), (math.nan, -1.0), (-1.0, math.inf)])
def test_dcstep_matches_scipy_on_degenerate_intervals(stp, sty, brackt, fp, dp):
    # Intervals of zero width (stp == stx, or stp == sty) and non-finite
    # values: Python raises where numpy divides by zero or takes the root of
    # a negative number, and the retry on numpy scalars gives scipy's bits.
    # A NaN's sign bit may differ between Python and numpy arithmetic; no
    # comparison, abs, min or max in the search reads it, so it is not held.
    from scipy.optimize._dcsrch import dcstep
    args = (2.0, 0.0, -1.0, sty, 1.0, 2.0, stp, fp, dp, brackt, 0.0, 10.0)
    with np.errstate(all="ignore"):
        want = dcstep(*map(np.float64, args[:9]), brackt, 0.0, 10.0)
        got = estimation._dcstep(*args)

    def held(values):
        return [bits(v) if v == v else "nan" for v in values]

    assert held(got[:7]) == held(want[:7])
    assert got[7] == want[7]
    assert all(type(v) is float for v in got[:7])


def assert_fallback_matches_scipy(objective, xk, pk, gfk, old_fval, old_old_fval):
    """Run _wolfe2 and scipy's line_search_wolfe2 with amax _AMAX, as _bfgs
    and scipy's BFGS call them, on one call: the same step, and with a step
    the same f and gradient bits (no gradient after the last iteration),
    and the same trial points in the same order, one request each.
    Returns (step, trial points)."""
    from scipy.optimize._linesearch import LineSearchWarning, line_search_wolfe2
    ours, theirs = [], []

    def our_objective(x):
        ours.append(x.tobytes())
        return objective(x)

    def their_f(x):  # scipy's derphi asks for the gradient at the last such point
        theirs.append(x.tobytes())
        return objective(x)[0]

    with np.errstate(**estimation._QUIET), warnings.catch_warnings():
        warnings.simplefilter("ignore", LineSearchWarning)
        stp, fval, gval = estimation._wolfe2(our_objective, xk, pk, gfk,
                                             old_fval, old_old_fval)
        want = line_search_wolfe2(their_f, lambda x: objective(x)[1], xk, pk, gfk,
                                  old_fval, old_old_fval, amax=estimation._AMAX)
    assert (stp is None) == (want[0] is None)
    if stp is not None:
        assert bits(stp) == bits(want[0])
        assert bits(fval) == bits(want[3])
        assert (gval is None) == (want[5] is None)
        assert gval is None or gval.tobytes() == np.asarray(want[5]).tobytes()
    assert ours == theirs
    return stp, ours


@pytest.mark.parametrize("case", ["jejunal-fits", "inf", "nan"])
def test_fallback_search_matches_scipy_on_every_bfgs_step(case):
    # Each fallback search of both jejunal fits and of the synthetic BFGS
    # runs that make one, replayed through scipy's search.
    if case == "jejunal-fits":
        calls = recorded_searches(lambda: fit_full(jejunal_dataset()), "_wolfe2")
    else:
        objective, p0 = SYNTHETIC[case]
        calls = recorded_searches(lambda: estimation._bfgs(objective, p0.copy()), "_wolfe2")
    assert len(calls) == {"jejunal-fits": 3, "inf": 2, "nan": 1}[case]
    for call in calls:
        assert_fallback_matches_scipy(*call)


@settings(max_examples=30, deadline=None)
@given(setting=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_fallback_search_matches_scipy_on_study_samples(setting, seed):
    data, _ = generate_dataset(table_settings()[setting - 1], seeded(seed, 0))
    assume(data.y.any())
    for call in recorded_searches(lambda: fit_full(data), "_wolfe2"):
        assert_fallback_matches_scipy(*call)


def test_fallback_search_stops_on_a_rounding_step():
    # A value no lower than the last one gives a first step of -0.0: the
    # search evaluates it, then gives up on rounding errors.
    objective = SYNTHETIC["max-norm"][0]
    xk = np.ones(2)
    f0, g0 = objective(xk)
    stp, trials = assert_fallback_matches_scipy(objective, xk, -g0, g0, f0, f0)
    assert stp is None and len(trials) == 1


def test_fallback_search_stops_at_the_zoom_cap():
    # |x - 0.3| has slope -1 then 1, so no step meets the curvature
    # condition: the first step overshoots and zoom gives up after 11 more.
    def kink(x):
        return abs(x[0] - 0.3), np.array([math.copysign(1.0, x[0] - 0.3)])

    stp, trials = assert_fallback_matches_scipy(kink, ORIGIN, AHEAD, DOWNHILL, 0.3, 0.8)
    assert stp is None and len(trials) == 12


# Scripted searches from 0 along +1 whose tests land on their bounds: a
# slope of exactly c2 |slope at 0|, a value between the sufficient-decrease
# line and phi_lo, a slope that turns up at the first step, and a NaN slope
# at 0, with which only the sign tests on the slopes decide. The rest of
# each script fills the zoom's trials.
@pytest.mark.parametrize("gfk, answers, stopped", [
    (DOWNHILL, [(-0.5, -0.9)], False),
    (DOWNHILL, [(-0.5, -1.0), (0.0, 0.0), (-0.6, 0.9)], False),
    (DOWNHILL, [(-1.1e-4, -1.0), (1.0 - 1.1e-4, 0.0), (-1.2e-4, -1.0)], True),
    (DOWNHILL, [(-0.5, 1.0), (-0.6, 0.5)], False),
    (np.array([math.nan]), [(-1.0, 0.0)], True),
    (np.array([math.nan]), [(-1.0, -1.0), (0.0, 0.0), (-2.0, 0.0)], True),
    (np.array([math.nan]), [(0.0, -1.0)], True),
], ids=["curvature-bound", "zoom-curvature-bound", "zoom-sufficient-decrease",
        "slope-turns-up", "nan-slope-zero", "nan-slope-zoom", "nan-slope-flat"])
def test_fallback_search_matches_scipy_at_its_bounds(gfk, answers, stopped):
    objective = scripted(answers + [(1.0, 1.0)] * 20)
    stp, _ = assert_fallback_matches_scipy(objective, ORIGIN, AHEAD, gfk, 0.0, 0.5)
    assert (stp is None) == stopped


def test_exhausted_fallback_search_leaves_the_gradient_to_bfgs(monkeypatch):
    # A straight descent doubles the step ten times: the search returns
    # step 1024 without a gradient, and _bfgs asks the objective for it.
    def descent(x):
        return -float(x[0]), np.array([-1.0])

    stp, trials = assert_fallback_matches_scipy(descent, ORIGIN, AHEAD, DOWNHILL, 0.0, 0.5)
    assert stp == 1024.0 and len(trials) == 11
    requests = []

    def counted(x):
        requests.append(x.tobytes())
        return descent(x)

    res, fallbacks = assert_bfgs_matches_scipy(descent, ORIGIN, maxiter=1)
    assert (res.status, res.nit, fallbacks) == (1, 1, 1)
    monkeypatch.setattr(estimation, "_MAX_ITER", 1)
    with np.errstate(**estimation._QUIET):
        x, _ = estimation._bfgs(counted, ORIGIN.copy())
    assert x.tolist() == [1024.0]
    assert requests[-1] == requests[-2] == x.tobytes()


# Arguments of scipy's _quadmin and _cubicmin: a = 0 as an int, as scipy's
# first interval has it; values as plain floats or numpy scalars, as the
# objective returns them; and the degenerate cases that return None.
QUADMIN_CASES = [
    (0, 1.0, -1.0, 1.0, 0.5), (0.25, 1.0, -2.0, 1.5, 3.0),
    (0, 1.0, -1.0, 1.0, 0.0),            # no curvature: a zero divisor
    (0.5, 1.0, -1.0, 0.5, 2.0),          # a zero-width interval
    (0, 1.0, -1e300, 1e-10, 1.0),        # a steep slope on a short interval
    (0, math.inf, -1.0, 1.0, 0.5), (0, 1.0, -1.0, 1.0, math.nan),
    (0, 1e308, -1.0, 1.0, -1e308),       # a value difference that overflows
    (0, 1.0, -1e307, 100.0, 1.0),        # a slope term that overflows
]
CUBICMIN_CASES = [
    (0, 1.0, -1.0, 1.0, 0.5, 2.0, 3.0), (0.25, 1.0, -2.0, 1.5, 3.0, 0.5, 0.7),
    (0, 1.0, -1.0, 1.0, 0.5, 1.0, 0.5),  # b == c: a zero denominator
    (0, 1.0, -1.0, 1.0, 0.5, 0, 1.0),    # c == a
    (0, 1.0, 1.0, 1.0, 5.0, 2.0, 0.0),   # a negative radical
    (0, 1.0, -1.0, 1.0, 0.0, 2.0, -1.0),  # A == 0: the cubic is a quadratic
    (0, math.inf, -1.0, 1.0, 0.5, 2.0, 3.0), (0, 1.0, -1.0, 1.0, math.nan, 2.0, 3.0),
    (0, 1e308, -1.0, 1.0, -1e308, 2.0, 0.0),
    (0, 1.0, -1e307, 100.0, 1.0, 2.0, 3.0),
]


@pytest.mark.parametrize("numpy_values", [False, True], ids=["float", "np.float64"])
@pytest.mark.parametrize("name, args", [
    *(("_quadmin", args) for args in QUADMIN_CASES),
    *(("_cubicmin", args) for args in CUBICMIN_CASES)])
def test_interpolation_steps_match_scipy(name, args, numpy_values):
    # The fallback's interpolation steps, None where numpy raises under
    # errstate(raise) or the minimizer is not finite. scipy gets each slope
    # as a numpy scalar, as its derphi returns one.
    from scipy.optimize import _linesearch
    if numpy_values:
        args = tuple(np.float64(v) if i % 2 else v for i, v in enumerate(args))
    want = getattr(_linesearch, name)(*(np.float64(v) if i == 2 else v
                                        for i, v in enumerate(args)))
    got = getattr(estimation, name)(*args)
    assert (got is None) == (want is None)
    assert got is None or bits(got) == bits(want)


@pytest.mark.parametrize("seed", range(4))
def test_interpolation_steps_match_scipy_on_random_intervals(seed):
    # Intervals in any order and values over seven decades; a few cubics
    # have no minimizer (a negative radical).
    from scipy.optimize import _linesearch
    rng = np.random.default_rng(seed)
    found_none = 0
    for _ in range(500):
        a, b, c = rng.choice([0, 0.0, 0.5, 1.0]), rng.uniform(-2, 2), rng.uniform(-2, 2)
        fa, fb, fc = (float(v) for v in rng.normal(0, 10.0 ** rng.integers(-3, 4), 3))
        fpa = -abs(rng.normal()) * 10.0 ** rng.integers(-8, 3)
        for name, args in (("_quadmin", (a, fa, fpa, b, fb)),
                           ("_cubicmin", (a, fa, fpa, b, fb, c, fc))):
            want = getattr(_linesearch, name)(*args[:2], np.float64(fpa), *args[3:])
            got = getattr(estimation, name)(*args)
            assert (got is None) == (want is None), (name, args)
            assert got is None or bits(got) == bits(want), (name, args)
            found_none += got is None
    assert found_none > 0


def test_bfgs_stage_calls_no_numpy_python_wrappers(monkeypatch):
    # np.sum, np.amax, np.cumsum and ndarray.sum/max run through Python
    # wrappers in numpy's fromnumeric.py and _methods.py; the fits' loop
    # calls the ufuncs' C reductions instead, and this keeps it so. The
    # stage profiled is the jejunal full fit's, which makes fallback searches
    # and shift tables.
    data = jejunal_dataset()
    init = fit_poisson_size(data).params
    files, names, bfgs = set(), set(), estimation._bfgs

    def profile(frame, event, arg):
        if event == "call":
            files.add(Path(frame.f_code.co_filename).name)
            names.add(frame.f_code.co_name)

    def profiled(objective, p0):
        sys.setprofile(profile)
        try:
            return bfgs(objective, p0)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(estimation, "_bfgs", profiled)
    fit_full(data, init=init)
    assert {"_derivatives", "_shift_sums", "_wolfe1", "_wolfe2"} <= names
    assert not files & {"fromnumeric.py", "_methods.py"}


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("fit", [fit_poisson_size, fit_full])
def test_init_of_wrong_dimension_rejected(fit, extra):
    # A start vector is split by the dataset's d, so a beta of another
    # length would be read as part of mu or alpha; it is refused first.
    data = jejunal_dataset()
    beta = [6.7, -1.1, 0.0][:data.d + extra]
    init = ModelParams(beta=beta, mu=200.0, alpha=INFINITE)
    with pytest.raises(ValueError, match=(
            f"^dimension mismatch: dataset d=2, init beta has {2 + extra}$")):
        fit(data, init=init)


@pytest.mark.parametrize("fit", [fit_poisson_size, fit_full])
def test_rank_deficient_design_rejected(fit):
    one_dose = Dataset([70, 75, 80, 60], [[1.0, 6.5]] * 4)
    with pytest.raises(ValueError, match="rank-deficient"):
        fit(one_dose)
    collinear = Dataset([9, 7, 4, 2],
                        [[1.0, 1.0, 2.0], [1.0, 2.0, 4.0],
                         [1.0, 3.0, 6.0], [1.0, 4.0, 8.0]])
    with pytest.raises(ValueError, match="rank 2"):
        fit(collinear)


@pytest.mark.parametrize("fit", [fit_poisson_size, fit_full])
def test_fewer_distinct_rows_than_parameters_rejected(fit):
    # Full rank, but mu h(x'beta) takes one value per distinct row: two
    # doses cannot pin down (beta0, beta1, mu), nor three rows four.
    two_doses = Dataset([3, 5] * 12, [[1.0, 1.0], [1.0, 2.0]] * 12)
    with pytest.raises(ValueError, match="2 distinct covariate rows for 3 "):
        fit(two_doses)
    three_rows = Dataset([4, 6, 8], [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                                     [1.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="3 distinct covariate rows for 4 "):
        fit(three_rows)
    three_doses = Dataset([3, 5, 9], [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    assert fit(three_doses).params.beta.size == 2


def test_converged_fits_have_small_score():
    data = jejunal_dataset()
    for fit in (fit_poisson_size(data), fit_full(data)):
        assert fit.converged
        assert np.max(np.abs(score(data, fit.params))) < 1e-6
    rng = np.random.default_rng(4)
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, 5.0)
    data, _ = generate_dataset(setting, rng)
    fit = fit_full(data)
    assert fit.converged
    assert np.max(np.abs(score(data, fit.params))) < 1e-6


def test_observed_and_expected_standard_errors_agree_loosely():
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, 5.0)
    data, _ = generate_dataset(setting, np.random.default_rng(31))

    full = fit_full(data)
    inv, cond = inverse_with_condition(info_full(setting.X, setting.r, full.params))
    assert cond < NEAR_SINGULAR_CONDITION
    # alpha is orthogonal to (beta, mu), so its variance is 1 / its information.
    alpha_info = expected_information(setting.X, setting.r, full.params)[-1, -1]
    ratios = full.std_errors / np.append(np.sqrt(np.diag(inv)), alpha_info ** -0.5)
    assert np.all((0.75 < ratios) & (ratios < 1.25))

    pois = fit_poisson_size(data)
    expected = np.linalg.inv(info_full(setting.X, setting.r, pois.params))
    ratios = pois.std_errors / np.sqrt(np.diag(expected))
    assert np.all((0.75 < ratios) & (ratios < 1.25))


def test_indefinite_hessian_withholds_its_standard_errors():
    # -raw_h, the observed information, has one negative eigenvalue: that
    # variance is negative, so its standard error is NaN and a note says why.
    params = ModelParams(beta=np.array([1.0, -1.0]), mu=50.0, alpha=INFINITE)
    se, cond, notes = estimation._standard_errors(params, -np.diag([1.0, -1.0, 1.0]))
    assert se[0] == 1.0 and math.isnan(se[1]) and se[2] == 1.0
    assert "indefinite Hessian: some standard errors unavailable" in notes
    assert cond == math.inf


def test_unusable_observed_information_names_the_stage():
    params = ModelParams(beta=np.array([1.0, -1.0]), mu=50.0, alpha=INFINITE)
    raw_h = -np.eye(3)
    raw_h[1, 1] = math.nan
    with pytest.raises(np.linalg.LinAlgError, match="^observed information at the "
                       "estimate: information matrix has a non-finite entry$"):
        estimation._standard_errors(params, raw_h)


def test_fit_result_validation():
    params = ModelParams(beta=np.array([1.0]), mu=5.0, alpha=INFINITE)
    with pytest.raises(ValueError):
        FitResult(params, np.array([0.1, -0.2]), -10.0, True, 3, 1.0)
    with pytest.raises(ValueError):
        FitResult(params, np.array([0.1, 0.2]), math.nan, True, 3, 1.0)


# -- likelihood ratio test --------------------------------------------------------


def test_lrt_keeps_poisson_submodel_on_crypt_data():
    res = lrt(jejunal_dataset(), 0.05)
    assert not res.reject_poisson
    assert res.significance_level == 0.05
    assert res.statistic == pytest.approx(0.00282429, abs=1e-5)
    assert res.p_value == pytest.approx(0.478809, abs=1e-4)


def test_lrt_statistic_nonnegative_and_init_independent():
    data = jejunal_dataset()
    res = lrt(data, 0.05)
    assert res.statistic >= 0.0
    assert 0.0 <= res.p_value <= 1.0
    # The statistic depends on the fitted likelihoods only, so it must not
    # move when the optimizer starts elsewhere.
    full = fit_full(data, ModelParams(beta=np.array([5.0, -1.0]), mu=150.0, alpha=40.0))
    pois = fit_poisson_size(
        data, ModelParams(beta=np.array([5.0, -1.0]), mu=150.0, alpha=INFINITE))
    again = 2.0 * (full.loglik - pois.loglik)
    assert again == pytest.approx(res.statistic, abs=1e-6)


def test_lrt_with_existing_fits_matches_refitting(monkeypatch):
    data = jejunal_dataset()
    sub = fit_poisson_size(data)
    full = fit_full(data, init=sub.params)
    calls = count_calls(monkeypatch, estimation, ("fit_poisson_size", "fit_full"))
    got = likelihood_ratio_test(sub, full, 0.05)
    assert got.statistic == max(2.0 * (full.loglik - sub.loglik), 0.0)
    assert calls == {"fit_poisson_size": 0, "fit_full": 0}
    with pytest.raises(ValueError, match="pair"):
        likelihood_ratio_test(full, sub, 0.05)


def test_lrt_refuses_unconverged_or_worse_full_fit():
    data = jejunal_dataset()
    sub = fit_poisson_size(data)
    full = fit_full(data, init=sub.params)
    with pytest.raises(RuntimeError, match="^poisson_size fit did not converge: "):
        likelihood_ratio_test(dataclasses.replace(sub, converged=False), full)
    with pytest.raises(RuntimeError, match="^full fit did not converge: "):
        likelihood_ratio_test(sub, dataclasses.replace(full, converged=False))
    worse = dataclasses.replace(full, loglik=sub.loglik - 1e-3)
    with pytest.raises(RuntimeError, match="fell 1.000e-03 below the submodel's"):
        likelihood_ratio_test(sub, worse)
    # A deficit within the optimizer's noise is a statistic of exactly 0.
    for deficit in (0.0, 4e-7):
        res = likelihood_ratio_test(
            sub, dataclasses.replace(full, loglik=sub.loglik - deficit))
        assert (res.statistic, res.p_value, res.reject_poisson) == (0.0, 1.0, False)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_lrt_and_wald_ci_refuse_level_outside_unit_interval(level):
    params = ModelParams(beta=np.array([2.0]), mu=7.0, alpha=INFINITE)
    sub = FitResult(params, np.array([0.1, 0.1]), -1.0, True, 1, 1.0)
    full = FitResult(dataclasses.replace(params, alpha=3.0),
                     np.array([0.1, 0.1, 0.1]), -1.0, True, 1, 1.0)
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
        likelihood_ratio_test(sub, full, level)
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
        wald_ci(sub, level)


@pytest.mark.parametrize("level", [1e-17, 2**-53, 5e-324])
def test_wald_ci_refuses_level_whose_quantile_is_infinite(level):
    # 1 - level/2 rounds to 1.0, where the normal quantile has no finite
    # value; the refusal names level, not NormalDist's p.
    fit = FitResult(ModelParams(beta=np.array([2.0]), mu=7.0, alpha=INFINITE),
                    np.array([0.1, 0.1]), -1.0, True, 1, 1.0)
    with pytest.raises(ValueError, match=f"^level {level!r} is below float resolution"):
        wald_ci(fit, level)
    # 2**-52 halves to 2**-53, which still moves 1 - level/2 off 1.0.
    lo, hi = wald_ci(fit, 2**-52)[0]
    assert math.isfinite(lo) and math.isfinite(hi)


def test_lrt_size_stays_at_or_below_level():
    # The shape parameter sits on the boundary under the null, which makes
    # the mixture test conservative at this sample size: the rejection rate
    # should stay below level plus Monte Carlo noise but not collapse to 0.
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, INFINITE)
    rejections = 0
    for i in range(150):
        data, _ = generate_dataset(setting, seeded(555, i))
        rejections += lrt(data, 0.05).reject_poisson
    assert 0 < rejections <= 0.09 * 150


def test_lrt_power_under_strong_overdispersion():
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, 5.0)
    rejections = 0
    for i in range(60):
        data, _ = generate_dataset(setting, seeded(777, i))
        rejections += lrt(data, 0.05).reject_poisson
    assert rejections >= 0.9 * 60


# -- Wald intervals ----------------------------------------------------------------


def test_wald_ci_level_wiring():
    fit = fit_poisson_size(jejunal_dataset())
    cis = wald_ci(fit, 0.32)
    z = stats.norm.ppf(1.0 - 0.32 / 2.0)
    for (lo, hi), est, se in zip(cis, fit.params.as_array(), fit.std_errors):
        half = (hi - lo) / 2.0
        assert half == pytest.approx(z * se, rel=1e-12)
        assert 0.98 < half / se < 1.01
        assert (lo + hi) / 2.0 == pytest.approx(est, rel=1e-12)


def test_wald_ci_zero_se_degenerates_to_point():
    params = ModelParams(beta=np.array([2.0]), mu=7.0, alpha=INFINITE)
    fit = FitResult(params, np.array([0.0, 0.0]), -1.0, True, 1, 1.0)
    assert wald_ci(fit, 0.05) == [(2.0, 2.0), (7.0, 7.0)]


def test_wald_ci_requires_convergence_and_handles_absent_se():
    params = ModelParams(beta=np.array([2.0]), mu=7.0, alpha=3.0)
    bad = FitResult(params, np.array([0.1, 0.1, math.nan]), -1.0, False, 1, 1.0)
    with pytest.raises(ValueError):
        wald_ci(bad, 0.05)
    ok = FitResult(params, np.array([0.1, 0.1, math.nan]), -1.0, True, 1, 1.0)
    cis = wald_ci(ok, 0.05)
    assert math.isnan(cis[-1][0]) and math.isnan(cis[-1][1])
    assert cis[0][0] < 2.0 < cis[0][1]
