"""Maximum-likelihood fitting, standard errors, Wald intervals, and the LRT."""

import math

import numpy as np
import pytest
from scipy import stats
from conftest import count_calls

from latentbinom import estimation
from latentbinom import (Dataset, FitResult, INFINITE,
                         ModelParams, ModelVariant, builtin_designs, fit_full,
                         fit_poisson_size, generate_dataset, info_full,
                         info_poisson_size, inverse_with_condition,
                         jejunal_dataset, likelihood_ratio_test, make_setting,
                         score, table_settings, wald_ci)


def seeded(entropy, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(i,)))


def assert_same_fit(a, b):
    assert a.model_variant is b.model_variant
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
    assert fit.model_variant is ModelVariant.POISSON_SIZE
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
    setting = make_setting((-2.0, -1.0, 0.0, 1.0, 2.0), -0.8, 5000.0, INFINITE)
    data, _ = generate_dataset(setting, 40, rng)
    fit = fit_poisson_size(data)
    assert fit.converged
    cis = wald_ci(fit, 0.05)
    for truth, (lo, hi) in zip((1.0, -0.8), cis):
        assert lo <= truth <= hi
        assert hi - lo < 0.1


def test_all_zero_counts_hit_boundary():
    X = [[1.0, t] for t in (-1.0, 0.0, 1.0, 2.0)]
    data = Dataset.from_arrays([0, 0, 0, 0], X)
    for fitter in (fit_poisson_size, fit_full):
        fit = fitter(data)
        assert not fit.converged
        assert any("boundary" in note for note in fit.diagnostics)


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
        data, _ = generate_dataset(setting, 10, seeded(1234, i))
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
        data, _ = generate_dataset(setting, 10, seeded(31, 0))
    fresh = fit_full(data)
    sub = fit_poisson_size(data)
    calls = count_calls(monkeypatch, estimation, ("fit_poisson_size",))
    reused = fit_full(data, init=sub.params)
    assert calls["fit_poisson_size"] == 0
    assert_same_fit(reused, fresh)


def test_optimizer_evaluates_through_module_names(monkeypatch):
    # Call counts per layer are read by wrapping these names in the
    # estimation namespace; a fit that bypassed them would read as zero.
    data = jejunal_dataset()
    calls = count_calls(monkeypatch, estimation,
                        ("log_likelihood", "score", "hessian"))
    sub = fit_poisson_size(data)
    assert all(n > 0 for n in calls.values()), calls
    calls.update(dict.fromkeys(calls, 0))
    fit_full(data, init=sub.params)
    assert all(n > 0 for n in calls.values()), calls


@pytest.mark.parametrize("fit", [fit_poisson_size, fit_full])
def test_rank_deficient_design_rejected(fit):
    one_dose = Dataset.from_arrays([70, 75, 80, 60], [[1.0, 6.5]] * 4)
    with pytest.raises(ValueError, match="rank-deficient"):
        fit(one_dose)
    collinear = Dataset.from_arrays([9, 7, 4, 2],
                                    [[1.0, 1.0, 2.0], [1.0, 2.0, 4.0],
                                     [1.0, 3.0, 6.0], [1.0, 4.0, 8.0]])
    with pytest.raises(ValueError, match="rank 2"):
        fit(collinear)


def test_converged_fits_have_small_score():
    data = jejunal_dataset()
    for fit in (fit_poisson_size(data), fit_full(data)):
        assert fit.converged
        assert np.max(np.abs(score(data, fit.params))) < 1e-6
    rng = np.random.default_rng(4)
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, 5.0)
    data, _ = generate_dataset(setting, 10, rng)
    fit = fit_full(data)
    assert fit.converged
    assert np.max(np.abs(score(data, fit.params))) < 1e-6


def test_observed_and_expected_standard_errors_agree_loosely():
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, 5.0)
    data, _ = generate_dataset(setting, 10, np.random.default_rng(31))

    full = fit_full(data)
    inv, cond, flagged = inverse_with_condition(info_full(setting.X, setting.r, full.params))
    assert not flagged
    ratios = full.std_errors / np.sqrt(np.diag(inv))
    assert np.all((0.75 < ratios) & (ratios < 1.25))

    pois = fit_poisson_size(data)
    expected = np.linalg.inv(info_poisson_size(setting.X, setting.r, pois.params))
    ratios = pois.std_errors / np.sqrt(np.diag(expected))
    assert np.all((0.75 < ratios) & (ratios < 1.25))


def test_fit_result_validation():
    params = ModelParams(beta=np.array([1.0]), mu=5.0, alpha=INFINITE)
    with pytest.raises(ValueError):
        FitResult(params, np.array([0.1, -0.2]), -10.0, True, 3, 1.0,
                  ModelVariant.POISSON_SIZE)
    with pytest.raises(ValueError):
        FitResult(params, np.array([0.1, 0.2]), math.nan, True, 3, 1.0,
                  ModelVariant.POISSON_SIZE)


# -- likelihood ratio test --------------------------------------------------------


def test_lrt_keeps_poisson_submodel_on_crypt_data():
    res = likelihood_ratio_test(jejunal_dataset(), 0.05)
    assert not res.reject_poisson
    assert res.significance_level == 0.05
    assert res.statistic == pytest.approx(0.00282429, abs=1e-5)
    assert res.p_value == pytest.approx(0.478809, abs=1e-4)


def test_lrt_statistic_nonnegative_and_init_independent():
    data = jejunal_dataset()
    res = likelihood_ratio_test(data, 0.05)
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
    expected = likelihood_ratio_test(data, 0.05)
    sub = fit_poisson_size(data)
    full = fit_full(data, init=sub.params)
    calls = count_calls(monkeypatch, estimation, ("fit_poisson_size", "fit_full"))
    got = likelihood_ratio_test(data, 0.05, fits=(sub, full))
    assert got == expected
    assert calls == {"fit_poisson_size": 0, "fit_full": 0}
    with pytest.raises(ValueError, match="pair"):
        likelihood_ratio_test(data, 0.05, fits=(full, sub))


def test_lrt_size_stays_at_or_below_level():
    # The shape parameter sits on the boundary under the null, which makes
    # the mixture test conservative at this sample size: the rejection rate
    # should stay below level plus Monte Carlo noise but not collapse to 0.
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, INFINITE)
    rejections = 0
    for i in range(150):
        data, _ = generate_dataset(setting, 10, seeded(555, i))
        rejections += likelihood_ratio_test(data, 0.05).reject_poisson
    assert 0 < rejections <= 0.09 * 150


def test_lrt_power_under_strong_overdispersion():
    setting = make_setting(tuple(float(t) for t in range(-5, 6)), 1.0, 100.0, 5.0)
    rejections = 0
    for i in range(60):
        data, _ = generate_dataset(setting, 10, seeded(777, i))
        rejections += likelihood_ratio_test(data, 0.05).reject_poisson
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
    fit = FitResult(params, np.array([0.0, 0.0]), -1.0, True, 1, 1.0,
                    ModelVariant.POISSON_SIZE)
    assert wald_ci(fit, 0.05) == [(2.0, 2.0), (7.0, 7.0)]


def test_wald_ci_requires_convergence_and_handles_absent_se():
    params = ModelParams(beta=np.array([2.0]), mu=7.0, alpha=3.0)
    bad = FitResult(params, np.array([0.1, 0.1, math.nan]), -1.0, False, 1, 1.0,
                    ModelVariant.FULL)
    with pytest.raises(ValueError):
        wald_ci(bad, 0.05)
    ok = FitResult(params, np.array([0.1, 0.1, math.nan]), -1.0, True, 1, 1.0,
                   ModelVariant.FULL)
    cis = wald_ci(ok, 0.05)
    assert math.isnan(cis[-1][0]) and math.isnan(cis[-1][1])
    assert cis[0][0] < 2.0 < cis[0][1]
