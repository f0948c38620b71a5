"""Dataset generation under the latent-size model and the Monte Carlo study."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import count_calls

from latentbinom import (INFINITE, LatentRecord, SimConfig, SimSummary,
                         builtin_designs, generate_dataset, link_h,
                         make_setting, run_study, table_settings)
from latentbinom import simulation


def single_point_setting(x_value, slope, mu, alpha):
    """One covariate value, replicated for 10**5 draws per sample."""
    return make_setting((x_value,), slope, mu, alpha, replications=10**5)


# -- configuration containers ----------------------------------------------------


def test_sim_config_validation():
    setting = table_settings()[0]
    ok = SimConfig(setting=setting, n_samples=5, seed=3)
    assert ok.ci_level == 0.95
    # Replications live in the setting; test_information.py's
    # test_design_arrays_rejects[r-zero] covers r < 1.
    with pytest.raises(ValueError):
        SimConfig(setting=setting, n_samples=0)
    with pytest.raises(ValueError):
        SimConfig(setting=setting, ci_level=1.0)
    with pytest.raises(ValueError):
        SimConfig(setting=setting, ci_level=0.0)
    with pytest.raises(ValueError):
        SimConfig(setting=setting, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(setting=setting, seed=2**64)


def test_sim_summary_validation():
    with pytest.raises(ValueError):
        SimSummary(bias=0.5, mse=0.1, coverage=0.9, n_converged=10)
    empty = SimSummary(bias=math.nan, mse=math.nan, coverage=math.nan, n_converged=0)
    assert empty.n_converged == 0


# -- dataset generation ------------------------------------------------------------


def test_generate_dataset_layout_and_latent_consistency():
    rng = np.random.default_rng(12)
    x1, _ = builtin_designs()
    setting = make_setting(x1, 1.0, 100.0, 25.0, replications=4)
    data, latent = generate_dataset(setting, rng)
    assert len(data) == 44
    assert isinstance(latent, LatentRecord)
    assert latent.lam.shape == (44,) and latent.n.shape == (44,)
    # Counts cannot exceed their latent sizes.
    assert np.all(data.y <= latent.n)
    assert np.all(data.y >= 0)
    for block, value in enumerate(x1):
        rows = data.X[4 * block:4 * (block + 1)]
        assert np.all(rows[:, 0] == 1.0)
        assert np.all(rows[:, 1] == value)


def test_generate_dataset_degenerate_gamma_path():
    rng = np.random.default_rng(5)
    setting = make_setting((-1.0, 2.0), 1.0, 150.0, INFINITE, replications=6)
    _, latent = generate_dataset(setting, rng)
    assert np.all(latent.lam == 150.0)


@pytest.mark.parametrize("slope", [1e308, -1e308])
def test_generate_dataset_saturated_link(slope):
    # x * slope overflows to +-inf, where the link is exactly 0 or 1: every
    # unit of a latent size survives on one side of x = 0 and none on the
    # other, without numpy warnings.
    x1, _ = builtin_designs()
    setting = make_setting(x1, slope, 100.0, 25.0, replications=3)
    data, latent = generate_dataset(setting, np.random.default_rng(3))
    x = data.X[:, 1]
    survive = np.sign(x) == np.sign(slope)
    assert np.array_equal(data.y[survive], latent.n[survive])
    assert np.all(data.y[(x != 0) & ~survive] == 0)


@pytest.mark.parametrize("x_value,slope,mu,alpha", [
    (0.7, 1.0, 100.0, 25.0),
    (-0.4, 2.0, 300.0, 49.0),
])
def test_generated_moments_match_model(x_value, slope, mu, alpha):
    rng = np.random.default_rng(2718)
    setting = single_point_setting(x_value, slope, mu, alpha)
    data, _ = generate_dataset(setting, rng)
    y = data.y.astype(float)
    h = link_h(np.array([1.0, x_value]), setting.beta)
    m = mu * h
    var_true = m + m * m / alpha
    assert abs(y.mean() - m) < 4.0 * math.sqrt(var_true / y.size)
    centered_sq = (y - y.mean()) ** 2
    se_var = centered_sq.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.var(ddof=1) - var_true) < 4.0 * se_var


def test_generated_moments_poisson_path():
    rng = np.random.default_rng(31415)
    setting = single_point_setting(0.2, 1.0, 200.0, INFINITE)
    data, _ = generate_dataset(setting, rng)
    y = data.y.astype(float)
    m = 200.0 * link_h(np.array([1.0, 0.2]), setting.beta)
    assert abs(y.mean() - m) < 4.0 * math.sqrt(m / y.size)
    centered_sq = (y - y.mean()) ** 2
    se_var = centered_sq.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.var(ddof=1) - m) < 4.0 * se_var


# -- Monte Carlo study ----------------------------------------------------------------


def test_run_study_deterministic():
    config = SimConfig(setting=table_settings()[0], n_samples=25, seed=11)
    first = run_study(config)
    second = run_study(config)
    assert first == second
    other = run_study(SimConfig(setting=table_settings()[0], n_samples=25, seed=12))
    assert other != first


def test_run_study_simulates_the_settings_replications(monkeypatch):
    # The study reads its design from the setting's X and r, the same ones
    # efficiency_measures reads: 11 rows x 3 replications per sample.
    setting = make_setting(builtin_designs()[0], 1.0, 100.0, 25.0, replications=3)
    rows, replications = [], []
    real_fit, real_info = simulation.fit_full, simulation.info_full

    def recording_fit(data, *args, **kwargs):
        rows.append(len(data))
        return real_fit(data, *args, **kwargs)

    def recording_info(X, r, params):
        replications.append(np.array(r))
        return real_info(X, r, params)

    monkeypatch.setattr(simulation, "fit_full", recording_fit)
    monkeypatch.setattr(simulation, "info_full", recording_info)
    out = run_study(SimConfig(setting=setting, n_samples=3, seed=1))
    assert rows == [33, 33, 33] and int(setting.r.sum()) == 33
    assert out.n_converged > 0 and replications
    assert all(np.array_equal(r, setting.r) for r in replications)


def test_run_study_aggregates_sane():
    config = SimConfig(setting=table_settings()[0], n_samples=30, seed=7)
    out = run_study(config)
    assert 0 < out.n_converged <= 30
    assert 0.0 <= out.coverage <= 1.0
    assert math.isfinite(out.bias) and math.isfinite(out.mse)
    assert out.mse >= out.bias**2 - 1e-12
    # The slope estimates should scatter near the generating value.
    assert abs(out.bias) < 0.1


def test_run_study_skips_all_zero_samples(monkeypatch):
    # At mu = 1e-9 every sample is all zero. Such data has no finite maximum,
    # so each sample is skipped before fitting and nothing is averaged.
    setting = make_setting(builtin_designs()[0], 1.0, 1e-9, 25.0)
    calls = count_calls(monkeypatch, simulation, ("fit_full",))
    out = run_study(SimConfig(setting=setting, n_samples=5, seed=3))
    assert out.n_converged == 0
    assert math.isnan(out.bias) and math.isnan(out.mse)
    assert math.isnan(out.coverage)
    assert calls == {"fit_full": 0}


@pytest.mark.parametrize("failure", ["not-converged", "LinAlgError"])
def test_run_study_drops_failed_fits(monkeypatch, failure):
    # Each sample has its own RNG stream, so failing every fit after the
    # first must leave exactly the one-sample study of sample 0.
    setting = table_settings()[0]
    first_only = run_study(SimConfig(setting=setting, n_samples=1, seed=5))
    real_fit, calls = simulation.fit_full, []

    def failing_fit(data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_fit(data)
        if failure == "LinAlgError":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return dataclasses.replace(real_fit(data), converged=False)

    monkeypatch.setattr(simulation, "fit_full", failing_fit)
    out = run_study(SimConfig(setting=setting, n_samples=4, seed=5))
    assert len(calls) == 4
    assert first_only.n_converged == 1
    assert out == first_only


def test_run_study_keeps_samples_whose_expected_se_is_too_costly(monkeypatch):
    # A sample whose expected information cannot be inverted falls back to
    # the fit's observed standard error instead of aborting the whole study.
    config = SimConfig(setting=table_settings()[0], n_samples=6, seed=5)
    unpatched = run_study(config)
    calls = []

    def uninvertible(matrix):
        calls.append(matrix.shape)
        raise np.linalg.LinAlgError("information matrix has a non-finite entry")

    monkeypatch.setattr(simulation, "inverse_with_condition", uninvertible)
    fallback = run_study(config)
    assert unpatched.n_converged > 0 and len(calls) == unpatched.n_converged
    assert fallback.n_converged == unpatched.n_converged
    assert fallback.bias == unpatched.bias and fallback.mse == unpatched.mse
