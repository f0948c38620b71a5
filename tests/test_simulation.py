"""Dataset generation under the latent-size model and the Monte Carlo study."""

import math

import numpy as np
import pytest

from latentbinom import (INFINITE, LatentRecord, SimConfig, SimSummary,
                         builtin_designs, generate_dataset, link_h,
                         make_setting, run_study, table_settings)
from latentbinom import information


def single_point_setting(x_value, slope, mu, alpha):
    return make_setting((x_value,), slope, mu, alpha, replications=1)


# -- configuration containers ----------------------------------------------------


def test_sim_config_validation():
    setting = table_settings()[0]
    ok = SimConfig(setting=setting, n_samples=5, seed=3)
    assert ok.ci_level == 0.95
    with pytest.raises(ValueError):
        SimConfig(setting=setting, n_samples=0)
    with pytest.raises(ValueError):
        SimConfig(setting=setting, replications_per_x=0)
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
    setting = table_settings()[0]
    data, latent = generate_dataset(setting, 4, rng)
    assert len(data) == 44
    assert isinstance(latent, LatentRecord)
    assert latent.lam.shape == (44,) and latent.n.shape == (44,)
    # Counts cannot exceed their latent sizes.
    assert np.all(data.y <= latent.n)
    assert np.all(data.y >= 0)
    x1, _ = builtin_designs()
    for block, value in enumerate(x1):
        rows = data.X[4 * block:4 * (block + 1)]
        assert np.all(rows[:, 0] == 1.0)
        assert np.all(rows[:, 1] == value)


def test_generate_dataset_degenerate_gamma_path():
    rng = np.random.default_rng(5)
    setting = make_setting((-1.0, 2.0), 1.0, 150.0, INFINITE)
    _, latent = generate_dataset(setting, 6, rng)
    assert np.all(latent.lam == 150.0)


@pytest.mark.parametrize("x_value,slope,mu,alpha", [
    (0.7, 1.0, 100.0, 25.0),
    (-0.4, 2.0, 300.0, 49.0),
])
def test_generated_moments_match_model(x_value, slope, mu, alpha):
    rng = np.random.default_rng(2718)
    setting = single_point_setting(x_value, slope, mu, alpha)
    data, _ = generate_dataset(setting, 10**5, rng)
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
    data, _ = generate_dataset(setting, 10**5, rng)
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


def test_run_study_aggregates_sane():
    config = SimConfig(setting=table_settings()[0], n_samples=30, seed=7)
    out = run_study(config)
    assert 0 < out.n_converged <= 30
    assert 0.0 <= out.coverage <= 1.0
    assert math.isfinite(out.bias) and math.isfinite(out.mse)
    assert out.mse >= out.bias**2 - 1e-12
    # The slope estimates should scatter near the generating value.
    assert abs(out.bias) < 0.1


def test_run_study_keeps_samples_whose_expected_se_is_too_costly(monkeypatch):
    # A sample whose alpha information hits the term cap falls back to the
    # fit's observed standard error instead of aborting the whole study.
    config = SimConfig(setting=table_settings()[0], n_samples=6, seed=5)
    unpatched = run_study(config)
    monkeypatch.setattr(information, "_ALPHA_MAX_TERMS", 8)
    capped = run_study(config)
    assert unpatched.n_converged > 0
    assert capped.n_converged == unpatched.n_converged
    assert capped.bias == unpatched.bias and capped.mse == unpatched.mse
