"""Efficiency-loss measures rho and gamma and the two diagnostic curves."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from latentbinom import (INFINITE, EffResult, EffSetting, ModelParams,
                         builtin_designs, efficiency_measures,
                         efficiency_table, gamma_curve, info_full,
                         info_known_mean, inverse_with_condition, make_setting,
                         sd_vs_mu_curves, table_settings)
from latentbinom.cli import (_CURVE_PANELS, _MU_GRID, _SD_CURVE_PANELS,
                             _alpha_grid, _read_settings_file)
from latentbinom.efficiency import _measure
from latentbinom.information import _known_sizes_gram
from latentbinom.model import _logistic

# Reference (rho, gamma, rho*gamma) triples for the 16 tabulated settings.
REFERENCE_ROWS = [
    (0.706, 0.837, 0.591),
    (0.747, 0.859, 0.642),
    (0.706, 0.732, 0.517),
    (0.747, 0.773, 0.578),
    (0.706, 0.890, 0.629),
    (0.747, 0.902, 0.674),
    (0.706, 0.799, 0.564),
    (0.747, 0.828, 0.618),
    (0.729, 0.858, 0.625),
    (0.786, 0.902, 0.709),
    (0.729, 0.765, 0.558),
    (0.786, 0.816, 0.641),
    (0.729, 0.904, 0.659),
    (0.786, 0.941, 0.740),
    (0.729, 0.824, 0.601),
    (0.786, 0.871, 0.685),
]


def test_builtin_designs_contents():
    x1, x2 = builtin_designs()
    assert x1 == [float(t) for t in range(-5, 6)]
    assert len(x2) == 11
    assert x2[0] == -0.63
    assert x2[-1] == 6.49
    assert x2 == [-0.63, 1.59, -3.01, -6.85, -4.97, 1.86, -7.54, -3.45,
                  -4.45, -1.87, 6.49]


def test_table_settings_layout():
    settings = table_settings()
    assert len(settings) == 16
    x1, x2 = builtin_designs()
    for i, setting in enumerate(settings):
        values = setting.X[:, 1].tolist()
        assert values == (x1 if i < 8 else x2)
        assert setting.beta[0] == 1.0
        assert np.all(setting.X[:, 0] == 1.0)
        assert np.all(setting.r == 10)
    layout = [(s.beta[1], s.mu, s.alpha) for s in settings[:8]]
    assert layout == [(1, 100, 25), (2, 100, 25), (1, 300, 25), (2, 300, 25),
                      (1, 100, 49), (2, 100, 49), (1, 300, 49), (2, 300, 49)]
    assert layout == [(s.beta[1], s.mu, s.alpha) for s in settings[8:]]


def test_setting_one_measures():
    res = efficiency_measures(table_settings()[0])
    assert res.rho == pytest.approx(0.706, abs=5e-4)
    assert res.gamma == pytest.approx(0.837, abs=5e-4)
    assert res.rho_gamma == pytest.approx(0.591, abs=5e-4)


def test_setting_fourteen_measures():
    res = efficiency_measures(table_settings()[13])
    assert res.rho == pytest.approx(0.786, abs=5e-4)
    assert res.gamma == pytest.approx(0.941, abs=5e-4)
    # The second design's covariates are given to two decimals, and that
    # rounding alone can move this cell by 1.4e-3; the acceptance suite
    # derives each such cell's allowance from the rounding.
    assert res.rho_gamma == pytest.approx(0.740, abs=1e-3)


def test_first_design_rows_match_reference():
    for setting, row in zip(table_settings()[:8], REFERENCE_ROWS[:8]):
        res = efficiency_measures(setting)
        assert res.rho == pytest.approx(row[0], abs=5e-4)
        assert res.gamma == pytest.approx(row[1], abs=5e-4)
        assert res.rho_gamma == pytest.approx(row[2], abs=5e-4)


def test_second_design_rows_match_reference():
    # This design's covariates are given to two decimals, and that rounding
    # alone can move a cell by up to 1.7e-3, so five cells sit 6e-4 to 1e-3
    # from the table. This suite pins a fixed looser bound; the acceptance
    # suite derives each cell's allowance from the rounding.
    for setting, row in zip(table_settings()[8:], REFERENCE_ROWS[8:]):
        res = efficiency_measures(setting)
        assert res.rho == pytest.approx(row[0], abs=5e-4)
        assert res.gamma == pytest.approx(row[1], abs=1e-3)
        assert res.rho_gamma == pytest.approx(row[2], abs=1e-3)


def test_product_identity_and_range():
    for setting in table_settings():
        res = efficiency_measures(setting)
        assert res.rho_gamma == pytest.approx(res.rho * res.gamma, abs=1e-12)
        assert 0.0 < res.rho <= 1.0
        assert 0.0 < res.gamma <= 1.0


def test_measures_replication_invariant():
    x1, _ = builtin_designs()
    base = efficiency_measures(make_setting(x1, 1.0, 100.0, 25.0, replications=10))
    for reps in (1, 3, 37):
        other = efficiency_measures(make_setting(x1, 1.0, 100.0, 25.0, replications=reps))
        assert other.rho == pytest.approx(base.rho, rel=1e-12)
        assert other.gamma == pytest.approx(base.gamma, rel=1e-12)


def measures_per_matrix(setting):
    """efficiency_measures with each of its three information matrices built
    and inverted alone, the Poisson-size one through a replaced alpha."""
    X, r, params = setting.X, setting.r, setting.params
    variances, conds = [], []
    for matrix in (info_known_mean(X, r, params),
                   info_full(X, r, replace(params, alpha=INFINITE)),
                   info_full(X, r, params)):
        inv, cond = inverse_with_condition(matrix)
        variances.append(float(inv[1, 1]))
        conds.append(cond)
    v_known, v_poisson, v_full = variances
    rho = _measure("rho", v_known / v_poisson, max(conds))
    gamma = _measure("gamma", v_poisson / v_full, max(conds))
    return EffResult(rho=rho, gamma=gamma, rho_gamma=rho * gamma)


@pytest.mark.parametrize("setting", table_settings() + [
    make_setting(builtin_designs()[0], 1.0, 100.0, INFINITE),
    make_setting(builtin_designs()[0], 1.0, 100.0, 1e-300),
], ids=[f"table-{i}" for i in range(1, 17)] + ["alpha-inf", "alpha-1e-300"])
def test_measures_equal_per_matrix_evaluation(setting):
    # The Poisson-size and full matrices are one stack of two, the code a
    # gamma_curve point runs; each slice is the matrix alone, bit for bit.
    assert efficiency_measures(setting) == measures_per_matrix(setting)


def bench_grid_settings(tmp_path):
    """The settings of every custom grid the benchmark's design workload
    draws from, written by its input generator (read only)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    bench_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_inputs)
    settings = []
    for k in range(bench_inputs.DESIGN_POOL):
        bench_inputs.write_grid_csv(tmp_path / f"grid-{k}.csv", k)
        settings += _read_settings_file(tmp_path / f"grid-{k}.csv")
    return settings


def test_known_sizes_matrix_reuses_the_settings_arrays(tmp_path):
    # efficiency_measures builds the observed-sizes matrix on the setting's
    # X, r and h; it equals info_known_mean's, which validates the design
    # and evaluates the link again, bit for bit.
    for setting in table_settings() + bench_grid_settings(tmp_path):
        ours = _known_sizes_gram(setting.X, setting.r, setting.h, setting.mu)
        assert ours.tobytes() == info_known_mean(
            setting.X, setting.r, setting.params).tobytes()
        assert efficiency_measures(setting) == measures_per_matrix(setting)


def test_table_equals_per_matrix_evaluation(tmp_path):
    # A whole table is two stacks; each setting's slices are its matrices
    # built and inverted alone, bit for bit.
    for settings in (table_settings(), bench_grid_settings(tmp_path)):
        assert efficiency_table(settings) == [
            measures_per_matrix(s) for s in settings]


def test_table_refuses_mixed_design_shapes():
    x1, _ = builtin_designs()
    short = make_setting(x1[:5], 1.0, 100.0, 25.0)
    with pytest.raises(ValueError, match=r"got \[\(5, 2\), \(11, 2\)\]"):
        efficiency_table(table_settings()[:2] + [short])
    wide = EffSetting(X=np.column_stack([short.X, short.X[:, 1] ** 2]),
                      r=short.r, beta=[1.0, 1.0, 0.0], mu=100.0, alpha=25.0)
    with pytest.raises(ValueError, match=r"got \[\(5, 2\), \(5, 3\)\]"):
        efficiency_table([short, wide])
    assert efficiency_table([wide]) == [measures_per_matrix(wide)]
    with pytest.raises(ValueError, match="one design shape"):
        efficiency_table([])


def test_measures_raise_numerical_failures():
    x1, _ = builtin_designs()
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"too close to zero to invert \(setting 1\)$"):
        efficiency_measures(make_setting(x1, 1.0, 1e-310, 25.0))
    with pytest.raises(RuntimeError, match=r"^rho = .* \(setting 1\)$"):
        efficiency_measures(make_setting(x1, 40.0, 100.0, 25.0))


def test_setting_keeps_read_only_link():
    for setting in table_settings():
        assert setting.h.tobytes() == _logistic(setting.X @ setting.beta).tobytes()
        assert not setting.h.flags.writeable
        with pytest.raises(ValueError):
            setting.h[0] = 0.5
    setting = table_settings()[0]
    moved = replace(setting, beta=np.array([1.0, -2.0]))
    assert moved.h.tobytes() == _logistic(setting.X @ np.array([1.0, -2.0])).tobytes()
    assert not np.array_equal(moved.h, setting.h)
    # h is derived, never given.
    with pytest.raises(ValueError, match="init=False"):
        replace(setting, h=setting.h)


def test_rho_ignores_mu_and_alpha():
    settings = table_settings()
    rhos = [efficiency_measures(settings[i]).rho for i in (0, 2, 4, 6)]
    for r in rhos[1:]:
        assert r == pytest.approx(rhos[0], rel=1e-10)


def test_eff_result_validation():
    with pytest.raises(ValueError):
        EffResult(rho=1.2, gamma=0.5, rho_gamma=0.6)
    with pytest.raises(ValueError):
        EffResult(rho=0.5, gamma=-0.1, rho_gamma=0.05)


def test_make_setting_validation():
    x1, _ = builtin_designs()
    with pytest.raises(ValueError):
        make_setting(x1, 1.0, -5.0, 25.0)
    with pytest.raises(ValueError):
        make_setting(x1, 1.0, 100.0, 0.0)
    with pytest.raises(ValueError):
        make_setting([1 + 5j, 2, 3], 1.0, 100.0, 25.0)
    with pytest.raises(ValueError):
        make_setting(["1", "2", "3"], 1.0, 100.0, 25.0)


# -- gamma(alpha) curve ----------------------------------------------------------


def test_gamma_curve_matches_point_measures():
    setting = table_settings()[0]
    curve = dict(gamma_curve(setting, [25.0, 49.0]))
    x1, _ = builtin_designs()
    # One code path: a table gamma is the curve's point at its shape.
    assert curve[25.0] == efficiency_measures(make_setting(x1, 1.0, 100.0, 25.0)).gamma
    assert curve[49.0] == efficiency_measures(make_setting(x1, 1.0, 100.0, 49.0)).gamma


def test_gamma_curve_monotone_and_saturating():
    x1, _ = builtin_designs()
    grid = list(np.geomspace(5.0, 500.0, 50))
    for slope, mu in ((1.0, 100.0), (2.0, 100.0), (1.0, 300.0), (2.0, 300.0)):
        setting = make_setting(x1, slope, mu, 25.0)
        curve = gamma_curve(setting, grid)
        gammas = [g for _, g in curve]
        for lo, hi in zip(gammas, gammas[1:]):
            assert hi >= lo - 1e-12
        (_, limit), = gamma_curve(setting, [1e8])
        assert 1.0 - 1e-4 <= limit <= 1.0


def test_gamma_curve_grid_validation():
    setting = table_settings()[0]
    with pytest.raises(ValueError):
        gamma_curve(setting, [49.0, 25.0])
    with pytest.raises(ValueError):
        gamma_curve(setting, [25.0, 25.0])
    with pytest.raises(ValueError):
        gamma_curve(setting, [-1.0, 25.0])
    for grid in ([25.0, math.nan], [math.nan, 25.0], [49.0, math.nan, 25.0]):
        with pytest.raises(ValueError, match="alpha grid must be positive"):
            gamma_curve(setting, grid)
    assert gamma_curve(setting, [25.0, INFINITE])[-1] == (INFINITE, 1.0)


def slope_variance(setting, **changes):
    """The slope's variance at one point."""
    inv, _ = inverse_with_condition(
        info_full(setting.X, setting.r, replace(setting.params, **changes)))
    return float(inv[1, 1])


def gamma_per_point(setting, grid):
    """gamma_curve as one information matrix and one inverse per point."""
    v_poisson = slope_variance(setting, alpha=INFINITE)
    return [(a, (v_poisson / slope_variance(setting, alpha=a)) ** 0.25) for a in grid]


def sd_per_point(setting, grid):
    """sd_vs_mu_curves as one information matrix and one inverse per point."""
    out = []
    for mu in grid:
        inv, _ = inverse_with_condition(
            info_full(setting.X, setting.r, replace(setting.params, mu=mu)))
        out.append((mu, *(float(v) for v in np.sqrt(np.diag(inv)[:3]))))
    return out


@pytest.mark.parametrize("slope,mu", _CURVE_PANELS)
def test_gamma_curve_equals_per_point_evaluation(slope, mu):
    # One stacked evaluation gives each point exactly as a point alone.
    setting = make_setting(builtin_designs()[0], slope, mu, alpha=25.0)
    grid = _alpha_grid()
    assert gamma_curve(setting, grid) == gamma_per_point(setting, grid)


@pytest.mark.parametrize("slope,alpha", _SD_CURVE_PANELS)
def test_sd_curves_equal_per_point_evaluation(slope, alpha):
    setting = make_setting(builtin_designs()[0], slope, 100.0, alpha)
    assert sd_vs_mu_curves(setting, _MU_GRID) == sd_per_point(setting, _MU_GRID)


@pytest.mark.parametrize("curve,slope,mu,alpha,grid,outcome", [
    (gamma_curve, 1.0, 100.0, 25.0, [1e-300, 25.0], 5.257396547716433e-76),
    (gamma_curve, 1.0, 1e-310, 25.0, [25.0], "non-finite entry"),
    (gamma_curve, 1.0, 1e308, 25.0, [25.0], "non-finite entry"),
    (sd_vs_mu_curves, 1.0, 100.0, 25.0, [1e-310, 1.0], "non-finite entry"),
    (sd_vs_mu_curves, 1.0, 100.0, 25.0, [100.0, 1e308], "non-finite entry"),
    (gamma_curve, 50.0, 0.001, 1.0, [1.0], "too close to zero"),
    (sd_vs_mu_curves, 50.0, 0.001, 1.0, [0.001], "too close to zero"),
    (sd_vs_mu_curves, 1.0, 100.0, 1e-300, [50.0, 100.0], None),
    # A mixed stack: the near-singular matrix at mu = 0.001 comes first, but
    # every matrix is checked for non-finite entries before any is decomposed.
    (sd_vs_mu_curves, 50.0, 100.0, 1.0, [0.001, 1e308], "non-finite entry"),
], ids=["gamma-alpha-tiny", "gamma-mu-tiny", "gamma-mu-huge", "sd-mu-tiny",
        "sd-mu-huge", "gamma-near-singular", "sd-near-singular",
        "sd-alpha-tiny", "sd-mixed-stack"])
def test_curves_on_hostile_grids(curve, slope, mu, alpha, grid, outcome):
    # Overflow and underflow end in a value or a LinAlgError, never in a
    # numpy warning (the suite turns warnings into errors).
    setting = make_setting(builtin_designs()[0], slope, mu, alpha)
    if isinstance(outcome, str):
        with pytest.raises(np.linalg.LinAlgError, match=outcome):
            curve(setting, grid)
        return
    rows = curve(setting, grid)
    assert [row[0] for row in rows] == grid
    assert all(math.isfinite(v) and v > 0 for row in rows for v in row[1:])
    if outcome is not None:
        assert rows[0][1] == outcome


@pytest.mark.parametrize("curve,design,slope,mu,alpha,grid", [
    (gamma_curve, 1, 50.0, 0.001, 1.0, [1.0, 25.0]),
    (gamma_curve, 0, 35.0, 100.0, 25.0, [25.0]),
    (sd_vs_mu_curves, 1, 50.0, 0.001, 1.0, [0.001, 1.0]),
], ids=["gamma-complex", "gamma-above-one", "sd-negative-variance"])
def test_curves_refuse_unstable_inverses(curve, design, slope, mu, alpha, grid):
    # Condition numbers of 1e14 and beyond turn a variance ratio complex or
    # past 1, and a variance negative: numerical failures, not curve points.
    setting = make_setting(builtin_designs()[design], slope, mu, alpha)
    with pytest.raises(RuntimeError):
        curve(setting, grid)


# -- sd-versus-mu curve ------------------------------------------------------------


def test_sd_curves_monotone():
    x1, _ = builtin_designs()
    setting = make_setting(x1, 1.0, 100.0, 25.0)
    rows = sd_vs_mu_curves(setting, [float(m) for m in range(50, 501, 50)])
    for (m0, b0_lo, b1_lo, mu_lo), (m1, b0_hi, b1_hi, mu_hi) in zip(rows, rows[1:]):
        assert m1 > m0
        assert b0_hi <= b0_lo * (1 + 1e-12)
        assert b1_hi <= b1_lo * (1 + 1e-12)
        assert mu_hi >= mu_lo * (1 - 1e-12)


def test_sd_curves_replication_scaling():
    x1, _ = builtin_designs()
    ten = sd_vs_mu_curves(make_setting(x1, 1.0, 100.0, 25.0, replications=10),
                          [50.0, 200.0])
    twenty = sd_vs_mu_curves(make_setting(x1, 1.0, 100.0, 25.0, replications=20),
                             [50.0, 200.0])
    for row10, row20 in zip(ten, twenty):
        for sd10, sd20 in zip(row10[1:], row20[1:]):
            assert sd20 == pytest.approx(sd10 / math.sqrt(2.0), rel=1e-10)


def test_sd_curves_poisson_submodel_mu_factorization():
    x1, _ = builtin_designs()
    scaled = []
    for mu in (50.0, 100.0, 200.0, 400.0):
        setting = make_setting(x1, 1.0, mu, 25.0)
        params = ModelParams(beta=setting.beta, mu=mu, alpha=INFINITE)
        inv = np.linalg.inv(info_full(setting.X, setting.r, params))
        scaled.append((mu * inv[0, 0], mu * inv[1, 1], inv[2, 2] / mu))
    for other in scaled[1:]:
        assert other == pytest.approx(scaled[0], rel=1e-10)


def test_sd_curves_grid_validation():
    setting = table_settings()[0]
    with pytest.raises(ValueError):
        sd_vs_mu_curves(setting, [100.0, 50.0])
    with pytest.raises(ValueError):
        sd_vs_mu_curves(setting, [0.0, 50.0])
    for grid in ([50.0, math.nan], [50.0, INFINITE], [100.0, math.nan, 50.0]):
        with pytest.raises(ValueError, match="mu grid must be positive and finite"):
            sd_vs_mu_curves(setting, grid)
    assert sd_vs_mu_curves(setting, []) == []
