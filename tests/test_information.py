"""Expected information matrices and the block variance partition."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from latentbinom import (ModelParams, block_variance_partition, builtin_designs,
                         expected_alpha_info, info_full, info_known_mean,
                         info_known_sizes, info_poisson_size,
                         inverse_with_condition, link_h, make_setting)
from latentbinom import information
from latentbinom.information import _design_arrays


def design(doses, replications):
    """Intercept-plus-dose rows X and their replications r."""
    doses = np.asarray(doses, dtype=float)
    return (np.column_stack([np.ones(doses.size), doses]),
            np.broadcast_to(replications, doses.shape).astype(int))


def dose_design(replications=10):
    """Intercept-plus-integer-dose design on -5..5."""
    return design(range(-5, 6), replications)


def grad_h(x, beta):
    """Gradient of link_h in beta: h (1 - h) x."""
    h = link_h(x, beta)
    return h * (1.0 - h) * x


SETTING_ONE = ModelParams(beta=np.array([1.0, 1.0]), mu=100.0, alpha=25.0)


def alpha_info_brute_force(x, params, y_max):
    """Untruncated-sum oracle built from scipy's pmf and trigamma."""
    a = params.alpha
    m = params.mu * link_h(np.asarray(x, dtype=float), params.beta)
    ys = np.arange(y_max + 1)
    pmf = stats.nbinom.pmf(ys, a, a / (a + m))
    tri = special.polygamma(1, a) - special.polygamma(1, a + ys)
    return float(pmf @ tri - m / (a * (a + m)))


def random_params(rng, d=2):
    beta = rng.normal(scale=0.8, size=d)
    mu = math.exp(rng.uniform(math.log(5.0), math.log(300.0)))
    alpha = math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
    return ModelParams(beta=beta, mu=mu, alpha=alpha)


# -- design arrays ---------------------------------------------------------------


def test_design_arrays_accepts_and_copies():
    X, r = dose_design(replications=3)
    got_X, got_r, h = _design_arrays(X, r, SETTING_ONE)
    assert np.array_equal(got_X, X) and got_X is not X
    assert got_r.dtype == np.int64 and np.all(got_r == 3)
    assert not got_X.flags.writeable and not got_r.flags.writeable
    assert X.flags.writeable
    assert np.allclose(h, [link_h(x, SETTING_ONE.beta) for x in X], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("X,r", [
    ([[1.0, 2.0], [1.0, np.inf]], [1, 1]),
    ([[1.0, 2.0], [np.nan, 1.0]], [1, 1]),
    ([[1.0, 2.0]], [0]),
    ([[1.0, 2.0]], [2.5]),
    ([[1.0, 2.0]], [True]),
    ([[1.0, 2.0]], True),
    ([[1.0, 2.0], [1.0, 3.0]], [1]),
    ([[1.0, 2.0]], [1, 1]),
    (np.empty((0, 2)), []),
    ([], []),
    ([1.0, 2.0], [1, 1]),
    ([[1.0, 2.0, 3.0]], [1]),
    ([[1.0]], [1]),
], ids=["inf-X", "nan-X", "r-zero", "r-fraction", "r-bool", "r-scalar-bool",
        "r-short", "r-long", "X-empty", "X-empty-list", "X-1d", "d-above-beta",
        "d-below-beta"])
def test_design_arrays_rejects(X, r):
    with pytest.raises(ValueError):
        _design_arrays(X, r, SETTING_ONE)


# -- full-model information ----------------------------------------------------


def test_full_alpha_cross_entries_exactly_zero():
    m = info_full(*dose_design(), SETTING_ONE)
    assert m.shape == (4, 4)
    assert np.all(m[3, :3] == 0.0)
    assert np.all(m[:3, 3] == 0.0)
    assert m[3, 3] > 0.0


def test_full_single_point_large_alpha_beta_entry():
    # At h = 1/2 the slope-free entry is r * mu * (grad h)^2 / h.
    params = ModelParams(beta=np.array([0.0]), mu=100.0, alpha=1e10)
    got = info_full([[1.0]], [3], params)[0, 0]
    assert got == pytest.approx(3 * 100.0 * 0.25**2 / 0.5, rel=1e-8)


@pytest.mark.parametrize("alpha,rel", [(1e10, 1e-8), (1e8, 1e-6)])
def test_full_reduces_to_poisson_size_block(alpha, rel):
    X, r = dose_design()
    params = ModelParams(beta=SETTING_ONE.beta, mu=100.0, alpha=alpha)
    full_block = info_full(X, r, params)[:3, :3]
    poisson = info_poisson_size(X, r, params)
    assert np.max(np.abs(full_block - poisson)) <= rel * np.max(np.abs(poisson))


def slope_variance(info_matrix):
    return np.linalg.inv(info_matrix)[1, 1]


def test_full_setting_one_gamma_ratio():
    X, r = dose_design()
    # alpha is orthogonal, so the (beta, mu) block inverts independently.
    full = info_full(X, r, SETTING_ONE)[:3, :3]
    poisson = info_poisson_size(X, r, SETTING_ONE)
    gamma = (slope_variance(poisson) / slope_variance(full)) ** 0.25
    assert gamma == pytest.approx(0.837, abs=5e-4)


def test_poisson_size_setting_one_rho_ratio():
    X, r = dose_design()
    poisson = info_poisson_size(X, r, SETTING_ONE)
    known = info_known_mean(X, r, SETTING_ONE)
    v_known = np.linalg.inv(known)[1, 1]
    rho = (v_known / slope_variance(poisson)) ** 0.25
    assert rho == pytest.approx(0.706, abs=5e-4)


def test_variance_ordering_known_poisson_full():
    X, r = dose_design()
    for params in (SETTING_ONE,
                   ModelParams(beta=np.array([1.0, 0.5]), mu=300.0, alpha=1.0)):
        v_known = np.linalg.inv(info_known_mean(X, r, params))[1, 1]
        v_poisson = slope_variance(info_poisson_size(X, r, params))
        v_full = slope_variance(info_full(X, r, params)[:3, :3])
        assert v_known <= v_poisson * (1 + 1e-12)
        assert v_poisson <= v_full * (1 + 1e-12)


def test_full_rejects_infinite_alpha():
    from latentbinom import INFINITE
    params = ModelParams(beta=np.array([1.0, 1.0]), mu=100.0, alpha=INFINITE)
    with pytest.raises(ValueError):
        info_full(*dose_design(), params)


# -- expected alpha information ------------------------------------------------


def test_alpha_info_positive():
    x = np.array([1.0, 0.5])
    for alpha in (0.5, 2.0, 25.0, 1e4):
        for mu in (5.0, 60.0, 400.0):
            params = ModelParams(beta=np.array([0.2, -0.4]), mu=mu, alpha=alpha)
            assert expected_alpha_info([x], params)[0] > 0.0


def test_alpha_info_matches_untruncated_sum():
    x = np.array([1.0, 0.4])
    params = ModelParams(beta=np.array([0.3, -0.6]), mu=40.0, alpha=6.0)
    got = expected_alpha_info([x], params)[0]
    assert abs(got - alpha_info_brute_force(x, params, 10**6)) < 1e-10


def test_alpha_info_matches_untruncated_sum_random_draws():
    rng = np.random.default_rng(424)
    for _ in range(20):
        params = random_params(rng)
        x = np.array([1.0, rng.uniform(-2.0, 2.0)])
        got = expected_alpha_info([x], params)[0]
        want = alpha_info_brute_force(x, params, 10**6)
        assert abs(got - want) < 1e-10, (params.mu, params.alpha)


def test_alpha_info_matches_monte_carlo():
    rng = np.random.default_rng(77)
    x = np.array([1.0, 0.4])
    params = ModelParams(beta=np.array([0.3, -0.6]), mu=40.0, alpha=6.0)
    a = params.alpha
    m = params.mu * link_h(x, params.beta)
    lam = rng.gamma(shape=a, scale=m / a, size=10**6)
    y = rng.poisson(lam)
    # Per-draw negative curvature of the log density in alpha.
    draws = -(special.polygamma(1, a + y) - special.polygamma(1, a)
              + 1.0 / a - 2.0 / (a + m) + (a + y) / (a + m) ** 2)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - expected_alpha_info([x], params)[0]) < 3 * se


def test_alpha_info_term_budget_enforced(monkeypatch):
    params = ModelParams(beta=np.array([2.0, 0.0]), mu=900.0, alpha=0.6)
    monkeypatch.setattr(information, "_ALPHA_MAX_TERMS", 8)
    with pytest.raises(RuntimeError):
        expected_alpha_info(np.array([[1.0, 0.0]]), params)


# Rows whose count mean m = mu h is exactly 0 (saturated link), about 1e-8,
# about 100 and exactly 1e4, at beta = (0, 1) and mu = 2e4.
SPAN_X = np.array([[1.0, -800.0], [1.0, -28.3], [1.0, -5.29], [1.0, 0.0]])


@pytest.mark.parametrize("alpha", [0.5, 5.0, 100.0, 1e4])
def test_alpha_info_rows_match_untruncated_sum(alpha):
    params = ModelParams(beta=np.array([0.0, 1.0]), mu=2e4, alpha=alpha)
    m = params.mu * np.array([link_h(x, params.beta) for x in SPAN_X])
    assert m[0] == 0.0 and 1e-9 < m[1] < 1e-7 and 90 < m[2] < 110 and m[3] == 1e4
    got = expected_alpha_info(SPAN_X, params)
    want = np.array([alpha_info_brute_force(x, params, 10**6) for x in SPAN_X])
    assert got.shape == (4,) and got[0] == 0.0
    assert np.all(np.abs(got - want) < 1e-10), got - want
    # The alpha entry of the full information sums the rows' values.
    r = np.array([3, 1, 2, 5])
    entry = info_full(SPAN_X, r, params)[-1, -1]
    per_row = sum(int(ri) * w for ri, w in zip(r, want))
    scale = float(r @ (m / (alpha * (alpha + m))))
    assert abs(entry - per_row) < 1e-10 * scale


def test_alpha_info_rows_that_need_more_terms():
    # At alpha = 0.01 the tail is so heavy that m + 50 sd + 10 terms leave
    # about 1e-5 of it for the rows with m = 5 and 25, so those are summed
    # again with more terms, while the row with m near 1e-8 is done at once.
    params = ModelParams(beta=np.array([0.0, 1.0]), mu=50.0, alpha=0.01)
    X = np.array([[1.0, -22.0], [1.0, -2.2], [1.0, 0.0]])
    got = expected_alpha_info(X, params)
    want = np.array([alpha_info_brute_force(x, params, 10**6) for x in X])
    # The truncated tail is worth up to _ALPHA_TAIL_TOL times S ~ alpha^-2.
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10), got - want


def test_alpha_info_working_memory_stays_linear_in_terms():
    # The alpha-only tables are shared by every row and the per-row work is
    # done in place, so the peak is a few arrays of the longest row's term
    # count; an n x terms array would be about 11 of them here.
    x1, _ = builtin_designs()
    setting = make_setting(x1, 1.0, 1e4, 5.0)
    a = setting.alpha
    m = setting.mu * np.array([link_h(x, setting.beta) for x in setting.X])
    k_max = max(max(math.ceil(mi + 50.0 * math.sqrt(mi * (1.0 + mi / a))) + 10, 64)
                for mi in m)
    info_full(setting.X, setting.r, setting.params)
    tracemalloc.start()
    try:
        info_full(setting.X, setting.r, setting.params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * k_max, peak / (8 * k_max)

# -- reduced-information variants ----------------------------------------------


def test_poisson_size_single_point_singular():
    info = info_poisson_size([[1.0, 2.0]], [5], SETTING_ONE)
    eigs = np.linalg.eigvalsh(info)
    assert np.min(np.abs(eigs)) < 1e-10 * np.trace(info)


def test_known_mean_equals_known_sizes_at_mu():
    X, r = dose_design(replications=2)
    params = ModelParams(beta=np.array([0.5, 0.3]), mu=100.0, alpha=25.0)
    sizes = [100] * int(r.sum())
    mean_info = info_known_mean(X, r, params)
    sized_info = info_known_sizes(X, r, sizes, params)
    assert np.allclose(mean_info, sized_info, rtol=1e-12)


def test_known_mean_half_logit_terms():
    X, r = design((-1.0, 0.5, 2.0), 2)
    params = ModelParams(beta=np.array([0.0, 0.0]), mu=80.0, alpha=10.0)
    want = np.zeros((2, 2))
    for x, ri in zip(X, r):
        gh = grad_h(x, params.beta)
        want += ri * 4.0 * params.mu * np.outer(gh, gh)
    got = info_known_mean(X, r, params)
    assert np.allclose(got, want, rtol=1e-12)


def test_known_mean_scales_linearly_in_mu():
    X, r = dose_design()
    base = info_known_mean(X, r, SETTING_ONE)
    scaled = info_known_mean(
        X, r, ModelParams(beta=SETTING_ONE.beta, mu=350.0, alpha=25.0))
    assert np.allclose(scaled, 3.5 * base, rtol=1e-14)


def test_known_sizes_zero_sizes_give_zero_matrix():
    info = info_known_sizes([[1.0, 1.5], [1.0, -0.5]], [2, 1], [0, 0, 0], SETTING_ONE)
    assert info.shape == (2, 2)
    assert np.all(info == 0.0)


def test_known_sizes_doubling_doubles_matrix():
    X, r = dose_design(replications=1)
    sizes = list(range(90, 101))
    one = info_known_sizes(X, r, sizes, SETTING_ONE)
    two = info_known_sizes(X, r, [2 * n for n in sizes], SETTING_ONE)
    assert np.array_equal(two, 2.0 * one)


def test_known_sizes_misaligned_raises():
    with pytest.raises(ValueError):
        info_known_sizes(*dose_design(replications=2), [100] * 5, SETTING_ONE)
    with pytest.raises(ValueError):
        info_known_sizes(*dose_design(replications=1), [100] * 11 + [-1], SETTING_ONE)


def test_known_sizes_poisson_average_matches_known_mean():
    rng = np.random.default_rng(99)
    X, r = design((-2.0, 0.0, 2.0), 2)
    params = ModelParams(beta=np.array([0.4, 0.6]), mu=50.0, alpha=25.0)
    total = int(r.sum())
    n_vectors = 10**4
    acc = np.zeros((2, 2))
    for sizes in rng.poisson(params.mu, size=(n_vectors, total)):
        acc += info_known_sizes(X, r, sizes, params)
    avg = acc / n_vectors
    want = info_known_mean(X, r, params)
    # Per-entry Monte Carlo error bound: each size has variance mu.
    coeff = np.zeros((2, 2))
    for x, ri in zip(X, r):
        h = link_h(x, params.beta)
        gh = grad_h(x, params.beta)
        coeff += ri * np.abs(np.outer(gh, gh)) / (h * (1.0 - h))
    bound = 4.0 * math.sqrt(params.mu / n_vectors) * coeff
    assert np.all(np.abs(avg - want) < bound)


# -- block variance partition ---------------------------------------------------


def test_block_partition_matches_generic_inverse():
    X, r = dose_design()
    v11, v22 = block_variance_partition(X, r, SETTING_ONE)
    generic = np.linalg.inv(info_poisson_size(X, r, SETTING_ONE))
    assert np.allclose(v11, generic[:2, :2], rtol=1e-8)
    assert v22 == pytest.approx(generic[2, 2], rel=1e-8)


def test_block_partition_mu_factorization():
    X, r = dose_design()
    scaled_v11 = []
    scaled_v22 = []
    for mu in (50.0, 100.0, 200.0, 400.0):
        params = ModelParams(beta=np.array([1.0, 1.0]), mu=mu, alpha=25.0)
        v11, v22 = block_variance_partition(X, r, params)
        scaled_v11.append(mu * np.diag(v11))
        scaled_v22.append(v22 / mu)
    for other in scaled_v11[1:]:
        assert np.allclose(other, scaled_v11[0], rtol=1e-10)
    for other in scaled_v22[1:]:
        assert other == pytest.approx(scaled_v22[0], rel=1e-10)


def test_block_partition_monotone_in_mu():
    X, r = dose_design()
    grid = [20.0, 50.0, 120.0, 260.0, 500.0]
    diags = []
    v22s = []
    for mu in grid:
        params = ModelParams(beta=np.array([1.0, 1.0]), mu=mu, alpha=25.0)
        v11, v22 = block_variance_partition(X, r, params)
        diags.append(np.diag(v11))
        v22s.append(v22)
    for lo, hi in zip(diags, diags[1:]):
        assert np.all(hi <= lo * (1 + 1e-12))
    for lo, hi in zip(v22s, v22s[1:]):
        assert hi >= lo * (1 - 1e-12)


def test_block_partition_singular_design_raises():
    with pytest.raises(np.linalg.LinAlgError):
        block_variance_partition([[1.0, 2.0]], [4], SETTING_ONE)


# -- shared invariants -----------------------------------------------------------


def test_all_variants_positive_semidefinite():
    rng = np.random.default_rng(3)
    for _ in range(5):
        params = random_params(rng)
        rows = [(rng.uniform(-3.0, 3.0), int(rng.integers(1, 5))) for _ in range(4)]
        X, r = design([t for t, _ in rows], [n for _, n in rows])
        sizes = list(rng.poisson(params.mu, size=int(r.sum())))
        matrices = [
            info_full(X, r, params),
            info_poisson_size(X, r, params),
            info_known_mean(X, r, params),
            info_known_sizes(X, r, sizes, params),
        ]
        for m in matrices:
            assert np.max(np.abs(m - m.T)) == 0.0
            eigs = np.linalg.eigvalsh(m)
            assert np.min(eigs) >= -1e-8 * np.trace(m)


def test_inverse_with_condition_flags():
    inv, cond, flagged = inverse_with_condition(np.eye(3))
    assert np.allclose(inv, np.eye(3))
    assert cond == pytest.approx(1.0)
    assert not flagged

    inv, cond, flagged = inverse_with_condition(np.diag([1.0, 1e-13]))
    assert flagged
    assert cond > 1e12
    assert np.isfinite(inv).all()


def test_kernel_matches_per_row_loop_three_covariates():
    rng = np.random.default_rng(31)
    rows = [(np.concatenate([[1.0], rng.uniform(-2.0, 2.0, size=2)]),
             int(rng.integers(1, 6))) for _ in range(7)]
    X = np.array([x for x, _ in rows])
    r = np.array([n for _, n in rows])
    params = ModelParams(beta=np.array([0.3, -0.8, 0.5]), mu=120.0, alpha=4.0)
    sizes = rng.poisson(params.mu, size=int(r.sum()))
    mu, a = params.mu, params.alpha
    full = np.zeros((4, 4))
    known_mean = np.zeros((3, 3))
    known_sizes = np.zeros((3, 3))
    pos = 0
    for x, ri in zip(X, r):
        h = link_h(x, params.beta)
        gh = grad_h(x, params.beta)
        shrink = 1.0 + mu * h / a
        full[:3, :3] += ri * mu * np.outer(gh, gh) / (h * shrink)
        full[:3, 3] += ri * gh / shrink
        full[3, 3] += ri * h / (mu * shrink)
        known_mean += ri * mu * np.outer(gh, gh) / (h * (1.0 - h))
        known_sizes += sizes[pos:pos + ri].sum() * np.outer(gh, gh) / (h * (1.0 - h))
        pos += ri
    full[3, :3] = full[:3, 3]
    for got, want in ((info_full(X, r, params)[:4, :4], full),
                      (info_known_mean(X, r, params), known_mean),
                      (info_known_sizes(X, r, sizes, params), known_sizes)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
