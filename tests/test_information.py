"""Expected information matrices and the block variance partition."""

import math

import numpy as np
import pytest
from scipy import special, stats

from latentbinom import (DesignPoint, InfoVariant, ModelParams, Tolerance,
                         block_variance_partition, expected_alpha_info,
                         info_full, info_known_mean, info_known_sizes,
                         info_poisson_size, inverse_with_condition, link_grad,
                         link_h)


def dose_design(replications=10):
    """Intercept-plus-integer-dose design on -5..5."""
    return [DesignPoint(np.array([1.0, float(t)]), replications)
            for t in range(-5, 6)]


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


# -- containers ----------------------------------------------------------------


def test_design_point_validation():
    pt = DesignPoint(np.array([1.0, 2.0]), 3)
    assert pt.replications == 3
    with pytest.raises(ValueError):
        DesignPoint(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        DesignPoint(np.array([np.inf]), 1)


def test_info_matrix_label_mismatch():
    from latentbinom import InfoMatrix
    with pytest.raises(ValueError):
        InfoMatrix(np.eye(3), InfoVariant.FULL, ("a", "b"))
    with pytest.raises(ValueError):
        InfoMatrix(np.ones((2, 3)), InfoVariant.FULL, ("a", "b"))


# -- full-model information ----------------------------------------------------


def test_full_alpha_cross_entries_exactly_zero():
    info = info_full(dose_design(), SETTING_ONE)
    m = info.matrix
    assert info.variant is InfoVariant.FULL
    assert info.param_labels == ("beta0", "beta1", "mu", "alpha")
    assert np.all(m[3, :3] == 0.0)
    assert np.all(m[:3, 3] == 0.0)
    assert m[3, 3] > 0.0


def test_full_single_point_large_alpha_beta_entry():
    # At h = 1/2 the slope-free entry is r * mu * (grad h)^2 / h.
    pt = [DesignPoint(np.array([1.0]), 3)]
    params = ModelParams(beta=np.array([0.0]), mu=100.0, alpha=1e10)
    got = info_full(pt, params).matrix[0, 0]
    assert got == pytest.approx(3 * 100.0 * 0.25**2 / 0.5, rel=1e-8)


@pytest.mark.parametrize("alpha,rel", [(1e10, 1e-8), (1e8, 1e-6)])
def test_full_reduces_to_poisson_size_block(alpha, rel):
    design = dose_design()
    params = ModelParams(beta=SETTING_ONE.beta, mu=100.0, alpha=alpha)
    full_block = info_full(design, params).matrix[:3, :3]
    poisson = info_poisson_size(design, params).matrix
    assert np.max(np.abs(full_block - poisson)) <= rel * np.max(np.abs(poisson))


def slope_variance(info_matrix):
    return np.linalg.inv(info_matrix)[1, 1]


def test_full_setting_one_gamma_ratio():
    design = dose_design()
    # alpha is orthogonal, so the (beta, mu) block inverts independently.
    full = info_full(design, SETTING_ONE).matrix[:3, :3]
    poisson = info_poisson_size(design, SETTING_ONE).matrix
    gamma = (slope_variance(poisson) / slope_variance(full)) ** 0.25
    assert gamma == pytest.approx(0.837, abs=5e-4)


def test_poisson_size_setting_one_rho_ratio():
    design = dose_design()
    poisson = info_poisson_size(design, SETTING_ONE).matrix
    known = info_known_mean(design, SETTING_ONE).matrix
    v_known = np.linalg.inv(known)[1, 1]
    rho = (v_known / slope_variance(poisson)) ** 0.25
    assert rho == pytest.approx(0.706, abs=5e-4)


def test_variance_ordering_known_poisson_full():
    design = dose_design()
    for params in (SETTING_ONE,
                   ModelParams(beta=np.array([1.0, 0.5]), mu=300.0, alpha=1.0)):
        v_known = np.linalg.inv(info_known_mean(design, params).matrix)[1, 1]
        v_poisson = slope_variance(info_poisson_size(design, params).matrix)
        v_full = slope_variance(info_full(design, params).matrix[:3, :3])
        assert v_known <= v_poisson * (1 + 1e-12)
        assert v_poisson <= v_full * (1 + 1e-12)


def test_full_rejects_infinite_alpha():
    from latentbinom import INFINITE
    params = ModelParams(beta=np.array([1.0, 1.0]), mu=100.0, alpha=INFINITE)
    with pytest.raises(ValueError):
        info_full(dose_design(), params)


# -- expected alpha information ------------------------------------------------


def test_alpha_info_positive():
    x = np.array([1.0, 0.5])
    for alpha in (0.5, 2.0, 25.0, 1e4):
        for mu in (5.0, 60.0, 400.0):
            params = ModelParams(beta=np.array([0.2, -0.4]), mu=mu, alpha=alpha)
            assert expected_alpha_info(x, params) > 0.0


def test_alpha_info_matches_untruncated_sum():
    x = np.array([1.0, 0.4])
    params = ModelParams(beta=np.array([0.3, -0.6]), mu=40.0, alpha=6.0)
    got = expected_alpha_info(x, params)
    assert abs(got - alpha_info_brute_force(x, params, 10**6)) < 1e-10


def test_alpha_info_matches_untruncated_sum_random_draws():
    rng = np.random.default_rng(424)
    for _ in range(20):
        params = random_params(rng)
        x = np.array([1.0, rng.uniform(-2.0, 2.0)])
        got = expected_alpha_info(x, params)
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
    assert abs(draws.mean() - expected_alpha_info(x, params)) < 3 * se


def test_alpha_info_term_budget_enforced():
    params = ModelParams(beta=np.array([2.0, 0.0]), mu=900.0, alpha=0.6)
    with pytest.raises(RuntimeError):
        expected_alpha_info(np.array([1.0, 0.0]), params, Tolerance(max_terms=8))


# -- reduced-information variants ----------------------------------------------


def test_poisson_size_single_point_singular():
    info = info_poisson_size([DesignPoint(np.array([1.0, 2.0]), 5)], SETTING_ONE)
    eigs = np.linalg.eigvalsh(info.matrix)
    assert np.min(np.abs(eigs)) < 1e-10 * np.trace(info.matrix)


def test_known_mean_equals_known_sizes_at_mu():
    design = dose_design(replications=2)
    params = ModelParams(beta=np.array([0.5, 0.3]), mu=100.0, alpha=25.0)
    sizes = [100] * sum(pt.replications for pt in design)
    mean_info = info_known_mean(design, params).matrix
    sized_info = info_known_sizes(design, sizes, params).matrix
    assert np.allclose(mean_info, sized_info, rtol=1e-12)


def test_known_mean_half_logit_terms():
    design = [DesignPoint(np.array([1.0, t]), 2) for t in (-1.0, 0.5, 2.0)]
    params = ModelParams(beta=np.array([0.0, 0.0]), mu=80.0, alpha=10.0)
    want = np.zeros((2, 2))
    for pt in design:
        gh = link_grad(pt.x, params.beta)
        want += pt.replications * 4.0 * params.mu * np.outer(gh, gh)
    got = info_known_mean(design, params).matrix
    assert np.allclose(got, want, rtol=1e-12)


def test_known_mean_scales_linearly_in_mu():
    design = dose_design()
    base = info_known_mean(design, SETTING_ONE).matrix
    scaled = info_known_mean(
        design, ModelParams(beta=SETTING_ONE.beta, mu=350.0, alpha=25.0)).matrix
    assert np.allclose(scaled, 3.5 * base, rtol=1e-14)


def test_known_sizes_zero_sizes_give_zero_matrix():
    design = [DesignPoint(np.array([1.0, 1.5]), 2), DesignPoint(np.array([1.0, -0.5]), 1)]
    info = info_known_sizes(design, [0, 0, 0], SETTING_ONE)
    assert np.all(info.matrix == 0.0)
    assert info.variant is InfoVariant.KNOWN_SIZES


def test_known_sizes_doubling_doubles_matrix():
    design = dose_design(replications=1)
    sizes = list(range(90, 101))
    one = info_known_sizes(design, sizes, SETTING_ONE).matrix
    two = info_known_sizes(design, [2 * n for n in sizes], SETTING_ONE).matrix
    assert np.array_equal(two, 2.0 * one)


def test_known_sizes_misaligned_raises():
    with pytest.raises(ValueError):
        info_known_sizes(dose_design(replications=2), [100] * 5, SETTING_ONE)
    with pytest.raises(ValueError):
        info_known_sizes(dose_design(replications=1), [100] * 11 + [-1], SETTING_ONE)


def test_known_sizes_poisson_average_matches_known_mean():
    rng = np.random.default_rng(99)
    design = [DesignPoint(np.array([1.0, t]), 2) for t in (-2.0, 0.0, 2.0)]
    params = ModelParams(beta=np.array([0.4, 0.6]), mu=50.0, alpha=25.0)
    total = sum(pt.replications for pt in design)
    n_vectors = 10**4
    acc = np.zeros((2, 2))
    for sizes in rng.poisson(params.mu, size=(n_vectors, total)):
        acc += info_known_sizes(design, sizes, params).matrix
    avg = acc / n_vectors
    want = info_known_mean(design, params).matrix
    # Per-entry Monte Carlo error bound: each size has variance mu.
    coeff = np.zeros((2, 2))
    for pt in design:
        h = link_h(pt.x, params.beta)
        gh = link_grad(pt.x, params.beta)
        coeff += pt.replications * np.abs(np.outer(gh, gh)) / (h * (1.0 - h))
    bound = 4.0 * math.sqrt(params.mu / n_vectors) * coeff
    assert np.all(np.abs(avg - want) < bound)


# -- block variance partition ---------------------------------------------------


def test_block_partition_matches_generic_inverse():
    design = dose_design()
    v11, v22 = block_variance_partition(design, SETTING_ONE)
    generic = np.linalg.inv(info_poisson_size(design, SETTING_ONE).matrix)
    assert np.allclose(v11, generic[:2, :2], rtol=1e-8)
    assert v22 == pytest.approx(generic[2, 2], rel=1e-8)


def test_block_partition_mu_factorization():
    design = dose_design()
    scaled_v11 = []
    scaled_v22 = []
    for mu in (50.0, 100.0, 200.0, 400.0):
        params = ModelParams(beta=np.array([1.0, 1.0]), mu=mu, alpha=25.0)
        v11, v22 = block_variance_partition(design, params)
        scaled_v11.append(mu * np.diag(v11))
        scaled_v22.append(v22 / mu)
    for other in scaled_v11[1:]:
        assert np.allclose(other, scaled_v11[0], rtol=1e-10)
    for other in scaled_v22[1:]:
        assert other == pytest.approx(scaled_v22[0], rel=1e-10)


def test_block_partition_monotone_in_mu():
    design = dose_design()
    grid = [20.0, 50.0, 120.0, 260.0, 500.0]
    diags = []
    v22s = []
    for mu in grid:
        params = ModelParams(beta=np.array([1.0, 1.0]), mu=mu, alpha=25.0)
        v11, v22 = block_variance_partition(design, params)
        diags.append(np.diag(v11))
        v22s.append(v22)
    for lo, hi in zip(diags, diags[1:]):
        assert np.all(hi <= lo * (1 + 1e-12))
    for lo, hi in zip(v22s, v22s[1:]):
        assert hi >= lo * (1 - 1e-12)


def test_block_partition_singular_design_raises():
    with pytest.raises(np.linalg.LinAlgError):
        block_variance_partition([DesignPoint(np.array([1.0, 2.0]), 4)], SETTING_ONE)


# -- shared invariants -----------------------------------------------------------


def test_all_variants_positive_semidefinite():
    rng = np.random.default_rng(3)
    for _ in range(5):
        params = random_params(rng)
        design = [DesignPoint(np.array([1.0, rng.uniform(-3.0, 3.0)]),
                              int(rng.integers(1, 5))) for _ in range(4)]
        sizes = list(rng.poisson(params.mu,
                                 size=sum(pt.replications for pt in design)))
        matrices = [
            info_full(design, params).matrix,
            info_poisson_size(design, params).matrix,
            info_known_mean(design, params).matrix,
            info_known_sizes(design, sizes, params).matrix,
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
    design = [DesignPoint(np.concatenate([[1.0], rng.uniform(-2.0, 2.0, size=2)]),
                          int(rng.integers(1, 6))) for _ in range(7)]
    params = ModelParams(beta=np.array([0.3, -0.8, 0.5]), mu=120.0, alpha=4.0)
    sizes = rng.poisson(params.mu, size=sum(pt.replications for pt in design))
    mu, a = params.mu, params.alpha
    full = np.zeros((4, 4))
    known_mean = np.zeros((3, 3))
    known_sizes = np.zeros((3, 3))
    pos = 0
    for pt in design:
        r = pt.replications
        h = link_h(pt.x, params.beta)
        gh = link_grad(pt.x, params.beta)
        shrink = 1.0 + mu * h / a
        full[:3, :3] += r * mu * np.outer(gh, gh) / (h * shrink)
        full[:3, 3] += r * gh / shrink
        full[3, 3] += r * h / (mu * shrink)
        known_mean += r * mu * np.outer(gh, gh) / (h * (1.0 - h))
        known_sizes += sizes[pos:pos + r].sum() * np.outer(gh, gh) / (h * (1.0 - h))
        pos += r
    full[3, :3] = full[:3, 3]
    for got, want in ((info_full(design, params).matrix[:4, :4], full),
                      (info_known_mean(design, params).matrix, known_mean),
                      (info_known_sizes(design, sizes, params).matrix, known_sizes)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
