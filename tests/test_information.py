"""Expected information matrices and their inverses."""

import dataclasses
import math

import numpy as np
import pytest

from latentbinom import (INFINITE, NEAR_SINGULAR_CONDITION, ModelParams,
                         info_full, info_known_mean, inverse_with_condition,
                         link_h, table_settings)
from latentbinom.information import _design_arrays, _info_stack


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


def poisson_size(params):
    """params with alpha = INFINITE, where info_full is the Poisson-size
    information."""
    return dataclasses.replace(params, alpha=INFINITE)


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
    (np.array([[1.0, 2.0 + 1j]]), [1]),
    ([["1", "2"]], [1]),
    (np.array([[1.0, 1j]], dtype=object), [1]),
], ids=["inf-X", "nan-X", "r-zero", "r-fraction", "r-bool", "r-scalar-bool",
        "r-short", "r-long", "X-empty", "X-empty-list", "X-1d", "d-above-beta",
        "d-below-beta", "X-complex", "X-strings", "X-object-complex"])
def test_design_arrays_rejects(X, r):
    with pytest.raises(ValueError):
        _design_arrays(X, r, SETTING_ONE)


# -- full-model information ----------------------------------------------------


def test_full_single_point_large_alpha_beta_entry():
    # At h = 1/2 the slope-free entry is r * mu * (grad h)^2 / h.
    params = ModelParams(beta=np.array([0.0]), mu=100.0, alpha=1e10)
    got = info_full([[1.0]], [3], params)[0, 0]
    assert got == pytest.approx(3 * 100.0 * 0.25**2 / 0.5, rel=1e-8)


@pytest.mark.parametrize("alpha,rel", [(1e10, 1e-8), (1e8, 1e-6)])
def test_full_reduces_to_poisson_size_block(alpha, rel):
    X, r = dose_design()
    params = ModelParams(beta=SETTING_ONE.beta, mu=100.0, alpha=alpha)
    full = info_full(X, r, params)
    poisson = info_full(X, r, poisson_size(params))
    assert np.max(np.abs(full - poisson)) <= rel * np.max(np.abs(poisson))


def slope_variance(info_matrix):
    return np.linalg.inv(info_matrix)[1, 1]


def test_full_setting_one_gamma_ratio():
    X, r = dose_design()
    full = info_full(X, r, SETTING_ONE)
    poisson = info_full(X, r, poisson_size(SETTING_ONE))
    gamma = (slope_variance(poisson) / slope_variance(full)) ** 0.25
    assert gamma == pytest.approx(0.837, abs=5e-4)


def test_poisson_size_setting_one_rho_ratio():
    X, r = dose_design()
    poisson = info_full(X, r, poisson_size(SETTING_ONE))
    known = info_known_mean(X, r, SETTING_ONE)
    v_known = np.linalg.inv(known)[1, 1]
    rho = (v_known / slope_variance(poisson)) ** 0.25
    assert rho == pytest.approx(0.706, abs=5e-4)


def test_variance_ordering_known_poisson_full():
    X, r = dose_design()
    for params in (SETTING_ONE,
                   ModelParams(beta=np.array([1.0, 0.5]), mu=300.0, alpha=1.0)):
        v_known = np.linalg.inv(info_known_mean(X, r, params))[1, 1]
        v_poisson = slope_variance(info_full(X, r, poisson_size(params)))
        v_full = slope_variance(info_full(X, r, params))
        assert v_known <= v_poisson * (1 + 1e-12)
        assert v_poisson <= v_full * (1 + 1e-12)


def test_full_at_infinite_alpha_is_poisson_size_gram():
    # At alpha = INFINITE the full-model weight r mu h / (1 + mu h / alpha)
    # divides by exactly 1.0, so it is the Poisson-size weight r mu h.
    X, r = dose_design()
    params = poisson_size(SETTING_ONE)
    X, r, h = _design_arrays(X, r, params)
    u = np.column_stack([(1.0 - h)[:, None] * X, np.full(h.size, 1.0 / params.mu)])
    gram = (u * (r * params.mu * h)[:, None]).T @ u
    want = np.triu(gram) + np.triu(gram, 1).T
    assert np.array_equal(info_full(X, r, params), want)


# Size means and shapes across the table's range and beyond, INFINITE among
# the shapes.
STACK_MUS = (0.5, 100.0, 300.0, 1e4, 100.0, 37.5)
STACK_ALPHAS = (25.0, INFINITE, 49.0, 5.0, 1e-3, INFINITE)


@pytest.mark.parametrize("number", [1, 12])
def test_info_stack_equals_info_full_per_pair(number):
    # The stack is info_full's own code path, so each slice is the single
    # matrix bit for bit, and a scalar broadcast against a stack is too.
    setting = table_settings()[number - 1]
    X, r, h = _design_arrays(setting.X, setting.r, setting.params)

    def single(mu, alpha):
        return info_full(X, r, ModelParams(beta=setting.beta, mu=mu, alpha=alpha))

    stack = _info_stack(X, r, h, STACK_MUS, STACK_ALPHAS)
    assert stack.shape == (len(STACK_MUS), 3, 3)
    for got, mu, alpha in zip(stack, STACK_MUS, STACK_ALPHAS):
        assert np.array_equal(got, single(mu, alpha))
    for got, alpha in zip(_info_stack(X, r, h, setting.mu, STACK_ALPHAS), STACK_ALPHAS):
        assert np.array_equal(got, single(setting.mu, alpha))
    for got, mu in zip(_info_stack(X, r, h, STACK_MUS, setting.alpha), STACK_MUS):
        assert np.array_equal(got, single(mu, setting.alpha))
    grid = _info_stack(X, r, h, np.array(STACK_MUS[:2])[:, None],
                       np.array(STACK_ALPHAS[:3]))
    assert grid.shape == (2, 3, 3, 3)
    for i, mu in enumerate(STACK_MUS[:2]):
        for j, alpha in enumerate(STACK_ALPHAS[:3]):
            assert np.array_equal(grid[i, j], single(mu, alpha))
    assert np.array_equal(_info_stack(X, r, h, setting.mu, setting.alpha),
                          single(setting.mu, setting.alpha))


# -- reduced-information variants ----------------------------------------------


def test_poisson_size_single_point_singular():
    info = info_full([[1.0, 2.0]], [5], poisson_size(SETTING_ONE))
    eigs = np.linalg.eigvalsh(info)
    assert np.min(np.abs(eigs)) < 1e-10 * np.trace(info)


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


# -- Poisson-size inverse blocks -------------------------------------------------


def poisson_size_blocks(X, r, beta, mu):
    """(V11, V22): the beta block and the mu entry of the inverse Poisson-size
    information, the covariance of beta-hat and the variance of mu-hat."""
    inverse = inverse_with_condition(
        info_full(X, r, ModelParams(beta=beta, mu=mu, alpha=INFINITE)))[0]
    return inverse[:-1, :-1], inverse[-1, -1]


def test_block_partition_mu_factorization():
    # V11 = (1/mu) * (...) and V22 = mu * (...) with mu-free inner matrices.
    X, r = dose_design()
    scaled_v11 = []
    scaled_v22 = []
    for mu in (50.0, 100.0, 200.0, 400.0):
        v11, v22 = poisson_size_blocks(X, r, np.array([1.0, 1.0]), mu)
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
        v11, v22 = poisson_size_blocks(X, r, np.array([1.0, 1.0]), mu)
        diags.append(np.diag(v11))
        v22s.append(v22)
    for lo, hi in zip(diags, diags[1:]):
        assert np.all(hi <= lo * (1 + 1e-12))
    for lo, hi in zip(v22s, v22s[1:]):
        assert hi >= lo * (1 - 1e-12)


@pytest.mark.parametrize("number", range(1, 17))
def test_block_partition_matches_inverse_on_table_settings(number):
    # mu * V11 and V22 / mu are free of mu: the blocks at other size means,
    # rescaled, match the inverse at the setting's own.
    setting = table_settings()[number - 1]
    X, r, beta = setting.X, setting.r, setting.beta
    v11, v22 = poisson_size_blocks(X, r, beta, setting.mu)
    for mu in (setting.mu / 7.0, setting.mu * 3.0):
        w11, w22 = poisson_size_blocks(X, r, beta, mu)
        np.testing.assert_allclose(mu * w11, setting.mu * v11, rtol=1e-12, atol=0)
        assert w22 / mu == pytest.approx(v22 / setting.mu, rel=1e-12, abs=0)


# -- shared invariants -----------------------------------------------------------


def test_all_variants_positive_semidefinite():
    rng = np.random.default_rng(3)
    for _ in range(5):
        params = random_params(rng)
        rows = [(rng.uniform(-3.0, 3.0), int(rng.integers(1, 5))) for _ in range(4)]
        X, r = design([t for t, _ in rows], [n for _, n in rows])
        matrices = [
            info_full(X, r, params),
            info_full(X, r, poisson_size(params)),
            info_known_mean(X, r, params),
        ]
        for m in matrices:
            assert np.max(np.abs(m - m.T)) == 0.0
            eigs = np.linalg.eigvalsh(m)
            assert np.min(eigs) >= -1e-8 * np.trace(m)


def test_inverse_with_condition_flags():
    # A caller flags a condition at or past NEAR_SINGULAR_CONDITION.
    inv, cond = inverse_with_condition(np.eye(3))
    assert np.allclose(inv, np.eye(3))
    assert cond == pytest.approx(1.0)
    assert cond < NEAR_SINGULAR_CONDITION

    inv, cond = inverse_with_condition(np.diag([1.0, 1e-13]))
    assert not cond < NEAR_SINGULAR_CONDITION
    assert cond > 1e12
    assert np.isfinite(inv).all()


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (3,)])
def test_inverse_with_condition_refuses_empty_and_flat_input(shape):
    with pytest.raises(np.linalg.LinAlgError, match="empty or not square"):
        inverse_with_condition(np.ones(shape))


def test_inverse_with_condition_stack_equals_slices():
    setting = table_settings()[0]
    X, r, h = _design_arrays(setting.X, setting.r, setting.params)
    stack = np.concatenate([
        _info_stack(X, r, h, STACK_MUS, STACK_ALPHAS),
        [np.diag([1.0, 1e-13, 2.0]),        # near singular: flagged
         np.diag([1.0, -1.0, 3.0])]])        # indefinite: condition inf
    inv, cond = inverse_with_condition(stack)
    assert inv.shape == stack.shape
    assert cond.shape == (stack.shape[0],)
    for k, matrix in enumerate(stack):
        want_inv, want_cond = inverse_with_condition(matrix)
        assert np.array_equal(inv[k], want_inv)
        assert cond[k] == want_cond
    assert cond[-2] > NEAR_SINGULAR_CONDITION and cond[-1] == math.inf
    # A stack of stacks is inverted slice by slice too.
    nested = inverse_with_condition(stack[:4].reshape(2, 2, 3, 3))
    assert np.array_equal(nested[0].reshape(4, 3, 3), inv[:4])
    assert np.array_equal(nested[1].ravel(), cond[:4])


def test_inverse_with_condition_matrix_gives_python_scalars():
    for matrix in (np.eye(3), np.diag([1.0, 1e-13]), np.diag([1.0, -1.0])):
        inv, cond = inverse_with_condition(matrix)
        assert type(inv) is np.ndarray and inv.shape == matrix.shape
        assert type(cond) is float


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["non-finite-first",
                                                         "near-zero-first"])
def test_inverse_with_condition_stack_reports_non_finite_first(order):
    # Every matrix of a stack is checked for a non-finite entry before any
    # is decomposed, wherever the near-singular one stands.
    pair = [np.diag([1.0, np.inf]), np.diag([1.0, 1e-320])]
    with pytest.raises(np.linalg.LinAlgError, match="non-finite entry"):
        inverse_with_condition(np.stack([pair[i] for i in order]))
    with pytest.raises(np.linalg.LinAlgError, match="too close to zero"):
        inverse_with_condition(pair[1])


def test_kernel_matches_per_row_loop_three_covariates():
    rng = np.random.default_rng(31)
    rows = [(np.concatenate([[1.0], rng.uniform(-2.0, 2.0, size=2)]),
             int(rng.integers(1, 6))) for _ in range(7)]
    X = np.array([x for x, _ in rows])
    r = np.array([n for _, n in rows])
    params = ModelParams(beta=np.array([0.3, -0.8, 0.5]), mu=120.0, alpha=4.0)
    mu, a = params.mu, params.alpha
    full = np.zeros((4, 4))  # (beta0, beta1, beta2, mu)
    known_mean = np.zeros((3, 3))
    for x, ri in zip(X, r):
        h = link_h(x, params.beta)
        gh = grad_h(x, params.beta)
        shrink = 1.0 + mu * h / a
        full[:3, :3] += ri * mu * np.outer(gh, gh) / (h * shrink)
        full[:3, 3] += ri * gh / shrink
        full[3, 3] += ri * h / (mu * shrink)
        known_mean += ri * mu * np.outer(gh, gh) / (h * (1.0 - h))
    full[3, :3] = full[:3, 3]
    for got, want in ((info_full(X, r, params), full),
                      (info_known_mean(X, r, params), known_mean)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
