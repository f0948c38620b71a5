"""Model core: link, marginal log-pmf, likelihood, score, and Hessian."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from conftest import (count_calls, numeric_gradient, numeric_hessian,
                      random_instance, relative_errors)

import latentbinom
from latentbinom import (Dataset, FitResult, INFINITE, LatentRecord,
                         ModelParams, generate_dataset, hessian,
                         jejunal_dataset, link_h, log_likelihood, log_pmf,
                         make_setting, score)
from latentbinom.model import _logistic


def test_package_exports_resolve():
    for name in latentbinom.__all__:
        assert hasattr(latentbinom, name), name


# -- parameters and dataset containers ---------------------------------------


def test_model_params_accessors():
    p = ModelParams(beta=np.array([1.0, -2.0]), mu=50.0, alpha=25.0)
    assert not p.is_poisson_size
    assert p.gamma_rate == pytest.approx(0.5)
    assert p.size_variance == pytest.approx(100.0)
    assert p.n_params == 4
    assert np.array_equal(p.as_array(), [1.0, -2.0, 50.0, 25.0])

    q = ModelParams(beta=np.array([0.3]), mu=10.0, alpha=INFINITE)
    assert q.is_poisson_size
    assert q.n_params == 2
    assert np.array_equal(q.as_array(), [0.3, 10.0])


@pytest.mark.parametrize("kwargs", [
    dict(beta=np.array([1.0]), mu=0.0, alpha=2.0),
    dict(beta=np.array([1.0]), mu=-3.0, alpha=2.0),
    dict(beta=np.array([1.0]), mu=1.0, alpha=0.0),
    dict(beta=np.array([1.0]), mu=1.0, alpha=-1.0),
    dict(beta=np.array([np.nan]), mu=1.0, alpha=1.0),
])
def test_model_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_array_holding_records_compare_by_identity():
    # Their fields hold ndarrays, so field-wise == would be ambiguous and
    # hash() impossible; each compares and hashes by identity instead.
    def build():
        params = ModelParams(beta=np.array([1.0, 2.0]), mu=5.0, alpha=3.0)
        setting = make_setting([1, 2, 3], 1, 100, 25)
        fit = FitResult(params, np.full(4, 0.1), -1.0, True, 1, 1.0)
        _, latent = generate_dataset(setting, 2, np.random.default_rng(0))
        return [params, setting, fit, latent]

    first = build()
    assert isinstance(first[3], LatentRecord)
    for a, b in zip(first, build()):
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_observation_validation():
    with pytest.raises(ValueError):
        Dataset([-1], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        Dataset([2], [[1.0, np.inf]])


def test_dataset_construction():
    data = Dataset.from_arrays([3, 0, 5], [[1.0, 0.5], [1.0, 1.5], [1.0, -1.0]])
    assert len(data) == 3
    assert data.d == 2
    assert data.n_obs == 3
    assert data.y.tolist() == [3, 0, 5]
    same = Dataset.from_arrays([3, 0, 5], [[1.0, 0.5], [1.0, 1.5], [1.0, -1.0]])
    assert data == same
    with pytest.raises(ValueError):
        Dataset.from_arrays([], np.empty((0, 2)))
    with pytest.raises(ValueError):
        Dataset.from_arrays([1, 2], [[1.0, 2.0]])


@pytest.mark.parametrize("y", [[2.7, 3], [-0.5, 3]])
def test_dataset_from_arrays_rejects_non_integer_counts(y):
    with pytest.raises(ValueError):
        Dataset.from_arrays(y, [[1.0, 0.5], [1.0, 1.5]])


def test_dataset_from_arrays_accepts_integral_floats():
    data = Dataset.from_arrays(np.array([2.0, 0.0]), [[1.0, 0.5], [1.0, 1.5]])
    assert data.y.tolist() == [2, 0]


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan, 2.5])
def test_observation_rejects_bad_count_with_value_error(y):
    with pytest.raises(ValueError, match="non-negative integer"):
        Dataset([y], [[1.0]])


_MAX_COUNT = 2**63 - 1


def per_row_rule(y, X):
    """The per-row rule, row by row in Python: the error message a Dataset
    of (y, X) must raise, or None when it must accept them. Counts are
    checked before covariates."""
    for v in np.asarray(y).tolist():
        if (isinstance(v, float) and not math.isfinite(v)) or v < 0 or v != int(v):
            return "y must be a non-negative integer"
        if v > _MAX_COUNT:
            return f"count {int(v)} exceeds the largest supported count {_MAX_COUNT}"
    if not np.isfinite(np.asarray(X, dtype=float)).all():
        return "x must be finite"
    return None


_COUNTS = st.one_of(
    st.integers(min_value=-3, max_value=1000),
    st.integers(min_value=2**63 - 3, max_value=2**64 + 3),
    st.sampled_from([10**20, 2**62, 2**63 - 1, 2**63, 2**64]),
    st.integers(min_value=0, max_value=1000).map(float),
    st.sampled_from([2.0**63, 2.0**63 - 1024.0, 1e20, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def count_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        return draw(st.lists(_COUNTS, min_size=n, max_size=n))
    values = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                           min_size=n, max_size=n))
    return np.array(values, dtype=np.uint64)


@st.composite
def counts_and_covariates(draw):
    y = draw(count_arrays())
    X = draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
                      min_size=len(y), max_size=len(y)))
    if draw(st.booleans()):
        row = draw(st.integers(min_value=0, max_value=len(y) - 1))
        X[row][1] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return y, X


@settings(max_examples=400, deadline=None)
@given(counts_and_covariates())
def test_from_arrays_matches_per_row_rule(case):
    y, X = case
    message = per_row_rule(y, X)
    if message is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset.from_arrays(y, X)
        return
    data = Dataset.from_arrays(y, X)
    assert data.y.tolist() == [int(v) for v in np.asarray(y).tolist()]
    assert np.array_equal(data.X, np.asarray(X, dtype=float))


@pytest.mark.parametrize("y", [[10**23, math.nan], [math.nan, 10**23],
                               [10**20, -math.inf]])
def test_object_counts_with_non_finite_follow_per_row_rule(y):
    # Counts beyond uint64 make an object array, where numpy warns on NaN.
    X = [[0.0, 0.0]] * len(y)
    with pytest.raises(ValueError, match=re.escape(per_row_rule(y, X))):
        Dataset.from_arrays(y, X)


def test_dataset_copies_inputs_into_read_only_arrays():
    y = np.array([3, 1])
    X = np.asfortranarray([[1.0, 0.5], [1.0, 1.5]])
    data = Dataset(y, X)
    assert y.flags.writeable and X.flags.writeable
    assert not data.y.flags.writeable and not data.X.flags.writeable
    assert data.y.dtype == np.int64 and data.X.dtype == np.float64
    assert data.X.flags.c_contiguous
    y[0] = 99
    X[0, 1] = 99.0
    assert data.y.tolist() == [3, 1]
    assert data.X.tolist() == [[1.0, 0.5], [1.0, 1.5]]


# -- link ---------------------------------------------------------------------


def _masked_logistic(t):
    # The sign-masked form that _logistic replaced, kept as its reference.
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def test_logistic_bit_identical_to_masked_form():
    rng = np.random.default_rng(5)
    t = np.concatenate([
        rng.normal(0.0, 10.0, size=200_000),
        rng.uniform(-800.0, 800.0, size=200_000),
        [0.0, -0.0, 800.0, -800.0, 745.2, -745.2, 36.8, -36.8,
         np.inf, -np.inf, np.nan, -np.nan],
    ])
    got = _logistic(t)
    want = _masked_logistic(t)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_link_h_basic_values():
    assert link_h(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 0.5
    assert link_h(np.array([1.0]), np.array([math.log(3.0)])) == pytest.approx(0.75, rel=1e-14)


def test_link_h_consistent_with_raw_proportions():
    # At dose 7.0 the fitted curve should sit near the raw survival fractions
    # seen at the neighbouring doses in the embedded data.
    h = link_h(np.array([1.0, 7.0]), np.array([7.432, -1.185]))
    assert 0.2 < h < 0.35


def test_link_h_extreme_arguments_stable():
    assert link_h(np.array([1.0]), np.array([700.0])) == pytest.approx(1.0)
    assert link_h(np.array([1.0]), np.array([-700.0])) >= 0.0
    assert link_h(np.array([1.0]), np.array([-700.0])) < 1e-300


def test_link_dimension_mismatch():
    with pytest.raises(ValueError):
        link_h(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        link_h(np.array([1.0]), np.array([1.0, 2.0]))


def test_link_grad_values():
    # The gradient of link_h in beta is h (1 - h) x.
    x = np.array([1.0, 2.0])
    h = link_h(x, np.array([2.0, -1.0]))
    g = h * (1.0 - h) * x
    assert g == pytest.approx([0.25, 0.5], rel=1e-14)


def test_link_grad_saturated():
    x = np.array([1.0, 3.0])
    h = link_h(x, np.array([10.0, 10.0]))
    g = h * (1.0 - h) * x
    assert np.max(np.abs(g)) < 1e-17 * np.max(np.abs(x))


def test_link_grad_matches_finite_difference():
    rng = np.random.default_rng(21)
    for _ in range(30):
        x = rng.uniform(-2, 2, size=3)
        beta = rng.normal(size=3)
        h = link_h(x, beta)
        g = h * (1.0 - h) * x
        step = 1e-6
        for j in range(3):
            hi, lo = beta.copy(), beta.copy()
            hi[j] += step
            lo[j] -= step
            fd = (link_h(x, hi) - link_h(x, lo)) / (2 * step)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-12)


# -- log_pmf ------------------------------------------------------------------


def test_log_pmf_poisson_limit_identity():
    x = np.array([1.0, 0.5])
    params = ModelParams(beta=np.array([0.4, -0.2]), mu=30.0, alpha=INFINITE)
    m = params.mu * link_h(x, params.beta)
    for y in (0, 1, 7, 40):
        want = y * math.log(m) - m - special.gammaln(y + 1.0) if y else -m
        assert log_pmf(y, x, params) == pytest.approx(want, rel=1e-13)
    assert log_pmf(0, x, params) == -m


def test_log_pmf_zero_count_closed_form():
    x = np.array([1.0, -0.3])
    params = ModelParams(beta=np.array([0.2, 0.9]), mu=80.0, alpha=7.5)
    m = params.mu * link_h(x, params.beta)
    a = params.alpha
    want = a * (math.log(a) - math.log(a + m))
    assert log_pmf(0, x, params) == pytest.approx(want, rel=1e-12)


def test_log_pmf_golden():
    # Frozen from a 50-digit direct gamma-ratio evaluation.
    params = ModelParams(beta=np.array([6.705, -1.124]), mu=196.2, alpha=1000.0)
    got = log_pmf(76, np.array([1.0, 6.25]), params)
    assert got == pytest.approx(-3.368211575959542046512275, rel=1e-12)


def test_log_pmf_matches_scipy_negative_binomial():
    from scipy.stats import nbinom

    rng = np.random.default_rng(22)
    for _ in range(40):
        beta = rng.normal(size=2)
        params = ModelParams(beta=beta,
                             mu=float(np.exp(rng.uniform(1, 5))),
                             alpha=float(np.exp(rng.uniform(-1, 4))))
        x = np.array([1.0, rng.uniform(-2, 2)])
        m = params.mu * link_h(x, params.beta)
        p = params.alpha / (params.alpha + m)
        y = int(rng.integers(0, 60))
        want = nbinom.logpmf(y, params.alpha, p)
        assert log_pmf(y, x, params) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_log_pmf_poisson_limit_agreement():
    x = np.array([1.0, 1.0])
    beta = np.array([0.5, 0.3])
    near = ModelParams(beta=beta, mu=120.0, alpha=1e8)
    limit = ModelParams(beta=beta, mu=120.0, alpha=INFINITE)
    m = near.mu * link_h(x, beta)
    sd = math.sqrt(m)
    for y in range(max(0, int(m - 6 * sd)), int(m + 6 * sd)):
        assert abs(log_pmf(y, x, near) - log_pmf(y, x, limit)) < 1e-4


def test_log_pmf_normalizes():
    rng = np.random.default_rng(23)
    for _ in range(10):
        beta = rng.normal(size=2)
        params = ModelParams(beta=beta,
                             mu=float(np.exp(rng.uniform(1, 6))),
                             alpha=float(np.exp(rng.uniform(-0.5, 4))))
        x = np.array([1.0, rng.uniform(-2, 2)])
        m = params.mu * link_h(x, params.beta)
        a = params.alpha
        sd = math.sqrt(m * (1 + m / a))
        y_star = int(math.ceil(m + 50 * sd)) + 10
        ys = np.arange(y_star + 1)
        total = sum(math.exp(log_pmf(int(y), x, params)) for y in ys)
        assert abs(total - 1.0) < 1e-10
        mean = sum(y * math.exp(log_pmf(int(y), x, params)) for y in ys)
        assert mean == pytest.approx(m, rel=1e-8)


# -- log_likelihood -----------------------------------------------------------


def test_log_likelihood_single_observation():
    x = np.array([1.0, 2.0])
    params = ModelParams(beta=np.array([0.1, 0.2]), mu=40.0, alpha=9.0)
    data = Dataset.from_arrays([17], [x])
    assert log_likelihood(data, params) == log_pmf(17, x, params)


def test_log_likelihood_additivity():
    rng = np.random.default_rng(24)
    data, params = random_instance(rng)
    doubled = Dataset.from_arrays(
        np.concatenate([data.y, data.y]), np.vstack([data.X, data.X]))
    one = log_likelihood(data, params)
    two = log_likelihood(doubled, params)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_log_likelihood_computes_log_factorials_once(monkeypatch):
    rng = np.random.default_rng(26)
    data, params = random_instance(rng)
    calls = count_calls(monkeypatch, latentbinom.model, ("_log_gamma",))
    first = log_likelihood(data, params)
    for alpha in (INFINITE, 3.0, params.alpha):
        log_likelihood(data, ModelParams(beta=params.beta, mu=params.mu,
                                         alpha=alpha))
    assert calls["_log_gamma"] == 1
    assert first == pytest.approx(
        sum(log_pmf(int(y), x, params) for y, x in zip(data.y, data.X)),
        rel=1e-13)


def test_log_likelihood_jejunal_golden():
    # Frozen oracle value at the published Poisson-submodel estimates.
    params = ModelParams(beta=np.array([6.705, -1.124]), mu=196.2,
                         alpha=INFINITE)
    got = log_likelihood(jejunal_dataset(), params)
    assert got == pytest.approx(-354.8403100704965073283601, rel=1e-13)


# -- score --------------------------------------------------------------------


def test_score_length_by_variant():
    rng = np.random.default_rng(25)
    data, params = random_instance(rng)
    assert score(data, params).shape == (4,)
    data_p, params_p = random_instance(rng, poisson_size=True)
    assert score(data_p, params_p).shape == (3,)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(26)
    for _ in range(25):
        data, params = random_instance(rng)
        got = score(data, params)
        want = numeric_gradient(data, params)
        assert np.max(relative_errors(got, want)) < 1e-5


def test_score_matches_finite_differences_poisson_size():
    rng = np.random.default_rng(27)
    for _ in range(25):
        data, params = random_instance(rng, poisson_size=True)
        got = score(data, params)
        want = numeric_gradient(data, params)
        assert np.max(relative_errors(got, want)) < 1e-5


def test_score_mean_matching_observation():
    # One observation with y equal to the modelled mean: the mu-component of
    # the score vanishes for the Poisson-size variant.
    x = np.array([1.0, 0.0])
    beta = np.array([0.0, 1.0])
    mu = 84.0
    m = mu * link_h(x, beta)  # 42.0
    assert m == pytest.approx(42.0)
    data = Dataset.from_arrays([42], [x])
    params = ModelParams(beta=beta, mu=mu, alpha=INFINITE)
    g = score(data, params)
    assert abs(g[-1]) < 1e-12
    near = ModelParams(beta=beta, mu=mu, alpha=1e9)
    g2 = score(data, near)
    assert abs(g2[2]) < 1e-9


# -- hessian ------------------------------------------------------------------


def test_hessian_shapes_and_symmetry():
    rng = np.random.default_rng(28)
    data, params = random_instance(rng)
    H = hessian(data, params)
    assert H.shape == (4, 4)
    assert np.max(np.abs(H - H.T)) == 0.0
    data_p, params_p = random_instance(rng, poisson_size=True)
    Hp = hessian(data_p, params_p)
    assert Hp.shape == (3, 3)
    assert np.max(np.abs(Hp - Hp.T)) == 0.0


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(29)
    for _ in range(25):
        data, params = random_instance(rng)
        got = hessian(data, params)
        want = numeric_hessian(data, params)
        assert np.max(relative_errors(got, want)) < 1e-4


def test_hessian_matches_finite_differences_poisson_size():
    rng = np.random.default_rng(30)
    for _ in range(25):
        data, params = random_instance(rng, poisson_size=True)
        got = hessian(data, params)
        want = numeric_hessian(data, params)
        assert np.max(relative_errors(got, want)) < 1e-4


def test_hessian_negative_definite_at_simulated_mle():
    from latentbinom import fit_full, make_setting, builtin_designs, generate_dataset

    x1, _ = builtin_designs()
    setting = make_setting(x1, 1.0, 100.0, 25.0)
    rng = np.random.default_rng(31)
    data, _ = generate_dataset(setting, 10, rng)
    fit = fit_full(data)
    assert fit.converged
    eigs = np.linalg.eigvalsh(hessian(data, fit.params))
    assert np.all(eigs < 0)


def test_large_alpha_log_likelihood_consistent_with_poisson():
    # The cancellation-prone regime: alpha at the optimizer's upper clamp.
    data = jejunal_dataset()
    beta = np.array([6.701, -1.124])
    near = ModelParams(beta=beta, mu=196.3, alpha=math.exp(30.0))
    limit = ModelParams(beta=beta, mu=196.3, alpha=INFINITE)
    assert log_likelihood(data, near) == pytest.approx(
        log_likelihood(data, limit), abs=1e-6)
