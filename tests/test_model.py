"""Model core: link, marginal log-pmf, likelihood, score, and Hessian."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from conftest import (count_calls, numeric_gradient, numeric_hessian,
                      random_instance, relative_errors)

import latentbinom
from latentbinom import (Dataset, FitResult, INFINITE, LatentRecord,
                         ModelParams, fit_full, fit_poisson_size,
                         generate_dataset, hessian, jejunal_dataset, link_h,
                         log_likelihood, log_pmf, make_setting, score)
from latentbinom.estimation import _transformed_grad, _transformed_hess
from latentbinom.model import (_derivatives, _logistic, _mirrored, _point,
                               _shift_sums, _y_log_mean)


def test_package_exports_resolve():
    for name in latentbinom.__all__:
        assert hasattr(latentbinom, name), name


@pytest.mark.parametrize("module", ["data_io", "efficiency", "estimation",
                                    "information", "model", "simulation"])
def test_package_exports_every_public_name(module):
    namespace = {}
    exec(f"from latentbinom.{module} import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert names and names <= set(latentbinom.__all__), module
    for name in names:
        assert getattr(latentbinom, name) is namespace[name], name
    if module == "efficiency":
        assert "make_setting" in names


# -- parameters and dataset containers ---------------------------------------


def test_model_params_accessors():
    p = ModelParams(beta=np.array([1.0, -2.0]), mu=50.0, alpha=25.0)
    assert not p.is_poisson_size
    assert np.array_equal(p.as_array(), [1.0, -2.0, 50.0, 25.0])

    q = ModelParams(beta=np.array([0.3]), mu=10.0, alpha=INFINITE)
    assert q.is_poisson_size
    assert np.array_equal(q.as_array(), [0.3, 10.0])


def test_model_params_copy_beta():
    # Evaluations are cached per ModelParams object, so its beta must not
    # follow later writes to the caller's array.
    source = np.array([1.0, -2.0, 7.0])
    p = ModelParams(beta=source[:2], mu=50.0, alpha=25.0)
    assert source.flags.writeable
    source[0] = 9.0
    assert p.beta.tolist() == [1.0, -2.0]
    assert not p.beta.flags.writeable


@pytest.mark.parametrize("kwargs", [
    dict(beta=np.array([1.0]), mu=0.0, alpha=2.0),
    dict(beta=np.array([1.0]), mu=-3.0, alpha=2.0),
    dict(beta=np.array([1.0]), mu=1.0, alpha=0.0),
    dict(beta=np.array([1.0]), mu=1.0, alpha=-1.0),
    dict(beta=np.array([np.nan]), mu=1.0, alpha=1.0),
    dict(beta=np.array([0.5 + 2j, 1.0]), mu=1.0, alpha=1.0),
    dict(beta=["0.5", "1"], mu=1.0, alpha=1.0),
    dict(beta=np.array([0.5, "1"], dtype=object), mu=1.0, alpha=1.0),
    dict(beta=[1.0], mu=1 + 2j, alpha=2.0),
    dict(beta=[1.0], mu="5", alpha=2.0),
    dict(beta=[1.0], mu=5.0, alpha="2"),
    dict(beta=[1.0], mu=np.array([5.0, 6.0]), alpha=2.0),
])
def test_model_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("build,name", [
    (lambda: ModelParams(beta=[1.0], mu=np.array([5.0, 6.0]), alpha=2.0), "mu"),
    (lambda: ModelParams(beta=[1.0], mu=5.0, alpha=np.array([[2.0]])), "alpha"),
    (lambda: make_setting([1.0, 2.0, 3.0], 1.0, [100.0, 300.0], 25.0), "mu"),
])
def test_mu_and_alpha_must_be_one_number_each(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be one number, not shape "):
        build()


def test_array_holding_records_compare_by_identity():
    # Their fields hold ndarrays, so field-wise == would be ambiguous and
    # hash() impossible; each compares and hashes by identity instead.
    def build():
        params = ModelParams(beta=np.array([1.0, 2.0]), mu=5.0, alpha=3.0)
        setting = make_setting([1, 2, 3], 1, 100, 25, replications=2)
        fit = FitResult(params, np.full(4, 0.1), -1.0, True, 1, 1.0)
        _, latent = generate_dataset(setting, np.random.default_rng(0))
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
    with pytest.raises(ValueError):
        Dataset([5, 7, 9], np.array([1 + 3j, 2, 3]))
    with pytest.raises(ValueError):
        Dataset([5, 7, 9], ["1.5", "2", "3"])
    with pytest.raises(ValueError):
        Dataset([5, 7], np.array([1 + 3j, 2.0], dtype=object))


def test_dataset_construction():
    data = Dataset([3, 0, 5], [[1.0, 0.5], [1.0, 1.5], [1.0, -1.0]])
    assert len(data) == 3
    assert data.d == 2
    assert data.n_obs == 3
    assert data.y.tolist() == [3, 0, 5]
    same = Dataset([3, 0, 5], [[1.0, 0.5], [1.0, 1.5], [1.0, -1.0]])
    assert data == same
    with pytest.raises(ValueError):
        Dataset([], np.empty((0, 2)))
    with pytest.raises(ValueError):
        Dataset([1, 2], [[1.0, 2.0]])


@pytest.mark.parametrize("y", [[2.7, 3], [-0.5, 3]])
def test_dataset_from_arrays_rejects_non_integer_counts(y):
    with pytest.raises(ValueError):
        Dataset(y, [[1.0, 0.5], [1.0, 1.5]])


def test_dataset_from_arrays_accepts_integral_floats():
    data = Dataset(np.array([2.0, 0.0]), [[1.0, 0.5], [1.0, 1.5]])
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
        try:
            if (isinstance(v, float) and not math.isfinite(v)) or v < 0 or v != int(v):
                return "y must be a non-negative integer"
        except (ValueError, ArithmeticError):  # int(inf) overflows, a Decimal NaN
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
    # Any of these makes an object array, checked one count at a time.
    st.integers(min_value=-3, max_value=2**64).map(Decimal),
    st.sampled_from([Decimal("2.5"), Decimal("-0"), Decimal("NaN"),
                     Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity")]),
    st.fractions(max_denominator=3),
    st.integers(min_value=2**63 - 3, max_value=2**63 + 3).map(Fraction),
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
            Dataset(y, X)
        return
    data = Dataset(y, X)
    assert data.y.tolist() == [int(v) for v in np.asarray(y).tolist()]
    assert np.array_equal(data.X, np.asarray(X, dtype=float))


@pytest.mark.parametrize("y", [[10**23, math.nan], [math.nan, 10**23],
                               [10**20, -math.inf]])
def test_object_counts_with_non_finite_follow_per_row_rule(y):
    # Counts beyond uint64 make an object array, where numpy warns on NaN.
    X = [[0.0, 0.0]] * len(y)
    with pytest.raises(ValueError, match=re.escape(per_row_rule(y, X))):
        Dataset(y, X)


@pytest.mark.parametrize("y,first", [
    (np.array([2**62 + 1, 3], dtype=object), 2**62 + 1),
    ([Decimal(2**60 + 1), 3], 2**60 + 1),
])
def test_object_counts_are_stored_exactly(y, first):
    # Past 2**53 a float cannot hold every integer: an object array's counts
    # are checked and stored as Python numbers, never rounded through one.
    assert Dataset(y, [[0.0, 0.0], [1.0, 1.0]]).y.tolist() == [first, 3]


@pytest.mark.parametrize("y,message", [
    ([Fraction(2**60 + 1, 2), 3], "y must be a non-negative integer"),
    ([2.5, Fraction(3)], "y must be a non-negative integer"),
    (["3", 1], "counts must be numbers"),
    (np.array([3, "1"], dtype=object), "counts must be numbers"),
    # Comparing a Decimal NaN signals InvalidOperation instead of answering.
    ([Decimal("NaN"), 1], "y must be a non-negative integer"),
    ([Decimal("sNaN"), 1], "y must be a non-negative integer"),
    # The first offending count is the one named.
    ([10**30, Decimal("NaN")],
     f"count {10**30} exceeds the largest supported count {_MAX_COUNT}"),
    ([Decimal("2.5"), 10**30], "y must be a non-negative integer"),
])
def test_object_counts_refuse_non_integers_and_strings(y, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Dataset(y, [[0.0, 0.0], [1.0, 1.0]])


def test_dataset_covariate_dimensions():
    data = Dataset([3, 0, 5], [0.5, 1.5, -1.0])
    assert data.d == 1
    assert data.X.tolist() == [[0.5], [1.5], [-1.0]]
    with pytest.raises(ValueError, match="X must be a 1-D or 2-D array"):
        Dataset([3, 0], np.ones((2, 1, 1)))
    with pytest.raises(ValueError, match="X needs at least one covariate column"):
        Dataset([1, 2, 3], np.empty((3, 0)))


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


def _two_division_logistic(t):
    # The form before _logistic shared one division, kept as its reference.
    e = np.exp(np.minimum(t, -t))
    denom = 1.0 + e
    return np.where(t >= 0, 1.0 / denom, e / denom)


def test_logistic_bit_identical_to_two_division_form():
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array([745.0, -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan,
                      -np.nan, -0.0, 0.0, tiny, -tiny, 1e-310, -1e-310])
    rng = np.random.default_rng(27)
    X = np.column_stack([np.ones(20_000), rng.uniform(6.0, 9.75, size=20_000)])
    for t in (edges, X @ np.array([7.432, -1.185])):
        kept = t.copy()
        got, want = _logistic(t), _two_division_logistic(t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(t.view(np.uint64), kept.view(np.uint64))


def test_link_h_basic_values():
    assert link_h(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 0.5
    assert link_h(np.array([1.0]), np.array([math.log(3.0)])) == pytest.approx(0.75, rel=1e-14)


@pytest.mark.parametrize("build,name", [
    (lambda: Dataset([5, 7, 9], np.array([1 + 3j, 2, 3])), "x"),
    (lambda: Dataset([5, 7, 9], ["1.5", "2", "3"]), "x"),
    (lambda: Dataset([5, 7], np.array([Decimal("1"), b"2"], dtype=object)), "x"),
    (lambda: ModelParams(beta=np.array([0.5 + 2j, 1.0]), mu=1.0, alpha=1.0), "beta"),
    (lambda: ModelParams(beta=["0.5", "1"], mu=1.0, alpha=1.0), "beta"),
    (lambda: make_setting([1 + 5j, 2, 3], 1.0, 100.0, 25.0), "design values"),
    (lambda: make_setting([1.0, 2.0, 3.0], 1.0 + 1j, 100.0, 25.0), "beta"),
    (lambda: ModelParams(beta=[1.0], mu=1 + 2j, alpha=2.0), "mu"),
    (lambda: ModelParams(beta=[1.0], mu="5", alpha=2.0), "mu"),
    (lambda: ModelParams(beta=[1.0], mu=5.0, alpha="2"), "alpha"),
    (lambda: make_setting([1.0, 2.0, 3.0], 1.0, 100.0 + 1j, 25.0), "mu"),
    (lambda: make_setting([1.0, 2.0, 3.0], 1.0, 100.0, "25"), "alpha"),
    (lambda: link_h([1.0, 2j], [1.0, 1.0]), "x"),
    (lambda: link_h([1.0, 2.0], np.array(["1", 1.0], dtype=object)), "beta"),
])
def test_complex_and_string_numbers_are_refused_by_name(build, name):
    # numpy would drop the imaginary part with a warning, or parse the
    # string; every argument that becomes floats refuses both instead.
    with pytest.raises(ValueError, match=f"^{name} must be real numbers, not "
                                         "complex values or strings$"):
        build()


def test_real_objects_are_accepted_as_floats():
    data = Dataset([1, 2], np.array([Decimal("1.5"), True], dtype=object))
    assert data.X.tolist() == [[1.5], [1.0]]
    params = ModelParams(beta=[Fraction(1, 2), np.int8(3)], mu=1.0, alpha=2.0)
    assert params.beta.tolist() == [0.5, 3.0]
    assert link_h([Decimal(0)], [True]) == 0.5


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
    data = Dataset([17], [x])
    assert log_likelihood(data, params) == log_pmf(17, x, params)


def test_log_likelihood_additivity():
    rng = np.random.default_rng(24)
    data, params = random_instance(rng)
    doubled = Dataset(
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
    data = Dataset([42], [x])
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
    data, _ = generate_dataset(setting, rng)
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


# -- one evaluation per point -------------------------------------------------

_KERNELS = (log_likelihood, score, hessian)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       calls=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5),
                                st.integers(0, 2)), min_size=1, max_size=16))
def test_cached_point_matches_fresh_evaluation(seed, calls):
    # Results do not depend on call history. Two datasets evaluated
    # alternately, at finite alpha and at INFINITE, through distinct but
    # equal-valued ModelParams objects and through points that differ only
    # in beta or only in alpha: every result equals, bit for bit, that of a
    # fresh Dataset and ModelParams.
    rng = np.random.default_rng(seed)
    full_data, full = random_instance(rng)
    sub_data, sub = random_instance(rng, poisson_size=True)
    datasets = (full_data, sub_data)
    points = (full, ModelParams(full.beta, full.mu, full.alpha),
              ModelParams(full.beta + 0.25, full.mu, full.alpha),
              ModelParams(full.beta, full.mu, INFINITE),
              sub, ModelParams(sub.beta, sub.mu, sub.alpha))
    for i, j, k in calls:
        data, params, kernel = datasets[i], points[j], _KERNELS[k]
        got = kernel(data, params)
        want = kernel(Dataset(data.y, data.X),
                      ModelParams(params.beta, params.mu, params.alpha))
        assert _bits(got) == _bits(want), (i, j, kernel.__name__)


def test_dimension_mismatch_raises_after_cached_point():
    # A mismatch raises whatever was evaluated before it, and leaves the
    # next result as a fresh Dataset gives it.
    data, params = random_instance(np.random.default_rng(31))
    log_likelihood(data, params)
    wider = ModelParams(np.append(params.beta, 0.5), params.mu, params.alpha)
    for kernel in _KERNELS:
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel(data, wider)
    assert _bits(score(data, params)) == _bits(score(Dataset(data.y, data.X),
                                                     params))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), poisson_size=st.booleans())
def test_derivative_orders_share_one_pass(seed, poisson_size):
    # A pass of order k begins with the pass of every lower order, bit for
    # bit, and the public functions are its slices.
    data, params = random_instance(np.random.default_rng(seed), poisson_size)
    point = _point(data, params.beta, params.mu, params.alpha)
    passes = [_derivatives(data, point, k) for k in range(3)]
    for k, longer in enumerate(passes):
        assert len(longer) == k + 1
        for j in range(k + 1):
            assert ([_bits(v) for v in longer[:j + 1]]
                    == [_bits(v) for v in passes[j]]), (j, k)
    for k, kernel in enumerate(_KERNELS):
        assert _bits(kernel(data, params)) == _bits(passes[k][k]), k


def _two_branch_derivatives(data, point, order):
    # The score and Hessian with the alpha = INFINITE limit written out as
    # its own branch, as they stood before the finite-shape terms took it.
    mu, a, h, m, am, log1p_ma = point
    y, X, d = data._yf, data.X, data.d
    if am is None:
        out = [float((_y_log_mean(data, m, am) - m - data._log_y_factorial).sum())]
        if order >= 1:
            dh = h * (1.0 - h)
            dbeta = X.T @ ((y / h - mu) * dh)
            out.append(np.concatenate([dbeta, [float((y / mu - h).sum())]]))
        if order >= 2:
            H = np.zeros((d + 1, d + 1))
            cb = (y / h - mu) * (dh * (1.0 - 2.0 * h)) - (y / h**2) * dh**2
            H[:d, :d] = _mirrored((X * cb[:, None]).T @ X)
            H[d, d] = float((-y / mu**2).sum())
            H[:d, d] = H[d, :d] = -(dh @ X)
            out.append(H)
        return tuple(out)
    shifts = _shift_sums(data, a, order)
    out = [float((next(shifts) + _y_log_mean(data, m, am)
                  - data._log_y_factorial - a * log1p_ma).sum())]
    if order >= 1:
        dh = h * (1.0 - h)
        w = (a + y) / am
        dbeta = X.T @ ((y / h - w * mu) * dh)
        dmu = float((y / mu - w * h).sum())
        dalpha = float((next(shifts) - log1p_ma - (y - m) / am).sum())
        out.append(np.concatenate([dbeta, [dmu, dalpha]]))
    if order >= 2:
        H = np.zeros((d + 2, d + 2))
        cb = ((y / h - w * mu) * (dh * (1.0 - 2.0 * h))
              + ((a + y) * mu**2 / am**2 - y / h**2) * dh**2)
        H[:d, :d] = _mirrored((X * cb[:, None]).T @ X)
        H[d, d] = float((-y / mu**2 + (a + y) * h**2 / am**2).sum())
        H[d + 1, d + 1] = float((-next(shifts) + m / (a * am) + (y - m) / am**2).sum())
        H[:d, d] = H[d, :d] = (-(a + y) * a / am**2 * dh) @ X
        H[:d, d + 1] = H[d + 1, :d] = (mu * (y - m) / am**2 * dh) @ X
        H[d, d + 1] = H[d + 1, d] = float((h * (y - m) / am**2).sum())
        out.append(H)
    return tuple(out)


def _two_branch_transformed_grad(params, raw):
    g = raw.copy()
    d = params.beta.size
    g[d] *= params.mu
    if not params.is_poisson_size:
        g[d + 1] *= params.alpha
    return g


def _two_branch_transformed_hess(params, raw_h, raw_g):
    d = params.beta.size
    H = raw_h.copy()
    H[d, :] *= params.mu
    H[:, d] *= params.mu
    H[d, d] += params.mu * raw_g[d]
    if not params.is_poisson_size:
        a = params.alpha
        H[d + 1, :] *= a
        H[:, d + 1] *= a
        H[d + 1, d + 1] += a * raw_g[d + 1]
    return H


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), poisson_size=st.booleans(),
       log10_alpha=st.floats(-2.0, 12.0), zeros=st.integers(0, 4),
       beta_scale=st.sampled_from([1.0, 40.0, 1e3]))
def test_derivatives_match_two_branch_form(seed, poisson_size, log10_alpha,
                                           zeros, beta_scale):
    # The alpha = INFINITE score and Hessian are the finite-shape terms at
    # the shape factors' limits, equal to the two-branch form at every
    # order, with y = 0 rows and, at the larger beta scales, links
    # saturated to exactly 0 or 1. The one difference is the sign of an
    # exactly zero H[:d, d] entry at INFINITE, where every link in a column
    # saturates: (-dh) @ X against -(dh @ X). array_equal takes -0.0 == 0.0.
    data, params = random_instance(np.random.default_rng(seed), poisson_size)
    y = data.y.copy()
    y[:zeros] = 0
    data = Dataset(y, data.X)
    params = ModelParams(params.beta * beta_scale, params.mu,
                         INFINITE if poisson_size else 10.0**log10_alpha)
    point = _point(data, params.beta, params.mu, params.alpha)
    with np.errstate(all="ignore"):
        for order in range(3):
            got = _derivatives(data, point, order)
            want = _two_branch_derivatives(data, point, order)
            assert [_bits(v) for v in got[:2]] == [_bits(v) for v in want[:2]], order
            assert np.array_equal(got[-1], want[-1], equal_nan=True), order
        g, H = got[1], got[2]
        assert _bits(_transformed_grad(data.d, point, g)) == _bits(
            _two_branch_transformed_grad(params, g))
        assert np.array_equal(_transformed_hess(data.d, point, H, g),
                              _two_branch_transformed_hess(params, H, g),
                              equal_nan=True)


def test_shift_table_refusal_at_every_order():
    # Only the full model needs the shift tables over 0..max y, 8 PB at
    # 10**15, which numpy refuses at once; the submodel evaluates the count.
    data = Dataset([3, 10**15, 2], [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    beta = np.array([0.5, -0.2])
    for kernel in _KERNELS:
        with pytest.raises(RuntimeError, match=f"^count {10**15} .*more than memory"):
            kernel(data, ModelParams(beta=beta, mu=100.0, alpha=25.0))
        value = kernel(data, ModelParams(beta=beta, mu=100.0, alpha=INFINITE))
        assert np.all(np.isfinite(value)), kernel.__name__


def test_fits_leave_no_cached_point(monkeypatch):
    # A Dataset holds its arrays and what follows from them alone, never a
    # point a fit evaluated.
    arrays = {"_y", "_X", "_yf", "_positive", "_y_max", "_log_y_factorial"}
    data = jejunal_dataset()
    sub = fit_poisson_size(data)
    assert set(vars(data)) <= arrays
    fit_full(data, init=sub.params)
    assert set(vars(data)) <= arrays

    def fail(params, raw_h):
        raise np.linalg.LinAlgError("information matrix has a non-finite entry")

    # Also when the fit raises after its last evaluation.
    monkeypatch.setattr(latentbinom.estimation, "_standard_errors", fail)
    with pytest.raises(np.linalg.LinAlgError):
        fit_poisson_size(data)
    assert set(vars(data)) <= arrays
