"""Shared helpers: random model instances, finite-difference oracles and the
profile log-likelihood in the shape parameter."""

import math

import numpy as np
from scipy.optimize import minimize

from latentbinom import Dataset, INFINITE, ModelParams, link_h
from latentbinom import log_likelihood, score


def random_instance(rng, poisson_size=False):
    """One random (dataset, params) pair with counts drawn from the model
    itself, so the likelihood is evaluated where it has support."""
    n = int(rng.integers(6, 15))
    X = np.column_stack([np.ones(n), rng.uniform(-3.0, 3.0, size=n)])
    beta = rng.normal(0.0, 0.8, size=2)
    mu = float(np.exp(rng.uniform(np.log(5.0), np.log(300.0))))
    alpha = INFINITE if poisson_size else float(
        np.exp(rng.uniform(np.log(0.5), np.log(100.0))))
    h = np.array([link_h(x, beta) for x in X])
    if poisson_size:
        lam = np.full(n, mu)
    else:
        lam = rng.gamma(shape=alpha, scale=mu / alpha, size=n)
    y = rng.binomial(rng.poisson(lam), h)
    params = ModelParams(beta=beta, mu=mu, alpha=alpha)
    return Dataset.from_arrays(y, X), params


def _unpacker(params):
    full = not params.is_poisson_size
    d = params.beta.size

    def unpack(t):
        return ModelParams(beta=t[:d], mu=float(t[d]),
                           alpha=float(t[d + 1]) if full else INFINITE)

    return unpack


def _central4(f, theta, j, step):
    """Fourth-order central difference of f along coordinate j.

    The wider stencil lets the step stay large enough that rounding noise in
    f (which can carry internal terms thousands of times bigger than the
    derivative) does not swamp the quotient.
    """
    out = []
    for k in (1, -1, 2, -2):
        t = theta.copy()
        t[j] += k * step
        out.append(f(t))
    f1, f_1, f2, f_2 = out
    return (8.0 * (f1 - f_1) - (f2 - f_2)) / (12.0 * step)


def numeric_gradient(data, params):
    """Central finite differences of log_likelihood in raw parameters."""
    theta = params.as_array()
    unpack = _unpacker(params)
    g = np.empty_like(theta)
    for j in range(theta.size):
        step = 1e-3 * max(1.0, abs(theta[j]))
        g[j] = _central4(lambda t: log_likelihood(data, unpack(t)), theta, j, step)
    return g


def numeric_hessian(data, params):
    """Central finite differences of the analytic score."""
    theta = params.as_array()
    unpack = _unpacker(params)
    H = np.empty((theta.size, theta.size))
    for j in range(theta.size):
        step = 1e-3 * max(1.0, abs(theta[j]))
        H[:, j] = _central4(lambda t: score(data, unpack(t)), theta, j, step)
    return H


def relative_errors(got, want):
    """Componentwise |got-want| over a floor that keeps near-zero entries
    from blowing up the ratio."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(np.max(np.abs(want)), 1.0)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-6 * scale)
    return np.abs(got - want) / denom


def profile_loglik(data, alpha, start):
    """Profile log-likelihood of the full model at a fixed shape alpha.

    log_likelihood is maximised over (beta, log mu) by BFGS with the analytic
    score, starting from start's (beta, mu). Near the jejunal fit BFGS may stop
    on precision loss with a gradient of a few 1e-5; the values it returns
    from two different starts still agree to 1e-11, far below the
    differences the callers read.
    """
    d = start.beta.size

    def negated(t):
        params = ModelParams(beta=t[:d], mu=math.exp(t[d]), alpha=alpha)
        g = score(data, params)[:d + 1]
        g[d] *= params.mu
        return -log_likelihood(data, params), -g

    t0 = np.append(start.beta, math.log(start.mu))
    res = minimize(negated, t0, jac=True, method="BFGS", options={"gtol": 1e-9})
    return -float(res.fun)


def count_calls(monkeypatch, module, names):
    """Wrap each named function of module in a call counter; returns the
    name -> count dict, which the wrappers update."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(module, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls
