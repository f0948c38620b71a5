"""Numerical kernels: the log-gamma constant of the likelihood.

The kernel's one caller passes the array y + 1, so every input here is an
array with z >= 1. The stated absolute-error target of log-gamma is asserted
on the argument range where float64 can express it. For large arguments
(log_gamma(1e15) is about 3.3e16, where one ulp is 4) the check is relative,
against scipy as an independent oracle.
"""

import math

import numpy as np
import pytest
from scipy import special

from latentbinom.model import _log_gamma as log_gamma


def test_log_gamma_trivial_values():
    assert log_gamma(np.array([1.0, 2.0])) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_log_gamma_golden():
    # 50-digit reference computed ahead of the implementation.
    got = log_gamma(np.array([10.3]))
    assert got[0] == pytest.approx(13.48203678613835697061507, rel=1e-14)


def test_recurrence_identities_hold():
    rng = np.random.default_rng(42)
    z = np.exp(rng.uniform(0.0, math.log(1000.0), size=1000))
    assert np.max(np.abs(log_gamma(z + 1.0) - log_gamma(z) - np.log(z))) < 1e-9


def test_log_gamma_convexity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z1, z2 = sorted(np.exp(rng.uniform(0.0, 6.0, size=2)))
        lg1, lg2, mid = log_gamma(np.array([z1, z2, 0.5 * (z1 + z2)]))
        avg = 0.5 * (lg1 + lg2)
        assert mid <= avg + 1e-12 * max(1.0, abs(avg))


def test_log_gamma_absolute_error_band():
    # abs < 1e-12 is expressible while |log_gamma| stays small enough that an
    # ulp is finer than the target.
    rng = np.random.default_rng(10)
    z = np.exp(rng.uniform(0.0, math.log(500.0), size=4000))
    err = np.abs(log_gamma(z) - special.gammaln(z))
    assert np.max(err) < 1e-12


def test_log_gamma_relative_error_large_arguments():
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(math.log(500.0), math.log(1e15), size=2000))
    got = log_gamma(z)
    want = special.gammaln(z)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


@pytest.mark.parametrize("fn", [log_gamma], ids=["log_gamma"])
def test_deterministic(fn):
    z = np.array([4.321])
    assert np.array_equal(fn(z), fn(z))
