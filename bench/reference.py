"""Reference kernel: the machine's speed during a run, measured with work
that does not depend on the program under test.

The host's other tenants slow the same work on the same data by up to
about 1.75 times, in periods from seconds to minutes. The timed loop runs
this kernel after every operation, and ``run.py`` scales the run's
operation times by ``NOMINAL_S / mean kernel time``, so that a run that
fell in slow periods reads like one that did not.

The kernel does the kind of work the program does, through the same
libraries but none of its code: a BFGS fit of a small Poisson regression
with ``scipy.optimize`` and a few ``scipy.stats`` log-pmf calls. Measured
on the host the benchmark was defined on, over 12 s blocks of interleaved
calls, the scaling cut the quartile spread of the block means from
0.16-0.23 to 0.03-0.10 of the median for a ``run_study`` call, a 126-row
and a 2e4-row ``fit`` and a ``curves`` call. A kernel of numpy and
``scipy.special`` on small arrays alone matched these less well.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize, special, stats

# About the kernel's mean time on the host the benchmark was defined on
# (2-vCPU Xeon KVM guest, numpy 2.4, scipy 1.17), so scaled times read
# close to that host's typical times.
NOMINAL_S = 0.0060

_RNG = np.random.default_rng(0)
_X = _RNG.uniform(0.0, 1.0, size=(126, 3))
_Y = _RNG.poisson(5.0, size=126)
_LOG_FACT = special.gammaln(_Y + 1.0)


def _nll(beta: np.ndarray) -> float:
    eta = _X @ beta
    return float(np.sum(np.exp(eta) - _Y * eta + _LOG_FACT))


def kernel() -> float:
    fit = optimize.minimize(_nll, np.zeros(3), method="BFGS")
    total = float(fit.fun)
    for size in (2.0, 5.0):
        total += float(stats.nbinom.logpmf(_Y, size, 0.5).sum())
    return total


def timed() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
