"""Ensemble statistics: Monte Carlo reports, martingale drift tests, and
normality checks.

The Kolmogorov-Smirnov test uses the formula of
``scipy.stats.kstest(xs, "norm")`` on numpy and the standard library: the
normal CDF is 0.5 erfc(-x/sqrt 2) from ``math.erfc``, which differs from
scipy's cephes ``ndtr`` by at most 2.2e-16, so the statistic agrees with
scipy's to within 2^-52.  The 1 % critical value is the pinned Kolmogorov
quantile KS_CRIT_1PCT over sqrt(n), the value scipy gives exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import InputError

Z_THRESHOLD = 3.0  # |z-score| below which a Monte Carlo estimate passes
# 0.99 quantile of the Kolmogorov distribution, float(kolmogi(1.0 - 0.99))
KS_CRIT_1PCT = 1.6276236115189502


@dataclass
class McReport:
    """One Monte Carlo estimate of a mean whose target is 0."""

    name: str
    n: int
    mean: float
    variance: float
    se: float = field(init=False)
    zscore: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.se = math.sqrt(self.variance / self.n) if self.n > 0 else math.inf
        if self.se == 0.0:
            self.zscore = 0.0 if self.mean == 0.0 else math.inf
        else:
            self.zscore = self.mean / self.se
        self.passed = abs(self.zscore) < Z_THRESHOLD

    def csv_row(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "mean": self.mean,
            "se": self.se,
            "target": 0.0,
            "zscore": self.zscore,
            "pass": self.passed,
        }


def drift_test(deltas, name: str = "drift") -> McReport:
    """Test whether per-path increments have zero mean.

    deltas are terminal-minus-initial values of one observable across
    independent paths; real and imaginary parts of complex observables
    should be tested separately.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size < 100:
        raise InputError("drift_test needs at least 100 paths")
    variance = float(np.var(deltas, ddof=1))
    if variance == 0.0:
        # degenerate-variance warning is encoded in the report name
        name = name + " [degenerate variance]"
    return McReport(name, deltas.size, float(np.mean(deltas)), variance)


def ks_normality(samples, mean: float, std: float):
    """Kolmogorov-Smirnov distance of standardized samples to N(0,1).

    Returns (statistic, critical value at the 1% level).
    """
    xs = np.sort((np.asarray(samples, dtype=float) - mean) / std)
    n = xs.size
    r = math.sqrt(0.5)
    cdf = np.array([0.5 * math.erfc(-x * r) for x in xs.tolist()])
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus)), KS_CRIT_1PCT / math.sqrt(n)
