"""Ensemble statistics: mergeable accumulators, Monte Carlo reports,
martingale drift tests, and normality checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import stats as sps

from .errors import ParameterRangeError


@dataclass
class RunningStats:
    """Mean/variance accumulator with an order-stable pairwise merge."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add_batch(self, xs) -> None:
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return
        bn = xs.size
        bmean = float(np.mean(xs))
        bm2 = float(np.sum((xs - bmean) ** 2))
        self._merge(bn, bmean, bm2)

    def merge(self, other: "RunningStats") -> None:
        self._merge(other.n, other.mean, other.m2)

    def _merge(self, bn, bmean, bm2):
        if bn == 0:
            return
        n = self.n + bn
        delta = bmean - self.mean
        self.mean += delta * bn / n
        self.m2 += bm2 + delta * delta * self.n * bn / n
        self.n = n

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def se(self) -> float:
        return math.sqrt(self.variance / self.n) if self.n > 0 else math.inf


@dataclass
class McReport:
    """One Monte Carlo estimate against a target value."""

    name: str
    n: int
    mean: float
    variance: float
    target: float
    seed: Optional[int] = None
    dt: Optional[float] = None
    z_threshold: float = 3.0
    se: float = field(init=False)
    zscore: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.se = math.sqrt(self.variance / self.n) if self.n > 0 else math.inf
        if self.se == 0.0:
            self.zscore = 0.0 if self.mean == self.target else math.inf
        else:
            self.zscore = (self.mean - self.target) / self.se
        self.passed = abs(self.zscore) < self.z_threshold

    def csv_row(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "mean": self.mean,
            "se": self.se,
            "target": self.target,
            "zscore": self.zscore,
            "pass": self.passed,
        }


def drift_test(deltas, name: str = "drift", seed=None, dt=None,
               z_threshold: float = 3.0) -> McReport:
    """Test whether per-path increments have zero mean.

    deltas are terminal-minus-initial values of one observable across
    independent paths; real and imaginary parts of complex observables
    should be tested separately.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size < 100:
        raise ParameterRangeError("drift_test needs at least 100 paths")
    acc = RunningStats()
    acc.add_batch(deltas)
    if acc.variance == 0.0:
        # degenerate-variance warning is encoded in the report name
        name = name + " [degenerate variance]"
    return McReport(name, acc.n, acc.mean, acc.variance, 0.0,
                    seed=seed, dt=dt, z_threshold=z_threshold)


def ks_normality(samples, mean: float, std: float):
    """Kolmogorov-Smirnov distance of standardized samples to N(0,1).

    Returns (statistic, critical value at the 1% level).
    """
    xs = (np.asarray(samples, dtype=float) - mean) / std
    stat = float(sps.kstest(xs, "norm").statistic)
    crit = float(sps.kstwobign.ppf(0.99)) / math.sqrt(xs.size)
    return stat, crit
