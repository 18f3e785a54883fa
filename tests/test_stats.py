"""Monte Carlo reports, drift tests, and normality checks."""

import math

import numpy as np
import pytest

from slitflow.errors import ParameterRangeError
from slitflow.stats import McReport, drift_test, ks_normality


def test_mc_report_zscore_and_pass():
    rep = McReport("obs", 400, 1.05, 1.0, 1.0)
    assert rep.se == pytest.approx(0.05)
    assert rep.zscore == pytest.approx(1.0)
    assert rep.passed
    rep2 = McReport("obs", 400, 1.30, 1.0, 1.0)
    assert not rep2.passed
    row = rep.csv_row()
    assert row["pass"] is True and row["name"] == "obs"


def test_mc_report_degenerate_se():
    rep = McReport("const", 10, 3.0, 0.0, 3.0)
    assert rep.passed and rep.zscore == 0.0
    rep_bad = McReport("const", 10, 3.0, 0.0, 2.0)
    assert not rep_bad.passed


def test_drift_test_zero_mean_passes():
    rng = np.random.default_rng(2)
    rep = drift_test(rng.standard_normal(10_000), name="noise", seed=2)
    assert rep.passed and abs(rep.zscore) < 3


def test_drift_test_detects_bias():
    rng = np.random.default_rng(3)
    rep = drift_test(rng.standard_normal(10_000) + 0.1)
    assert not rep.passed


def test_drift_test_requires_enough_paths():
    with pytest.raises(ParameterRangeError):
        drift_test(np.zeros(50))


def test_drift_test_flags_degenerate_variance():
    rep = drift_test(np.zeros(200))
    assert "degenerate variance" in rep.name
    assert rep.passed


def test_ks_normality_accepts_gaussian_rejects_uniform():
    rng = np.random.default_rng(4)
    gs = 2.0 + 0.5 * rng.standard_normal(5000)
    stat, crit = ks_normality(gs, 2.0, 0.5)
    assert stat < crit
    us = rng.uniform(-1, 1, 5000)
    stat_u, crit_u = ks_normality(us, 0.0, math.sqrt(1.0 / 3.0))
    assert stat_u > crit_u
