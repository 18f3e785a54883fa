"""Monte Carlo reports, drift tests, and normality checks."""

import math

import numpy as np
import pytest

from slitflow.errors import InputError
from slitflow.stats import KS_CRIT_1PCT, McReport, drift_test, ks_normality


def test_mc_report_zscore_and_pass():
    # the target is 0: the z-score is the mean in units of its se
    rep = McReport("obs", 400, 0.05, 1.0)
    assert rep.se == pytest.approx(0.05)
    assert rep.zscore == pytest.approx(1.0)
    assert rep.passed
    rep2 = McReport("obs", 400, 0.30, 1.0)
    assert not rep2.passed
    row = rep.csv_row()
    assert row["pass"] is True and row["name"] == "obs"
    assert row["target"] == 0.0 and isinstance(row["target"], float)


def test_mc_report_degenerate_se():
    rep = McReport("const", 10, 0.0, 0.0)
    assert rep.passed and rep.zscore == 0.0
    rep_bad = McReport("const", 10, 1.0, 0.0)
    assert not rep_bad.passed


def test_drift_test_zero_mean_passes():
    rng = np.random.default_rng(2)
    rep = drift_test(rng.standard_normal(10_000), name="noise")
    assert rep.passed and abs(rep.zscore) < 3


def test_drift_test_detects_bias():
    rng = np.random.default_rng(3)
    rep = drift_test(rng.standard_normal(10_000) + 0.1)
    assert not rep.passed


def test_drift_test_requires_enough_paths():
    with pytest.raises(InputError, match="needs at least 100 paths"):
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


@pytest.mark.parametrize("case", [
    "n1", "n2", "n500", "n5000", "ties", "shifted_scaled",
])
def test_ks_normality_matches_scipy_stats_exactly(case):
    # scipy is the test-only reference.  The statistic's normal CDF comes
    # from math.erfc, not scipy's cephes ndtr, and the two differ by up to
    # 2.2e-16, so the statistic agrees to 2^-51, twice the largest
    # difference measured; the critical value agrees bit for bit
    from scipy import stats as sps

    rng = np.random.default_rng(11)
    mean, std = 0.0, 1.0
    if case == "ties":
        xs = np.round(rng.standard_normal(400), 1)
    elif case == "shifted_scaled":
        mean, std = -3.5, 0.2
        xs = mean + std * rng.standard_normal(2000)
    else:
        xs = rng.standard_normal(int(case[1:]))
    xs = np.sort(xs)[::-1]  # descending: ks_normality must sort it itself
    stat, crit = ks_normality(xs, mean, std)
    zs = (xs - mean) / std
    assert abs(stat - float(sps.kstest(zs, "norm").statistic)) <= 2.0 ** -51
    assert crit == float(sps.kstwobign.ppf(0.99)) / math.sqrt(xs.size)


def test_ks_crit_is_scipys_kolmogorov_quantile():
    from scipy.special import kolmogi

    assert KS_CRIT_1PCT == float(kolmogi(1.0 - 0.99))
