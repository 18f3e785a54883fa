"""Vertex observables along flows and the stochastic checks."""

import cmath
import math

import numpy as np
import pytest

from slitflow.classify import CftParams, build_u, enumerate_families
from slitflow.flow import chordal_loewner, zero_driving
from slitflow.gff import RectDomain, TestFn as Bump, patch_from_testfn
from slitflow.observables import (
    cardy_zhan,
    chordal_vertex_log,
    dipolar_vertex_log,
    qv_check,
    run_coupling,
)


# -- vertex observables along flows ----------------------------------------------


def test_chordal_vertex_log_value():
    # w^{-4/kappa} w' e^{2 alpha w / kappa} at w=i, log w'=0, kappa=4, alpha=0
    val = cmath.exp(complex(chordal_vertex_log(4.0, 0.0, 1j, 0.0)))
    assert val == pytest.approx(-1j)


def test_dipolar_vertex_log_flat_at_zero_drift_midpoint():
    # at w = 2i the unit coordinate is i, symmetric between the fixed points
    val = cmath.exp(complex(dipolar_vertex_log(6.0, 0.0, 2j, 0.0)))
    expect = 0.5 * (2.0 ** (-1.0 + 2.0 / 6.0)) * cmath.exp(
        (-4.0 / 6.0) * cmath.log(1j)
    )
    assert val == pytest.approx(expect)


def test_u_process_zero_noise_is_constant_at_kappa4():
    # u = 2a arg w is harmonic and the kappa=4 chordal observable has no
    # rotation term; under zero driving the deterministic flow preserves it
    # only along the martingale average, not pathwise - but on the imaginary
    # axis arg w stays pi/2 exactly
    fam = {f.name: f for f in enumerate_families(4.0)}["chordal-drift"]
    u = build_u(fam.instantiate(alpha=0.0))
    path = chordal_loewner(zero_driving(4.0, 0.0, 0.2, 1e-3), 1j)
    n = path.last_alive_index()
    # u_t as martingale_suite evaluates it: u(w_t) + mu Im log w'_t
    vals = u.value(path.w[: n + 1]) + u.mu * np.imag(path.log_wp[: n + 1])
    assert np.allclose(vals, vals[0], atol=1e-9)


# -- stochastic identity smoke checks (small ensembles) --------------------------


def test_qv_check_smoke():
    res = qv_check(n_paths=150, T=0.15, dt=2e-4, seed=1)
    assert res.rel_error < 0.1
    assert res.e0 > res.e_terminal_mean > 0


def test_cardy_zhan_smoke():
    res = cardy_zhan(6.0, 0.0, 0.5 + 1.0j, n_paths=1500, dt=5e-4, seed=3)
    assert abs(sum(res.mc) - 1.0) < 1e-9
    assert res.ambiguous_frac < 0.05
    assert res.max_abs_err < 0.05
    assert abs(sum(res.oracle) - 1.0) < 1e-9


def test_cardy_zhan_credits_escape_stops_with_the_oracle():
    # every path starts past ESCAPE_RE and stops at the first sweep; its
    # credit is the oracle there (0.99984 to the right), not a sure escape
    res = cardy_zhan(6.0, 0.0, 25.0 + 1.5j, n_paths=200, dt=1e-3, seed=1)
    assert 0.99 < res.mc[1] < 1.0
    assert abs(sum(res.mc) - 1.0) < 1e-12
    assert res.ambiguous_frac == 0.0
    assert 0.0 < res.oracle_share < 0.01


def test_cardy_zhan_credits_swallow_stops_with_the_oracle():
    # every path starts inside EPS_SWALLOW; the oracle there is 0.976, so
    # the swallow frequency is below 1 and the rest goes to the two sides
    res = cardy_zhan(6.0, 0.0, 5e-5j, n_paths=200, dt=1e-3, seed=1)
    assert 0.95 < res.mc[0] < 1.0
    assert min(res.mc[1:]) > 0.0
    assert abs(sum(res.mc) - 1.0) < 1e-12
    assert res.ambiguous_frac == 0.0


def test_drift_modified_coupling_law():
    # the drift-modified coupling: with alpha != 0 the pairing's mean shifts
    # by alpha a (Im z, p); gates at 5 se, the alpha = 0 mean must be ruled out
    res = run_coupling(n_samples=1000, T=0.1, dt=1e-3, seed=1, alpha=1.0)
    se_var = res.var_target * math.sqrt(2.0 / (res.n - 1))
    assert abs(res.mean - res.mean_target) < 5.0 * res.se
    assert abs(res.variance - res.var_target) < 5.0 * se_var
    assert res.flagged == 0
    patch = patch_from_testfn(RectDomain(), Bump(1.5j, 0.3))
    target_alpha0 = float(
        2.0 * CftParams(4.0).a * np.angle(patch.centers) @ patch.weights
    )
    assert abs(res.mean - target_alpha0) > 10.0 * res.se


def test_coupling_pool_is_sized_by_the_chunks(monkeypatch):
    # a fork pool starts every worker it is sized for at the first submit,
    # so eight threads over two chunks must ask for two; an in-process fake
    # records the request and starts no process
    import concurrent.futures

    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    pooled = run_coupling(n_samples=1000, T=0.01, dt=1e-3, seed=2, chunk=500,
                          threads=8)
    assert requested == [2]
    serial = run_coupling(n_samples=1000, T=0.01, dt=1e-3, seed=2, chunk=500)
    assert requested == [2]
    assert pooled.samples.tobytes() == serial.samples.tobytes()
