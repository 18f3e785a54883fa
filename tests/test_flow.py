"""Loewner solvers and the stochastic flow integrator."""

import dataclasses
import math

import numpy as np
import pytest

from slitflow.classify import enumerate_families
from slitflow.errors import DomainError, ParameterRangeError, StepExplosionError
from slitflow.fields import eval_field, eval_field_prime
from slitflow.flow import (
    DrivingPath,
    chordal_loewner,
    inverse_map,
    simulate_ensemble,
    zero_driving,
)
from slitflow.observables import MARTINGALE_POINTS, _family_model


def _chordal_model(kappa=4.0, alpha=0.0):
    fams = {f.name: f for f in enumerate_families(kappa)}
    return fams["chordal-drift"].instantiate(alpha=alpha)


def _brownian_driving(kappa, alpha, T, dt, seed):
    """xi_t = sqrt(kappa) B_t + alpha t sampled on the grid 0, dt, ..., T."""
    n = round(T / dt)
    times = dt * np.arange(n + 1)
    steps = np.random.default_rng(seed).standard_normal(n) * math.sqrt(kappa * dt)
    values = np.concatenate(([0.0], np.cumsum(steps))) + alpha * times
    return DrivingPath(dt, times, values)


def test_zero_driving_chordal_matches_closed_form():
    # forward map: g_t(z) = sqrt(z^2 + 4t), so g_0.2(i) = i sqrt(0.2)
    drv = zero_driving(4.0, 0.0, 0.2, 1e-3)
    path = chordal_loewner(drv, 1j)
    w_T = path.w[path.last_alive_index()]
    assert abs(w_T - 1j * math.sqrt(1.0 - 4.0 * 0.2)) < 1e-8


def test_zero_driving_inverse_map_closed_form():
    # inverse map: g_t^{-1}(iy) = i sqrt(y^2 + 4t)
    drv = zero_driving(4.0, 0.0, 1.0, 1e-3)
    z = inverse_map(drv, 1j, 1.0)
    assert abs(z - 1j * math.sqrt(1.0 + 4.0)) < 1e-8


def test_inverse_map_round_trips_forward_map():
    drv = _brownian_driving(4.0, 0.0, 0.2, 1e-3, seed=9)
    path = chordal_loewner(drv, 0.4 + 1.3j)
    g_T = path.w[path.last_alive_index()] + drv.values[-1]
    back = inverse_map(drv, g_T, drv.horizon)
    assert abs(back - (0.4 + 1.3j)) < 1e-6


@pytest.mark.parametrize("seed", [0, 6, 13])
def test_inverse_map_off_grid_matches_finer_grid(seed):
    # the backward walk starts with the partial segment that holds an
    # off-grid t and then follows the grid segments, on which xi is linear,
    # so no step straddles a kink of xi; the same xi sampled on a grid 20
    # times finer is the reference
    drv = _brownian_driving(6.0, 0.0, 0.5, 1e-3, seed)
    fine_times = (drv.dt / 20) * np.arange(20 * (len(drv.times) - 1) + 1)
    fine = DrivingPath(drv.dt / 20, fine_times,
                       np.interp(fine_times, drv.times, drv.values))
    path = chordal_loewner(drv, 0.5 + 1.2j)
    assert path.last_alive_index() == len(drv.times) - 1
    g_T = path.w[-1] + drv.values[-1]
    t = 0.25037
    ref = inverse_map(fine, g_T, t)
    assert abs(inverse_map(drv, g_T, t) - ref) < 1e-5 * abs(ref)


def test_inverse_map_rejects_bad_start_and_time():
    drv = zero_driving(4.0, 0.0, 0.1, 1e-3)
    with pytest.raises(DomainError):
        inverse_map(drv, 1.0 - 0.5j, 0.05)
    for t in (-0.01, 0.2):
        with pytest.raises(ParameterRangeError):
            inverse_map(drv, 1j, t)


def test_capacity_normalization_far_point():
    drv = zero_driving(4.0, 0.0, 1.0, 1e-3)
    path = chordal_loewner(drv, 100j)
    w_T = path.w[path.last_alive_index()]
    assert abs((w_T - 100j) * 100j - 2.0) < 1e-3


def test_chordal_loewner_with_noise_keeps_half_plane():
    drv = _brownian_driving(6.0, 0.0, 0.5, 1e-3, seed=11)
    path = chordal_loewner(drv, 0.5 + 1.2j)
    live = path.w[: path.last_alive_index() + 1]
    assert np.all(live.imag > 0)


def test_driving_path_shape_and_interp():
    drv = _brownian_driving(4.0, 0.5, 0.2, 1e-2, seed=3)
    assert drv.horizon == pytest.approx(0.2)
    assert drv.values[0] == 0.0
    with pytest.raises(ParameterRangeError):
        zero_driving(4.0, 0.0, 1.0, 2.0)
    # a step that does not divide the horizon would silently stop short of T
    with pytest.raises(ParameterRangeError):
        zero_driving(4.0, 0.0, 0.1, 0.07)


def test_ensemble_rejects_lower_half_plane():
    model = _chordal_model()
    for pts in ([1.0 - 1.0j], [1j, -1j], [2.0 + 0j]):
        with pytest.raises(DomainError):
            simulate_ensemble(model, pts, 4, 0.1, 1e-3, 0)


def test_ensemble_zero_noise_matches_closed_form():
    # w_t(z) = sqrt(z^2 + 4t) and w'_t(z) = z / sqrt(z^2 + 4t)
    model = dataclasses.replace(_chordal_model(4.0, 0.0), kappa=0.0)
    T = 0.2
    res = simulate_ensemble(model, [1j], 2, T, 1e-4, 0)
    assert res.alive.all()
    assert np.all(np.abs(res.w - 1j * math.sqrt(1.0 - 4.0 * T)) < 2e-3)
    assert np.allclose(res.log_wp, -0.5 * math.log(1.0 - 4.0 * T), atol=5e-3)


def test_ensemble_reproducible_and_stays_in_half_plane():
    model = _chordal_model(4.0, 0.0)
    pts = np.array([0.5 + 1.0j, -0.4 + 1.5j])
    a = simulate_ensemble(model, pts, 32, 0.1, 1e-3, 42)
    b = simulate_ensemble(model, pts, 32, 0.1, 1e-3, 42)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.log_wp, b.log_wp)
    assert np.all(a.w.imag > 0)


def test_ensemble_seed_changes_output():
    model = _chordal_model(4.0, 0.0)
    pts = np.array([0.5 + 1.0j])
    a = simulate_ensemble(model, pts, 8, 0.1, 1e-3, 1)
    b = simulate_ensemble(model, pts, 8, 0.1, 1e-3, 2)
    assert not np.array_equal(a.w, b.w)


def test_ensemble_freezes_near_singularity():
    model = _chordal_model(6.0, 0.0)
    # a point hugging the origin gets frozen, not propagated to Im <= 0,
    # and from then on keeps the state it had before the freezing step
    pts = np.array([0.02 + 0.05j, 1.0j])
    seen = []

    def cb(i, t, x, y, lr, li, alive):
        seen.append((x + 1j * y, lr + 1j * li, alive.copy()))

    res = simulate_ensemble(model, pts, 64, 0.05, 1e-3, 7, cb)
    assert np.any(~res.alive)
    assert np.all(res.w.imag > 0)
    w, log_wp, alive = (np.stack(a) for a in zip(*seen))
    assert alive[0].all() and not np.any(alive[1:] & ~alive[:-1])
    frozen = ~alive[1:]
    assert np.array_equal(w[1:][frozen], w[:-1][frozen])
    assert np.array_equal(log_wp[1:][frozen], log_wp[:-1][frozen])
    assert np.array_equal(res.w, w[-1]) and np.array_equal(res.log_wp, log_wp[-1])


def test_ensemble_raises_beyond_safe_radius():
    with pytest.raises(StepExplosionError):
        simulate_ensemble(_chordal_model(), [2e6j], 4, 0.01, 1e-3, 0)


@pytest.mark.parametrize("geometry, kappa, alpha",
                         [("chordal", 4.0, 1.0), ("dipolar", 6.0, 0.3)])
def test_ensemble_step_matches_ito_formula(geometry, kappa, alpha):
    # one step is w + (-b + (kappa/2) sigma sigma') dt + sqrt(kappa) sigma dB
    # and log w' + (-b' + (kappa/2) sigma sigma'') dt + sqrt(kappa) sigma' dB,
    # on the first normal draw of the seed
    model = _family_model(geometry, kappa, alpha)
    pts = np.asarray(MARTINGALE_POINTS, dtype=complex)
    n, dt = 16, 1e-3
    res = simulate_ensemble(model, pts, n, dt, dt, 3)
    db = np.random.default_rng(np.random.SeedSequence(3)).standard_normal((n, 1))
    db *= math.sqrt(dt)
    b, s = model.b, model.sigma
    sv, sp = eval_field(s, pts), eval_field_prime(s, pts)
    w = pts + (-eval_field(b, pts) + 0.5 * kappa * sv * sp) * dt
    w = w + math.sqrt(kappa) * sv * db
    log_wp = (-eval_field_prime(b, pts) + 0.5 * kappa * sv * s.second(pts)) * dt
    log_wp = log_wp + math.sqrt(kappa) * sp * db
    assert res.alive.all()
    np.testing.assert_allclose(res.w, w, rtol=1e-12)
    np.testing.assert_allclose(res.log_wp, log_wp, rtol=1e-12)


def test_ensemble_callback_order_and_times():
    model = _chordal_model(4.0, 0.0)
    seen = []
    buffers = []

    def cb(i, t, x, y, lr, li, alive):
        seen.append((i, t))
        buffers.append((x, y, lr, li, alive))

    simulate_ensemble(model, np.array([1j]), 4, 0.01, 1e-3, 5, cb)
    assert seen[0] == (0, 0.0)
    assert len(seen) == 11
    assert seen[-1][1] == pytest.approx(0.01)
    # the live state buffers are handed over read-only, not per-step copies
    assert all(a is b for bufs in buffers for a, b in zip(bufs, buffers[0]))
    assert not any(a.flags.writeable for a in buffers[0])


def test_ensemble_matches_scalar_integrator_statistics():
    # the ensemble mean stays close to the zero-noise flow, which the scalar
    # RK4 Loewner solver integrates under zero driving
    model = _chordal_model(4.0, 0.0)
    T, dt = 0.05, 1e-3
    res = simulate_ensemble(model, np.array([1j]), 4000, T, dt, 21)
    drv_mean = np.mean(res.w[:, 0])
    det = chordal_loewner(zero_driving(4.0, 0.0, T, dt), 1j)
    det_T = det.w[det.last_alive_index()]
    assert abs(drv_mean - det_T) < 0.05
