"""Loewner solvers and the stochastic flow integrator."""

import dataclasses
import math

import numpy as np
import pytest

from slitflow import flow
from slitflow.classify import enumerate_families
from slitflow.errors import InputError, NumericalError
from slitflow.fields import eval_field, eval_field_prime
from slitflow.flow import (
    DrivingPath,
    chordal_loewner,
    inverse_map,
    simulate_ensemble,
    zero_driving,
)
from slitflow.observables import MARTINGALE_POINTS, _family_model, qv_check


def _chordal_model(kappa=4.0, alpha=0.0):
    fams = {f.name: f for f in enumerate_families(kappa)}
    return fams["chordal-drift"].instantiate(alpha, None)


def _brownian_driving(kappa, alpha, T, dt, seed):
    """xi_t = sqrt(kappa) B_t + alpha t sampled on the grid 0, dt, ..., T."""
    n = round(T / dt)
    times = dt * np.arange(n + 1)
    steps = np.random.default_rng(seed).standard_normal(n) * math.sqrt(kappa * dt)
    values = np.concatenate(([0.0], np.cumsum(steps))) + alpha * times
    return DrivingPath(dt, times, values)


def test_zero_driving_chordal_matches_closed_form():
    # forward map: g_t(z) = sqrt(z^2 + 4t), so g_0.2(i) = i sqrt(0.2)
    w_T = chordal_loewner(zero_driving(0.2, 1e-3), 1j)[-1]
    assert abs(w_T - 1j * math.sqrt(1.0 - 4.0 * 0.2)) < 1e-8


def test_zero_driving_inverse_map_closed_form():
    # inverse map: g_t^{-1}(iy) = i sqrt(y^2 + 4t)
    z = inverse_map(zero_driving(1.0, 1e-3), 1j, 1.0)
    assert abs(z - 1j * math.sqrt(1.0 + 4.0)) < 1e-8


def test_inverse_map_round_trips_forward_map():
    drv = _brownian_driving(4.0, 0.0, 0.2, 1e-3, seed=9)
    w = chordal_loewner(drv, 0.4 + 1.3j)
    assert len(w) == len(drv.times)
    g_T = w[-1] + drv.values[-1]
    back = inverse_map(drv, g_T, drv.times[-1])
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
    w = chordal_loewner(drv, 0.5 + 1.2j)
    assert len(w) == len(drv.times)
    g_T = w[-1] + drv.values[-1]
    t = 0.25037
    ref = inverse_map(fine, g_T, t)
    assert abs(inverse_map(drv, g_T, t) - ref) < 1e-5 * abs(ref)


def test_inverse_map_rejects_bad_start_and_time():
    drv = zero_driving(0.1, 1e-3)
    with pytest.raises(InputError, match="not in the open upper half-plane"):
        inverse_map(drv, 1.0 - 0.5j, 0.05)
    for t in (-0.01, 0.2):
        with pytest.raises(InputError, match="outside the driving horizon"):
            inverse_map(drv, 1j, t)


def test_capacity_normalization_far_point():
    w_T = chordal_loewner(zero_driving(1.0, 1e-3), 100j)[-1]
    assert abs((w_T - 100j) * 100j - 2.0) < 1e-3


def test_chordal_loewner_with_noise_keeps_half_plane():
    drv = _brownian_driving(6.0, 0.0, 0.5, 1e-3, seed=11)
    w = chordal_loewner(drv, 0.5 + 1.2j)
    assert np.all(w.imag > 0)


def test_driving_path_shape_and_interp():
    drv = _brownian_driving(4.0, 0.5, 0.2, 1e-2, seed=3)
    assert drv.times[-1] == pytest.approx(0.2)
    assert drv.values[0] == 0.0
    with pytest.raises(InputError, match="need 0 < dt <= T < inf"):
        zero_driving(1.0, 2.0)
    # a step that does not divide the horizon would silently stop short of T
    with pytest.raises(InputError, match="does not divide T"):
        zero_driving(0.1, 0.07)


def test_ensemble_rejects_lower_half_plane():
    model = _chordal_model()
    # a non-finite real part is outside the domain too
    for pts in ([1.0 - 1.0j], [1j, -1j], [2.0 + 0j], [complex(math.nan, 1.0)],
                [complex(math.inf, 1.0)]):
        with pytest.raises(InputError, match="not in the open upper half-plane"):
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
    assert np.all(a.w.imag > 0)
    # a seed, its SeedSequence and a Generator made from it give one stream
    for rng in (42, np.random.SeedSequence(42), np.random.default_rng(42)):
        b = simulate_ensemble(model, pts, 32, 0.1, 1e-3, rng)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.log_wp, b.log_wp)


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

    def cb(i, t, rows, x, y, lr, li, alive):
        # 64 paths of 2 points fit in one tile: every call sees all rows
        assert rows == slice(0, 64)
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
    # a seed point inside R_MAX that a drift of 1e10 carries out in one step
    with pytest.raises(NumericalError, match="left the safe radius"):
        simulate_ensemble(_chordal_model(4.0, 1e10), [1j], 4, 0.01, 1e-3, 0)


def test_ensemble_rejects_seed_points_beyond_safe_radius():
    # a seed point at or past R_MAX is a usage error before any step, with
    # no overflow warning on the way; just inside it the ensemble runs
    for z in (1e7j, 1e200j, flow.R_MAX * 1j):
        with pytest.raises(InputError, match="R_MAX"):
            simulate_ensemble(_chordal_model(), [z], 4, 0.01, 1e-3, 0)
    res = simulate_ensemble(_chordal_model(), [9e5j], 4, 0.01, 1e-3, 0)
    assert res.alive.all()


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


def test_ensemble_callback_order_and_times(monkeypatch):
    # 8-row tiles over 20 paths (8 + 8 + 4) and 11 steps in blocks of 4
    # (4 + 4 + 3): within a block each tile takes all its steps in turn
    monkeypatch.setattr(flow, "TILE_BYTES", 64)
    monkeypatch.setattr(flow, "STEP_BLOCK", 4)
    model = _chordal_model(4.0, 0.0)
    n_paths, dt = 20, 1e-3
    seen = []

    def cb(i, t, rows, x, y, lr, li, alive):
        seen.append((i, t, rows))
        n = rows.stop - rows.start
        assert all(v.shape == (n, 1) for v in (x, y, lr, li, alive))
        assert not any(v.flags.writeable for v in (x, y, lr, li, alive))

    simulate_ensemble(model, np.array([1j]), n_paths, 0.011, dt, 5, cb)
    assert seen[0] == (0, 0.0, slice(0, n_paths))
    tiles = [slice(0, 8), slice(8, 16), slice(16, 20)]
    expected = [
        (i, i * dt, rows)
        for block in ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11))
        for rows in tiles for i in block
    ]
    assert seen[1:] == expected
    assert seen[-1][1] == pytest.approx(0.011)
    # every step's tiles cover each path exactly once
    for i in range(1, 12):
        hits = np.zeros(n_paths, dtype=int)
        for _, _, rows in (c for c in seen if c[0] == i):
            hits[rows] += 1
        assert (hits == 1).all()


@pytest.mark.parametrize("n_points, rows", [(1, 16384), (5, 3272), (148, 104)])
def test_ensemble_tile_rows_are_multiples_of_eight(n_points, rows):
    pts = 1j + 0.01 * np.arange(n_points)
    seen = set()

    def cb(i, t, sl, *state):
        if i:
            seen.add(sl.stop - sl.start)

    simulate_ensemble(_chordal_model(), pts, rows + 3, 1e-3, 1e-3, 0, cb)
    assert seen == {rows, 3}
    assert rows % 8 == 0
    assert rows * n_points * 8 <= flow.TILE_BYTES < (rows + 8) * n_points * 8


def test_ensemble_without_points_is_empty():
    res = simulate_ensemble(_chordal_model(), [], 4, 0.01, 1e-3, 0)
    assert res.w.shape == res.log_wp.shape == res.alive.shape == (4, 0)


@pytest.mark.parametrize("geometry, kappa, alpha",
                         [("chordal", 6.0, 0.0), ("dipolar", 6.0, 0.3)])
def test_ensemble_output_does_not_depend_on_tiling(monkeypatch, geometry,
                                                   kappa, alpha):
    # 37 paths and 23 steps: ragged last tiles (37 = 4 * 8 + 5 rows,
    # 24 + 13 and 2 * 16 + 5) and ragged last step blocks; some entries
    # freeze
    model = _family_model(geometry, kappa, alpha)
    pts = np.concatenate([np.asarray(MARTINGALE_POINTS), [0.05 + 0.08j]])
    runs = []
    for tile_bytes, step_block in ((1 << 20, 16), (8 * 6 * 8, 5),
                                   (24 * 6 * 8, 1), (16 * 6 * 8, 64)):
        monkeypatch.setattr(flow, "TILE_BYTES", tile_bytes)
        monkeypatch.setattr(flow, "STEP_BLOCK", step_block)
        runs.append(simulate_ensemble(model, pts, 37, 0.023, 1e-3, 11))
    assert not runs[0].alive.all()
    for res in runs[1:]:
        for name in ("w", "log_wp", "alive"):
            assert getattr(res, name).tobytes() == getattr(runs[0], name).tobytes()


def test_ensemble_tiles_that_freeze_and_tiles_that_never_do(monkeypatch):
    # 8-row tiles over 64 paths of 2 points for 50 steps: a point at
    # distance 0.42 from the pole freezes in some tiles (whose steps then
    # commit masked) and in none of the others (whose steps commit
    # unmasked); the result equals the one-tile run byte for byte
    model = _chordal_model(6.0, 0.0)
    pts = np.array([1j, 0.3 + 0.3j])
    runs = []
    for tile_bytes in (1 << 20, 8 * 2 * 8):
        monkeypatch.setattr(flow, "TILE_BYTES", tile_bytes)
        runs.append(simulate_ensemble(model, pts, 64, 0.05, 1e-3, 1))
    tile_alive = runs[1].alive.reshape(8, 8 * 2).all(axis=1)
    assert tile_alive.any() and not tile_alive.all()
    for name in ("w", "log_wp", "alive"):
        assert getattr(runs[1], name).tobytes() == getattr(runs[0], name).tobytes()


def test_qv_check_does_not_depend_on_tiling(monkeypatch):
    # 45 paths of 148 points: one tile, then 8-row tiles (5 x 8 + 5), then
    # 16-row tiles (2 x 16 + 13), with blocks of 16, 3 and 7 steps
    runs = []
    for tile_bytes, step_block in ((1 << 20, 16), (8 * 148 * 8, 3),
                                   (23 * 148 * 8, 7)):
        monkeypatch.setattr(flow, "TILE_BYTES", tile_bytes)
        monkeypatch.setattr(flow, "STEP_BLOCK", step_block)
        runs.append(dataclasses.astuple(
            qv_check(n_paths=45, T=0.01, dt=5e-4, seed=4)))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_ensemble_matches_scalar_integrator_statistics():
    # the ensemble mean stays close to the zero-noise flow, which the scalar
    # RK4 Loewner solver integrates under zero driving
    model = _chordal_model(4.0, 0.0)
    T, dt = 0.05, 1e-3
    res = simulate_ensemble(model, np.array([1j]), 4000, T, dt, 21)
    drv_mean = np.mean(res.w[:, 0])
    det_T = chordal_loewner(zero_driving(T, dt), 1j)[-1]
    assert abs(drv_mean - det_T) < 0.05
