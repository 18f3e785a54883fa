"""Vertex observables along flows and the stochastic checks."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitflow.classify import build_u, enumerate_families
from slitflow.conformal import sc_map_build
from slitflow.errors import InputError
from slitflow.flow import (
    EPS_SWALLOW,
    chordal_loewner,
    simulate_ensemble,
    zero_driving,
)
from slitflow.gff import (
    RectDomain,
    TestFn as Bump,
    eigen_basis,
    patch_from_testfn,
)
from slitflow.observables import (
    C_SING_STRIP,
    ESCAPE_RE,
    CouplingResult,
    FIELD_BLOCK,
    FLAT_RE,
    H_MAX,
    QvResult,
    VERTEX_TOL,
    _coupling_chunk,
    _family_model,
    _strip_step,
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
    u = build_u(fam.instantiate(0.0, None))
    # u_t as martingale_suite evaluates it is u(w_t) + mu Im log w'_t, and
    # mu = 0 at kappa = 4
    assert u.mu == 0
    vals = u.value(chordal_loewner(zero_driving(0.2, 1e-3), 1j))
    assert np.allclose(vals, vals[0], atol=1e-9)


# -- stochastic identity smoke checks (small ensembles) --------------------------


def test_qv_check_smoke():
    res = qv_check(n_paths=150, T=0.15, dt=2e-4, seed=1)
    assert res.rel_error < 0.1 and res.passed
    assert res.e0 > res.e_terminal_mean > 0


@pytest.mark.parametrize("n_paths", [0, 1])
def test_qv_check_needs_two_paths(n_paths):
    # one path has no sample standard deviation
    with pytest.raises(InputError, match="at least 2 paths"):
        qv_check(n_paths=n_paths, T=0.01, dt=1e-3, seed=1)


def test_result_verdicts_are_their_gates():
    qv = QvResult(qv_mean=1.05, qv_se=0.01, e0=2.0, e_terminal_mean=1.0,
                  diff_se=0.02)
    assert qv.rel_error == pytest.approx(0.05)
    assert qv.z == pytest.approx(2.5) and qv.passed
    assert not dataclasses.replace(qv, diff_se=0.01).passed  # z = 5
    assert not dataclasses.replace(qv, qv_mean=1.15, diff_se=1.0).passed
    samples = np.random.default_rng(0).standard_normal(400)
    res = CouplingResult(samples, 0.0, 1.0, 0, samples.size)
    assert res.mean_pass and res.var_pass and res.ks_pass and res.passed
    assert res.ks() == res.ks()
    off = CouplingResult(samples, 1.0, 1.0, 0, samples.size)
    assert not off.mean_pass and not off.passed
    wide = CouplingResult(samples, 0.0, 2.0, 0, samples.size)
    assert not wide.var_pass and not wide.passed
    skew = CouplingResult(np.exp(samples), float(np.exp(samples).mean()),
                          float(np.exp(samples).var(ddof=1)), 0, samples.size)
    assert skew.mean_pass and skew.var_pass
    assert not skew.ks_pass and not skew.passed


def strip_step(x, y, dt):
    """_strip_step into fresh buffers."""
    h, tmp = np.empty((2, x.size))
    return _strip_step(x, y, dt, h, tmp, np.empty(x.size, bool))


def test_strip_step_is_dt_where_the_drift_is_not_flat():
    x = np.linspace(-FLAT_RE, FLAT_RE, 81)
    for dt in (2e-4, 1e-3):
        np.testing.assert_array_equal(strip_step(x, np.full_like(x, 1.5), dt),
                                      np.full_like(x, dt))


def test_strip_step_is_clamped_near_the_pole():
    theta = np.linspace(0.05, 3.0, 12)
    for r in (1e-4, 1e-2, 0.1):
        x, y = r * np.cos(theta), r * np.sin(theta)
        np.testing.assert_array_equal(strip_step(x, y, 2e-4),
                                      C_SING_STRIP * (x * x + y * y))


def test_strip_step_grows_by_e_per_unit_beyond_flat_re():
    dt = 1e-4
    x = np.array([0.5, 1.5, 2.5]) + FLAT_RE
    for sign in (1.0, -1.0):
        h = strip_step(sign * x, np.full(3, 1.5), dt)
        np.testing.assert_allclose(h, dt * np.exp(x - FLAT_RE), rtol=1e-13)
        np.testing.assert_allclose(h[1:] / h[:-1], math.e, rtol=1e-13)


def test_strip_step_is_capped_and_never_below_dt():
    x = np.array([-15.0, 10.0, 15.0])
    y = np.full(3, 1.5)
    np.testing.assert_array_equal(strip_step(x, y, 1e-3), np.full(3, H_MAX))
    # a dt above H_MAX is kept away from the pole, not shortened to H_MAX
    x = np.array([-15.0, 5.0, 15.0])
    np.testing.assert_array_equal(strip_step(x, y, 0.1), np.full(3, 0.1))


def test_strip_step_is_zero_past_the_escape_line():
    # an escaped path waits for the next sweep where it crossed, instead of
    # taking long steps that could bring it back inside unrecorded
    x = np.array([-ESCAPE_RE - 1e-9, -ESCAPE_RE, ESCAPE_RE, ESCAPE_RE + 0.5])
    h = strip_step(x, np.full(4, 1.5), 1e-3)
    np.testing.assert_array_equal(h, [0.0, H_MAX, H_MAX, 0.0])


@settings(max_examples=200, deadline=None)
@given(
    pts=st.lists(
        st.tuples(
            st.one_of(st.floats(-30.0, 30.0), st.floats(-1e-3, 1e-3),
                      st.sampled_from([-ESCAPE_RE, ESCAPE_RE, FLAT_RE])),
            st.one_of(st.floats(1e-12, math.pi - 1e-12),
                      st.floats(1e-12, 1e-3)),
        ),
        min_size=1, max_size=40,
    ),
    dt=st.floats(1e-6, 0.2),
)
def test_strip_step_into_buffers_is_the_closed_rule(pts, dt):
    x, y = np.array(pts).T.copy()
    closed = np.minimum(C_SING_STRIP * (x * x + y * y),
                        np.maximum(dt, np.minimum(dt * np.exp(np.abs(x) - FLAT_RE),
                                                  H_MAX)))
    closed[np.abs(x) > ESCAPE_RE] = 0.0
    # stale buffer contents must not leak into the step
    h, tmp = np.full((2, x.size), np.nan)
    inside = np.zeros(x.size, bool)
    got = _strip_step(x, y, np.array(dt), h, tmp, inside)
    assert got is h
    assert h.tobytes() == closed.tobytes()
    # a Python-float dt gives the same bits as the 0-d array
    assert strip_step(x, y, dt).tobytes() == closed.tobytes()


def _cardy_zhan_reference(kappa, alpha, z, n_paths, t_max, dt, seed):
    """The step loop as first written: fresh arrays and Python-float
    constants on every step, the horizon clamp on every step."""
    sm = sc_map_build(kappa, alpha)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x, y, t = np.full(n_paths, z.real), np.full(n_paths, z.imag), np.zeros(n_paths)
    stops, step = [], 0
    while x.size:
        if not step % 8:
            noise = rng.standard_normal((8, x.size))
        ax = np.abs(x)
        h = np.minimum(np.maximum(np.minimum(np.exp(ax - FLAT_RE) * dt, H_MAX), dt),
                       C_SING_STRIP * (x * x + y * y))
        h[ax > ESCAPE_RE] = 0.0
        np.minimum(h, np.maximum(t_max - t, 0.0), out=h)
        shx, sny = np.sinh(0.5 * x), np.sin(0.5 * y)
        den = 2.0 * (shx * shx + sny * sny)
        x += (np.sinh(x) / den - alpha) * h
        x -= (math.sqrt(kappa) * np.sqrt(h)) * noise[step % 8]
        y -= (np.sin(y) / den) * h
        t += h
        step += 1
        if step % 8:
            continue
        stop = ((x * x + y * y < EPS_SWALLOW * EPS_SWALLOW)
                | (np.abs(x) > ESCAPE_RE) | (t >= t_max - 1e-12))
        if stop.any():
            stops.append(x[stop] + 1j * y[stop])
            x, y, t = x[~stop], y[~stop], t[~stop]
    bary = sm.exit_probabilities(np.concatenate(stops))
    top = bary.max(axis=1)
    return (tuple(float(p) for p in bary.mean(axis=0)),
            float(np.mean(top <= VERTEX_TOL)), float(np.mean(1.0 - top)))


@pytest.mark.parametrize("kappa, alpha, z, t_max, dt", [
    (6.0, 0.0, 0.5 + 0.8j, 30.0, 1e-3),
    (6.0, 0.3, -0.3 + 1.5708j, 30.0, 1e-3),
    (8.0, 0.0, 1.0 + 2.2j, 30.0, 1e-3),
    (8.0, -0.2, 1.0 + 2.2j, 30.0, 1e-3),
    # every path starts past the escape line
    (6.0, 0.0, 25.0 + 1.5j, 30.0, 1e-3),
    # horizons that are not a multiple of dt: every sweep clamps, or the
    # first sweeps do not and the last ones do
    (6.0, 0.0, 0.5 + 0.8j, 0.3337, 1e-3),
    (8.0, 0.2, 1.0 + 2.2j, 2.0037, 1e-3),
    # dt above H_MAX
    (6.0, 0.3, 0.5 + 0.8j, 30.0, 0.1),
])
def test_cardy_zhan_equals_the_reference_loop(kappa, alpha, z, t_max, dt):
    res = cardy_zhan(kappa, alpha, z, n_paths=200, t_max=t_max, dt=dt, seed=7)
    ref = _cardy_zhan_reference(kappa, alpha, z, 200, t_max, dt, seed=7)
    assert (res.mc, res.ambiguous_frac, res.oracle_share) == ref


@pytest.mark.parametrize("bad, match", [
    (dict(dt=0.0), "dt"), (dict(dt=-1e-3), "dt"), (dict(dt=math.nan), "dt"),
    (dict(dt=math.inf), "dt"), (dict(n_paths=0), "path"),
    (dict(n_paths=-3), "path"), (dict(t_max=0.0), "t_max"),
    (dict(t_max=-1.0), "t_max"), (dict(t_max=math.nan), "t_max"),
])
def test_cardy_zhan_rejects_bad_sizes(bad, match):
    args = dict(n_paths=10, t_max=1.0, dt=1e-3, seed=1) | bad
    with pytest.raises(InputError, match=match):
        cardy_zhan(6.0, 0.0, 0.5 + 0.8j, **args)


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


@pytest.mark.parametrize("z", [4j, 1.0 - 0.5j, complex(math.inf, 1.0)])
def test_cardy_zhan_rejects_points_outside_the_strip(z):
    # a non-finite real part never meets a stop condition, so it is refused
    with pytest.raises(InputError, match="seed point must be inside the strip"):
        cardy_zhan(6.0, 0.0, z, n_paths=10, dt=1e-3, seed=1)


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
        2.0 * math.sqrt(2.0 / 4.0) * np.angle(patch.centers) @ patch.weights
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


@pytest.mark.parametrize("chunk", [0, -5])
def test_coupling_rejects_chunk_sizes_below_one(chunk):
    with pytest.raises(InputError, match="positive chunk size"):
        run_coupling(n_samples=100, T=0.01, dt=1e-3, seed=1, chunk=chunk)


def test_coupling_chunk_blocks_match_one_shot_field():
    # 130 samples cross two block boundaries (64 + 64 + 2); the reference is
    # one draw, one scaling and one evaluation over the whole chunk, built
    # from the same seeds as _coupling_chunk spawns them
    m, T, dt, bump = 130, 0.02, 1e-3, Bump(1.5j, 0.3)
    assert FIELD_BLOCK < m and m % FIELD_BLOCK
    dom = RectDomain()
    basis = eigen_basis(dom)
    patch = patch_from_testfn(dom, bump)
    model = _family_model("chordal", 4.0, 0.0)
    samples, flagged = _coupling_chunk((np.random.SeedSequence(42), m, T, dt,
                                        model, basis, patch, build_u(model)))
    flow_ss, field_ss = np.random.SeedSequence(42).spawn(2)
    res = simulate_ensemble(model, patch.centers, m, T, dt,
                            np.random.default_rng(flow_ss))
    xi = np.random.default_rng(field_ss).standard_normal(
        (m,) + basis.scale_box.shape)
    field = basis.field_at_points(xi * basis.scale_box, res.w) @ patch.weights
    reference = field + build_u(model).value(res.w) @ patch.weights
    assert samples.tobytes() == reference.tobytes()
    assert flagged == 0


def test_coupling_chunk_memory_is_bounded_by_the_block():
    # the sine tables are held one block at a time: about 26 MB here, where
    # every sample's tables at once would take 177 MB
    dom = RectDomain()
    model = _family_model("chordal", 4.0, 0.0)
    job = (np.random.SeedSequence(3), 500, 0.05, 1e-3, model, eigen_basis(dom),
           patch_from_testfn(dom, Bump(1.5j, 0.3)), build_u(model))
    tracemalloc.start()
    try:
        _coupling_chunk(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak
