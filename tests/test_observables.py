"""One-point functions, vertex observables, and the stochastic checks."""

import cmath
import math

import numpy as np
import pytest

from slitflow.classify import CftParams, build_u, enumerate_families
from slitflow.errors import (
    BranchPointError,
    NeutralityError,
    ParameterRangeError,
)
from slitflow.flow import chordal_loewner, zero_driving
from slitflow.gff import RectDomain, TestFn, patch_from_testfn
from slitflow.observables import (
    ChargeVector,
    cardy_zhan,
    chordal_vertex_log,
    dipolar_vertex_log,
    phi_hat_one_point,
    qv_check,
    run_coupling,
    vertex_correlation,
)


# -- one-point functions -------------------------------------------------------


def test_phi_hat_chordal_values():
    a = CftParams(4.0).a
    assert phi_hat_one_point("chordal", 4.0, 0.0, 1j) == pytest.approx(
        2.0 * a * math.pi / 2.0
    )
    assert phi_hat_one_point("chordal", 4.0, 0.7, 2j) == pytest.approx(
        2.0 * a * math.pi / 2.0 + 0.7 * a * 2.0
    )


def test_phi_hat_marked_converges_to_chordal():
    z = 0.8 + 1.3j
    chordal = phi_hat_one_point("chordal", 3.0, 0.5, z)
    marked = phi_hat_one_point("marked", 3.0, 0.5, z, q=1e6)
    assert marked == pytest.approx(chordal, abs=1e-4)


def test_phi_hat_dipolar_is_odd_in_re_z_at_zero_drift():
    z = 0.4 + 0.9j
    up = phi_hat_one_point("dipolar", 6.0, 0.0, z)
    down = phi_hat_one_point("dipolar", 6.0, 0.0, complex(-z.real, z.imag))
    two_a = 2.0 * CftParams(6.0).a
    # reflection swaps the marked points; 2a arg z picks up the asymmetry
    assert up + down == pytest.approx(two_a * math.pi)


def test_phi_hat_branch_points_raise():
    with pytest.raises(BranchPointError):
        phi_hat_one_point("chordal", 4.0, 0.0, 0.0)
    with pytest.raises(BranchPointError):
        phi_hat_one_point("dipolar", 4.0, 0.0, 1.0)
    with pytest.raises(ParameterRangeError):
        phi_hat_one_point("nope", 4.0, 0.0, 1j)


# -- vertex data ----------------------------------------------------------------


def test_charge_vector_neutrality_enforced():
    with pytest.raises(NeutralityError):
        ChargeVector(1.0, 0.0, 0.0, 0.5)
    ChargeVector(1.0, -1.0, 0.5, -0.5)  # neutral: fine


def test_charge_exponents_plain():
    cft = CftParams(4.0)
    cv = ChargeVector(0.5, -0.5, 0.25, -0.25)
    e = cv.exponents(cft)
    bb = cft.bb
    assert e["lam"] == pytest.approx(0.125 - 0.5 * bb)
    assert e["tau_tau_star"] == pytest.approx(-0.25)
    assert e["nu_plus"] == pytest.approx(0.5 * (bb - 0.25))
    assert e["pow_w"] == 0.0


def test_charge_exponents_inserted_reduce_at_zero_charge():
    cft = CftParams(4.0)
    cv = ChargeVector(0.3, -0.3, 0.0, 0.0, delta=0.0)
    plain = cv.exponents(cft, inserted=False)
    ins = cv.exponents(cft, inserted=True)
    # with tau_± = 0 the source-insertion shift only affects nu and pow_w
    assert ins["lam"] == plain["lam"]
    assert ins["nu_plus"] - plain["nu_plus"] == pytest.approx(-0.5 * cft.a * 0.3)
    assert ins["pow_w"] == pytest.approx(0.3 * cft.a)


def test_vertex_correlation_branch_points():
    cv = ChargeVector(0.5, -0.5, 0.0, 0.0)
    with pytest.raises(BranchPointError):
        vertex_correlation(cv, 4.0, 1.0)
    with pytest.raises(BranchPointError):
        vertex_correlation(cv, 4.0, 0.0, variant="inserted")
    with pytest.raises(ParameterRangeError):
        vertex_correlation(cv, 4.0, 1j, variant="weird")


def test_vertex_correlation_reflection_symmetry():
    # reflecting the node across the imaginary axis while swapping both the
    # bulk charge pair and the two boundary charges permutes the product
    # factors without changing any of them, so the value is preserved
    cv = ChargeVector(0.5, -0.5, 0.25, -0.25)
    refl = ChargeVector(-0.5, 0.5, -0.25, 0.25)
    z = 0.7 + 1.9j
    val = vertex_correlation(cv, 4.0, z)
    val_refl = vertex_correlation(refl, 4.0, -z.conjugate())
    assert val_refl == pytest.approx(val, rel=1e-12)


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


def test_drift_modified_coupling_law():
    # the drift-modified coupling: with alpha != 0 the pairing's mean shifts
    # by alpha a (Im z, p); gates at 5 se, the alpha = 0 mean must be ruled out
    res = run_coupling(n_samples=1000, T=0.1, dt=1e-3, seed=1, alpha=1.0)
    se_var = res.var_target * math.sqrt(2.0 / (res.n - 1))
    assert abs(res.mean - res.mean_target) < 5.0 * res.se
    assert abs(res.variance - res.var_target) < 5.0 * se_var
    assert res.flagged == 0
    patch = patch_from_testfn(RectDomain(), TestFn(1.5j, 0.3))
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
