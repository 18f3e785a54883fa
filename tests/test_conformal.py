"""Conformal primitives: Green's function, barycentrics, triangle map."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitflow.conformal import (
    ANGLE_MIN,
    _SC_QUAD_ORDER,
    ScMap,
    _gauss_jacobi,
    barycentric,
    green_half_plane_grid,
    sc_map_build,
)
from slitflow.errors import InputError, NumericalError


def test_green_value():
    # G(i, 2i) = log 3 - log 1
    assert green_half_plane_grid(1j, 2j) == pytest.approx(math.log(3.0))


def test_green_grid_matches_scalar():
    z1 = np.array([1j, 0.5 + 0.7j])
    z2 = np.array([2j, -0.3 + 1.1j])
    grid = green_half_plane_grid(z1, z2)
    for k in range(2):
        a, b = complex(z1[k]), complex(z2[k])
        scalar = math.log(abs(a - b.conjugate())) - math.log(abs(a - b))
        assert grid[k] == pytest.approx(scalar)


def test_barycentric_identity_at_vertices_and_center():
    tri = (0.0, 1.0, 0.5 + 0.5j * math.sqrt(3))
    assert barycentric(tri[0], tri) == pytest.approx((1.0, 0.0, 0.0))
    assert barycentric(sum(tri) / 3.0, tri) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(NumericalError, match="outside triangle"):
        barycentric(-1.0 - 1.0j, tri)
    # barycentrics do not grow with the triangle, so neither does the slack:
    # 1e-6 outside the long edge of a needle with |C| = 1e6 is outside
    with pytest.raises(NumericalError, match="outside triangle"):
        barycentric(-1e-6 + 5e5j, (0.0, 1.0, 1e6j))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
)
def test_barycentric_reconstructs_point(a, b):
    if a + b > 1.0:
        return
    tri = (0.0, 2.0, 1.0j)
    c = 1.0 - a - b
    p = a * tri[0] + b * tri[1] + c * tri[2]
    got = barycentric(p, tri)
    assert got == pytest.approx((a, b, c), abs=1e-9)


@pytest.mark.parametrize("kappa,alpha", [(6.0, 0.0), (6.0, 0.3), (8.0, 0.2),
                                         (5.0, -0.7), (12.0, 0.9)])
def test_sc_map_angles_and_vertices(kappa, alpha):
    sm = sc_map_build(kappa, alpha)
    A, B, C = sm.vertices
    # the angle at each lgamma vertex is pi (1 + the exponent of h' there)
    for p, q, r, e in ((A, B, C, sm.exp_one), (B, C, A, sm.exp_inf),
                       (C, A, B, sm.exp_zero)):
        assert abs(abs(cmath.phase((q - p) / (r - p))) - math.pi * (1.0 + e)) < 1e-12
    # the chart map reaches the labelled vertices
    assert sm.h(1.0) == pytest.approx(A, abs=1e-10)
    assert sm(60.0 + 1.5j) == pytest.approx(B, abs=1e-9)
    assert sm(-60.0 + 1.5j) == pytest.approx(C, abs=1e-9)


def test_sc_map_at_vertex_a_is_warning_free():
    # h(1) is vertex A; the chart there takes log 0 = -inf on purpose
    sm = sc_map_build(6.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sm.h(1.0) == sm.vertices[0]


@pytest.mark.parametrize("kappa,alpha", [(6.0, 0.0), (6.0, 0.3), (8.0, 0.2)])
def test_sc_chart_patches_agree(kappa, alpha):
    sm = sc_map_build(kappa, alpha)
    # points near patch boundaries evaluated through different vertex charts
    for z in (0.6 + 0.6j, 1.8 + 1.2j, 3.9 + 0.2j, 4.1 + 0.2j, 0.2 + 0.1j):
        v1 = sm._h_from_one(complex(z)) if abs(z - 1) <= abs(z) else None
        direct = sm.h(z)
        fd = 1e-5
        # derivative consistency: (h(z+fd)-h(z-fd))/2fd ~ h'(z)
        num = (sm.h(z + fd) - sm.h(z - fd)) / (2 * fd)
        assert num == pytest.approx(sm.h_prime(complex(z)), rel=5e-6)
        if v1 is not None:
            assert v1 == pytest.approx(direct, abs=1e-10)


def test_sc_prime_log_deriv_partial_fractions():
    sm = sc_map_build(6.0, 0.3)
    z = 0.8 + 1.3j
    got = sm.h_prime_log_deriv(z)
    assert got == pytest.approx(sm.exp_zero / z + sm.exp_one / (z - 1.0))


def test_exit_probabilities_sum_to_one_and_degenerate_limits():
    sm = sc_map_build(6.0, 0.0)
    p = sm.exit_probabilities(0.4 + 1.1j)
    assert sum(p) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0 for v in p)
    # symmetric configuration: right/left escape equally likely
    p_sym = sm.exit_probabilities(1j * math.pi / 2)
    assert p_sym[1] == pytest.approx(p_sym[2], abs=1e-9)
    # far to the right the right-escape probability dominates
    p_right = sm.exit_probabilities(20.0 + 1.5j)
    assert p_right[1] > 0.99


def _angle_edges(theta):
    """(kappa, alpha) whose smallest triangle angle is theta pi, one pair per
    way the triangle degenerates: kappa -> 4+, kappa -> inf, alpha -> -1 and
    alpha -> +1."""
    return [(4.0 / (1.0 - theta), 0.0), (2.0 / theta, 0.0),
            (6.0, -(1.0 - 3.0 * theta)), (6.0, 1.0 - 3.0 * theta)]


def test_sc_map_rejects_bad_parameters():
    with pytest.raises(InputError, match="kappa must exceed 4"):
        ScMap(4.0, 0.0)
    # one rule refuses |alpha| >= 1, an angle exponent that float64 rounds
    # to -1 and every angle below ANGLE_MIN pi
    for kappa, alpha in ((6.0, 1.0), (6.0, -1.0), (6.0, math.nan),
                         (5e16, 0.0), (6.0, 0.9999999999999999),
                         (6.0, -0.9999999999999999), (math.inf, 0.0),
                         (math.nan, 0.0)):
        with pytest.raises(InputError, match="smallest triangle angle"):
            ScMap(kappa, alpha)
    # on each side of the rule's edge, in each way the triangle degenerates
    for (kappa, alpha), (kappa_out, alpha_out) in zip(
            _angle_edges(1.01 * ANGLE_MIN), _angle_edges(0.99 * ANGLE_MIN)):
        ScMap(kappa, alpha)
        with pytest.raises(InputError, match="below ANGLE_MIN"):
            ScMap(kappa_out, alpha_out)
    sm = sc_map_build(6.0, 0.0)
    with pytest.raises(InputError, match="not in the closed strip"):
        sm(1.0 + 4.0j)


def test_exit_probabilities_one_ulp_inside_the_domain():
    # one ulp above -1 the Gauss-Jacobi rule's first entry was 0/0, since
    # s = 2 + e rounds to 1; the map refuses such exponents now, and the
    # exact (1 + e)(3 + e) keeps the rule free of cancellation at small angles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes, weights = _gauss_jacobi(_SC_QUAD_ORDER, math.nextafter(-1.0, 0.0))
    assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))


def test_sc_map_rejects_nan_real_part_without_warning():
    # a NaN real part is no point of the strip; infinite ones still map to
    # the vertex they approach
    sm = sc_map_build(6.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (complex(math.nan, 1.0),
                  np.array([0.5 + 1.0j, complex(math.nan, 1.0), 2.0j])):
            with pytest.raises(InputError, match="not in the closed strip"):
                sm.exit_probabilities(z)
        np.testing.assert_array_equal(
            sm.exit_probabilities(np.array([complex(math.inf, 1.0),
                                            complex(-math.inf, 2.0)])),
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_strip_chart_consistent_with_half_plane_chart():
    sm = sc_map_build(8.0, 0.2)
    z = 0.4 + 1.0j
    assert sm(z) == pytest.approx(sm.h(cmath.exp(z)), abs=1e-12)


@pytest.mark.parametrize("kappa,alpha", [(6.0, 0.0), (6.0, 0.3), (8.0, 0.2)])
def test_batched_exit_probabilities_match_pointwise(kappa, alpha):
    sm = sc_map_build(kappa, alpha)
    z = np.array([
        0.5 + 0.3j, 1.0 + 1.5j,           # chart at h = 1: Re e^z >= 1/2
        2.0 + 1.0j, 5.0 + 3.1j,           # chart at infinity: |e^z| >= 4
        -1.0 + 2.5j, 0.2 + 3.0j,          # chart at h = 0
        1e-5 + 1e-5j, 3e-5j,              # vertex A (swallowed)
        30.0 + 1.0j, 20.5 + 0.01j,        # vertex B (right)
        -30.0 + 2.0j, -20.5 + 3.1j,       # vertex C (left)
        60.0 + 1.5j, -55.0 + 0.5j,        # beyond the |Re z| = 50 clamp
    ])
    batch = sm.exit_probabilities(z)
    assert batch.shape == (z.size, 3)
    pointwise = np.array([sm.exit_probabilities(complex(p)) for p in z])
    np.testing.assert_array_equal(batch, pointwise)
    assert np.abs(batch.sum(axis=1) - 1.0).max() < 1e-12
    rebuilt = batch @ np.array(sm.vertices)
    assert np.abs(rebuilt - sm(z)).max() < 1e-12
    # each vertex neighbourhood concentrates on its own exit
    assert batch[6:8, 0].min() > 0.95
    assert batch[8:10, 1].min() > 0.95 and batch[10:12, 2].min() > 0.95
    np.testing.assert_array_equal(batch[12:], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_strip_error_names_the_count_and_first_bad_point():
    # the message stays short for a large batch instead of echoing it
    sm = sc_map_build(6.0, 0.0)
    z = np.linspace(-3.0, 3.0, 1000) + 1.0j
    z[617] = 0.25 + 4.0j
    with pytest.raises(InputError, match="not in the closed strip") as err:
        sm.exit_probabilities(z)
    msg = str(err.value)
    assert len(msg) < 200
    assert msg.startswith("1 point(s)") and "(0.25+4j)" in msg


def test_batched_oracle_raises_for_the_batch():
    sm = sc_map_build(6.0, 0.0)
    with pytest.raises(InputError, match="not in the closed strip"):
        sm.exit_probabilities(np.array([1j, 0.5 + 4.0j]))
    with pytest.raises(InputError, match="h is defined on the closed upper"):
        sm.h(np.array([1j, 1.0 - 0.5j]))
    with pytest.raises(NumericalError, match="outside triangle"):
        barycentric(np.array([0.5 * sm.vertices[2], -1.0 - 1.0j]), sm.vertices)


@pytest.mark.parametrize("kappa,alpha", [(6.0, 0.0), (6.0, 0.3), (8.0, 0.2)])
def test_golub_welsch_rule_matches_scipy_and_exact_moments(kappa, alpha):
    # the numpy rule against scipy's, for the three vertex exponents of each
    # criterion-8 map, and both against the exact moments
    # int_{-1}^{1} (1+x)^e ((1+x)/2)^j dx = 2^(e+1) / (e+j+1), j < 96
    from scipy.special import roots_jacobi

    sm = sc_map_build(kappa, alpha)
    j = np.arange(2 * _SC_QUAD_ORDER)
    for e in (sm.exp_one, sm.exp_zero, sm.exp_inf):
        nodes, weights = _gauss_jacobi(_SC_QUAD_ORDER, e)
        ref_nodes, ref_weights = roots_jacobi(_SC_QUAD_ORDER, 0.0, e)
        assert np.abs(nodes - ref_nodes).max() < 1e-14, e
        assert (np.abs(weights - ref_weights) / ref_weights).max() < 1e-10, e
        moments = weights @ ((1.0 + nodes[:, None]) / 2.0) ** j
        exact = 2.0 ** (e + 1.0) / (e + j + 1.0)
        assert (np.abs(moments - exact) / exact).max() < 1e-13, e


@pytest.mark.parametrize("kappa,alpha", [(6.0, 0.0), (6.0, 0.3), (8.0, 0.2)])
def test_vertex_c_matches_the_betaln_route(kappa, alpha):
    from scipy.special import betaln

    sm = sc_map_build(kappa, alpha)
    b_raw = math.exp(betaln(sm.exp_inf + 1.0, sm.exp_one + 1.0))
    c_mod = math.exp(betaln(sm.exp_zero + 1.0, sm.exp_one + 1.0))
    c_ref = -c_mod * cmath.exp(1j * math.pi * sm.exp_one) / b_raw
    assert abs(sm.vertices[2] - c_ref) < 1e-14


CARDY_MAPS = ((6.0, 0.0), (6.0, 0.3), (8.0, 0.2))
# criterion 8's points and cardy-zhan's default, in the strip
CARDY_POINTS = (0.5 + 0.8j, -0.3 + 1.5708j, 1.0 + 2.2j, 1.5708j)


@pytest.mark.parametrize("kappa,alpha", CARDY_MAPS)
def test_gauss_jacobi_charts_differentiate_to_the_closed_form(kappa, alpha):
    # a 4th-order difference of the charts' h against the closed-form h' at
    # sc-residual's points, criterion 8's points (as e^z) and one point per
    # chart (at 1, at 0, at infinity)
    sm = sc_map_build(kappa, alpha)
    points = [0.5 + 0.5j, 2j, *(cmath.exp(z) for z in CARDY_POINTS[:3]),
              1.5 + 1.5j, -0.5 + 1.0j, 5.0 + 2.0j]
    for w in points:
        step = 3e-3 * max(1.0, abs(w))
        fd = (-sm.h(w + 2 * step) + 8 * sm.h(w + step) - 8 * sm.h(w - step)
              + sm.h(w - 2 * step)) / (12 * step)
        assert abs(fd / sm.h_prime(w) - 1.0) < 1e-9, w


def _mpmath_exit_probabilities(kappa, alpha, z):
    """Barycentrics of h(e^z) in the triangle (0, B, C), at 60 digits, with h
    from Gauss's hypergeometric function and the vertices from Euler's beta."""
    import mpmath as mp

    with mp.workdps(60):
        k, al = mp.mpf(kappa), mp.mpf(alpha)
        th1, th0, th_inf = (k - 4) / k, 2 * (1 + al) / k, 2 * (1 - al) / k
        w = mp.exp(mp.mpc(z))
        h = (w - 1) ** th1 / th1 * mp.hyp2f1(1 - th0, th1, th1 + 1, 1 - w)
        B = mp.beta(th_inf, th1)
        C = -mp.exp(1j * mp.pi * (th1 - 1)) * mp.beta(th0, th1)
        det = B.real * C.imag - B.imag * C.real
        b = (h.real * C.imag - h.imag * C.real) / det
        c = (B.real * h.imag - B.imag * h.real) / det
        return np.array([float(1 - b - c), float(b), float(c)])


@pytest.mark.parametrize("kappa,alpha,tol", [
    *((k, a, 1e-14) for k, a in CARDY_MAPS),
    *((k, a, 2e-8) for k, a in _angle_edges(1.01 * ANGLE_MIN)),
])
def test_exit_probabilities_match_the_hypergeometric_reference(kappa, alpha, tol):
    # the oracle's error is round-off on criterion 8's maps and about 1e-8
    # at the admissibility rule's edge
    sm = sc_map_build(kappa, alpha)
    for z in CARDY_POINTS:
        err = np.abs(sm.exit_probabilities(z) - _mpmath_exit_probabilities(
            kappa, alpha, z)).max()
        assert err < tol, (z, err)
