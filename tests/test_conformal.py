"""Conformal primitives: Green's function, barycentrics, triangle map."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitflow.conformal import (
    ScMap,
    TriangleSpec,
    barycentric,
    green_half_plane,
    green_half_plane_grid,
    sc_map_build,
)
from slitflow.errors import (
    CoincidentPointsError,
    DomainError,
    OutsideTriangleError,
    ParameterRangeError,
)


def test_green_value():
    # G(i, 2i) = log 3 - log 1
    assert green_half_plane(1j, 2j) == pytest.approx(math.log(3.0))


def test_green_domain_and_coincidence_errors():
    with pytest.raises(DomainError):
        green_half_plane(1j, 1.0 - 0.5j)
    with pytest.raises(CoincidentPointsError):
        green_half_plane(1j, 1j + 1e-16)


def test_green_grid_matches_scalar():
    z1 = np.array([1j, 0.5 + 0.7j])
    z2 = np.array([2j, -0.3 + 1.1j])
    grid = green_half_plane_grid(z1, z2)
    for k in range(2):
        assert grid[k] == pytest.approx(green_half_plane(z1[k], z2[k]))


def test_barycentric_identity_at_vertices_and_center():
    tri = TriangleSpec(
        math.pi / 3, math.pi / 3, math.pi / 3, 0.0, 1.0, 0.5 + 0.5j * math.sqrt(3)
    )
    assert barycentric(tri.vertex_a, tri) == pytest.approx((1.0, 0.0, 0.0))
    center = (tri.vertex_a + tri.vertex_b + tri.vertex_c) / 3.0
    assert barycentric(center, tri) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(OutsideTriangleError):
        barycentric(-1.0 - 1.0j, tri)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
)
def test_barycentric_reconstructs_point(a, b):
    if a + b > 1.0:
        return
    tri = TriangleSpec(
        math.pi / 2, math.pi / 4, math.pi / 4, 0.0, 2.0, 1.0j
    )
    c = 1.0 - a - b
    p = a * tri.vertex_a + b * tri.vertex_b + c * tri.vertex_c
    got = barycentric(p, tri)
    assert got == pytest.approx((a, b, c), abs=1e-9)


@pytest.mark.parametrize("kappa,alpha", [(6.0, 0.0), (6.0, 0.3), (8.0, 0.2)])
def test_sc_map_angles_and_vertices(kappa, alpha):
    sm = sc_map_build(kappa, alpha)
    tri = sm.triangle
    assert tri.angle_a + tri.angle_b + tri.angle_c == pytest.approx(math.pi)
    assert tri.angle_a == pytest.approx(math.pi * (1.0 - 4.0 / kappa))
    # the chart map reaches the labelled vertices
    assert sm.h(1.0) == pytest.approx(tri.vertex_a, abs=1e-10)
    assert sm(60.0 + 1.5j) == pytest.approx(tri.vertex_b, abs=1e-9)
    assert sm(-60.0 + 1.5j) == pytest.approx(tri.vertex_c, abs=1e-9)


def test_sc_map_at_vertex_a_is_warning_free():
    # h(1) is vertex A; the chart there takes log 0 = -inf on purpose
    sm = sc_map_build(6.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sm.h(1.0) == sm.triangle.vertex_a


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


def test_sc_map_rejects_bad_parameters():
    with pytest.raises(ParameterRangeError):
        ScMap(4.0, 0.0)
    with pytest.raises(ParameterRangeError):
        ScMap(6.0, 1.0)
    sm = sc_map_build(6.0, 0.0)
    with pytest.raises(DomainError):
        sm(1.0 + 4.0j)


def test_strip_chart_consistent_with_half_plane_chart():
    sm = sc_map_build(8.0, 0.2)
    z = 0.4 + 1.0j
    assert sm(z) == pytest.approx(sm.h(cmath.exp(z)), abs=1e-12)


@pytest.mark.parametrize("kappa,alpha", [(6.0, 0.0), (6.0, 0.3), (8.0, 0.2)])
def test_batched_exit_probabilities_match_pointwise(kappa, alpha):
    sm = sc_map_build(kappa, alpha)
    tri = sm.triangle
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
    rebuilt = batch @ np.array(tri.vertices)
    assert np.abs(rebuilt - sm(z)).max() < 1e-12
    # each vertex neighbourhood concentrates on its own exit
    assert batch[6:8, 0].min() > 0.95
    assert batch[8:10, 1].min() > 0.95 and batch[10:12, 2].min() > 0.95
    np.testing.assert_array_equal(batch[12:], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_batched_oracle_raises_for_the_batch():
    sm = sc_map_build(6.0, 0.0)
    with pytest.raises(DomainError):
        sm.exit_probabilities(np.array([1j, 0.5 + 4.0j]))
    with pytest.raises(DomainError):
        sm.h(np.array([1j, 1.0 - 0.5j]))
    tri = sm.triangle
    with pytest.raises(OutsideTriangleError):
        barycentric(np.array([0.5 * tri.vertex_c, -1.0 - 1.0j]), tri)
