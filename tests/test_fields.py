"""Laurent vector fields, Lie derivatives and the Green closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitflow.conformal import green_half_plane_grid as green
from slitflow.errors import InputError
from slitflow.fields import (
    HADAMARD_TOL,
    FieldCoeffs,
    eval_field,
    eval_field_prime,
    hadamard_residual,
    lie_derivative,
    lie_green_closed,
)

RNG = np.random.default_rng(12345)


def random_half_plane_points(n, rng=RNG, lo=0.2, span=2.5):
    return rng.uniform(-span, span, n) + 1j * rng.uniform(lo, lo + span, n)


def test_field_evaluation_matches_polynomial():
    b = FieldCoeffs("b", 0.3, -0.7, 0.2)
    s = FieldCoeffs("sigma", 0.5, -0.1)
    z = 0.4 + 1.1j
    assert eval_field(b, z) == pytest.approx(-(2.0 / z + 0.3 - 0.7 * z + 0.2 * z * z))
    assert eval_field(s, z) == pytest.approx(-(1.0 + 0.5 * z - 0.1 * z * z))
    assert eval_field_prime(b, z) == pytest.approx(-(-2.0 / z ** 2 - 0.7 + 0.4 * z))
    assert eval_field_prime(s, z) == pytest.approx(-(0.5 - 0.2 * z))
    assert b.second(z) == pytest.approx(-(4.0 / z ** 3 + 0.4))
    assert s.second(z) == pytest.approx(0.2)


def test_eval_field_prime_by_finite_differences():
    b = FieldCoeffs("b", -1.0, 0.25, 0.03)
    z = -0.8 + 0.9j
    h = 1e-6
    fd = (eval_field(b, z + h) - eval_field(b, z - h)) / (2 * h)
    assert eval_field_prime(b, z) == pytest.approx(fd, rel=1e-8)


def test_lie_green_sigma_vanishes_on_random_pairs():
    pts = random_half_plane_points(200)
    s = FieldCoeffs("sigma", 0.37, -0.21)
    assert hadamard_residual(s, pts[::2], pts[1::2]).max() < HADAMARD_TOL["sigma"]


def test_lie_green_b_closed_form_on_random_pairs():
    pts = random_half_plane_points(200)
    b = FieldCoeffs("b", 0.12, -0.4, 0.21)
    res = hadamard_residual(b, pts[::2], pts[1::2])
    for z1, z2, r in zip(pts[::2], pts[1::2], res):
        expect = 4.0 * (1.0 / z1).imag * (1.0 / z2).imag
        lie = lie_green_closed(b, z1, z2)
        assert lie == pytest.approx(expect, abs=HADAMARD_TOL["b"])
        assert r == pytest.approx(abs(lie - expect), abs=1e-15)


def test_lie_green_coincident_rejected():
    with pytest.raises(InputError, match="coincident points"):
        lie_green_closed(FieldCoeffs("b", 0, 0, 0), 1j, 1j)


def test_lie_green_coincidence_error_names_one_pair():
    # a long array with one coincident pair: the message names that pair,
    # not both whole arrays
    z1 = np.linspace(-2.0, 2.0, 1000) + 1j
    z2 = z1 + 0.5j
    z2[437] = z1[437]
    with pytest.raises(InputError, match="coincident points") as info:
        lie_green_closed(FieldCoeffs("sigma", 0.3, -0.2), z1, z2)
    msg = str(info.value)
    assert len(msg) < 200 and "flat index 437" in msg and str(z1[437]) in msg


def test_full_b_field_matches_finite_difference_lie():
    b = FieldCoeffs("b", 0.12, -0.4, 0.21)
    z1, z2 = 0.9 + 0.8j, -0.4 + 1.6j
    fd = lie_derivative(b, green, (z1, z2))
    assert complex(fd).real == pytest.approx(
        lie_green_closed(b, z1, z2), abs=1e-6
    )


real_small = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    x1=real_small, x2=real_small,
    y1=st.floats(0.2, 3.0), y2=st.floats(0.2, 3.0),
)
def test_green_symmetric_and_positive(x1, y1, x2, y2):
    z1, z2 = complex(x1, y1), complex(x2, y2)
    if abs(z1 - z2) < 1e-3:
        return
    g12 = green(z1, z2)
    assert g12 == pytest.approx(green(z2, z1), rel=1e-12, abs=1e-12)
    assert g12 > 0.0


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.2, 5.0), x=real_small,
    y1=st.floats(0.3, 2.0), y2=st.floats(0.3, 2.0),
)
def test_green_mobius_invariant(s, x, y1, y2):
    z1, z2 = 0.4 + 1j * y1, -0.9 + 1j * y2
    # z -> s z + x is an automorphism of the half-plane for s > 0
    g = green(z1, z2)
    assert green(s * z1 + x, s * z2 + x) == pytest.approx(g, rel=1e-10)

