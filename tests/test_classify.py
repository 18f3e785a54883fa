"""Family classification, exact coefficients, and generator annihilation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitflow.classify import (
    build_u,
    check_annihilation,
    check_bsigma,
    enumerate_families,
    solve_system,
    system_residuals,
)
from slitflow.errors import InputError

KAPPAS = [Fraction(2), Fraction(3), Fraction(4), Fraction(5), Fraction(6)]


def _families(kappa):
    return {f.name: f for f in enumerate_families(kappa)}


@pytest.mark.parametrize("kappa", KAPPAS)
def test_expected_families_present(kappa):
    names = set(_families(kappa))
    expected = {
        "chordal-drift", "parabolic-beta", "dipolar-drift",
        "hyperbolic-beta(+)", "hyperbolic-beta(-)",
    }
    if kappa == 6:
        expected.add("radial6-drift")
    assert names == expected


def test_radial_family_only_at_kappa_six():
    assert "radial6-drift" not in _families(Fraction(5))
    assert "radial6-drift" in _families(Fraction(6))


@pytest.mark.parametrize("kappa", KAPPAS)
def test_exact_coefficient_formulas(kappa):
    fams = _families(kappa)
    k = kappa
    al = Fraction(2, 7)
    b, a_out, B = fams["chordal-drift"].coefficients(al, None)
    assert (b.c1, b.c2, b.c3) == (-al, 0, 0) and B == al * al

    Bv = Fraction(3, 5)
    b, a_out, B = fams["parabolic-beta"].coefficients(None, Bv)
    assert (b.c1, b.c2, b.c3) == (0, 2 * Bv / (k - 8), 0)
    assert a_out == 0 and B == Bv

    b, a_out, B = fams["dipolar-drift"].coefficients(al, None)
    assert (b.c1, b.c2, b.c3) == (-al, Fraction(-1, 2), al / 4)
    assert B == al * al - 1

    for sign, nm in ((1, "hyperbolic-beta(+)"), (-1, "hyperbolic-beta(-)")):
        b, a_out, B = fams[nm].coefficients(None, Bv)
        assert a_out == sign * (k - 6) / 2
        assert b.c1 == -a_out
        assert b.c2 == Fraction(3 - k, 2) + 2 * Bv / (k - 8)
        assert b.c3 == -sign * Fraction(1, 8) * (k - 2 - 8 * Bv / (k - 8))

    if kappa == 6:
        b, a_out, B = fams["radial6-drift"].coefficients(al, None)
        assert (b.c1, b.c2, b.c3) == (-al, Fraction(1, 2), -al / 4)
        assert B == 1 + al * al


@pytest.mark.parametrize("kappa", KAPPAS)
def test_solve_system_roundtrip_exact(kappa):
    for spec in enumerate_families(kappa):
        b, alpha, B = spec.coefficients(Fraction(1, 3), Fraction(2, 9))
        res = solve_system(kappa, spec.sigma.c1, spec.sigma.c2, alpha, B=B)
        assert res.status in ("unique", "free")
        assert all(r == 0 for r in res.residuals)
        direct = system_residuals(kappa, spec.sigma.c1, spec.sigma.c2, alpha, B, b)
        assert all(r == 0 for r in direct)


@pytest.mark.parametrize("kappa", [-1.0, 0.0, math.nan, math.inf])
def test_enumerate_families_rejects_bad_kappa(kappa):
    # Fraction(inf) would raise OverflowError: the range check comes first
    with pytest.raises(InputError, match="kappa must be positive and finite"):
        enumerate_families(kappa)


def test_degenerate_kappa_eight_raises():
    fams = _families(Fraction(8))
    with pytest.raises(InputError,
                       match="parabolic-beta degenerates at kappa = 8"):
        fams["parabolic-beta"].coefficients(None, Fraction(1, 2))
    with pytest.raises(InputError,
                       match="hyperbolic-beta degenerates at kappa = 8"):
        fams["hyperbolic-beta(+)"].coefficients(None, Fraction(1, 2))


def test_kappa_six_free_families():
    # at kappa = 6, alpha = 0 the system leaves b_1 free: solve_system
    # reports it for parabolic-beta and both hyperbolic-beta families
    free = {"parabolic-beta", "hyperbolic-beta(+)", "hyperbolic-beta(-)"}
    kappa = Fraction(6)
    for spec in enumerate_families(kappa):
        b, alpha, B = spec.coefficients(Fraction(1, 3), Fraction(2, 9))
        res = solve_system(kappa, spec.sigma.c1, spec.sigma.c2, alpha, B=B)
        assert res.status == ("free" if spec.name in free else "unique"), spec.name


def test_float_kappa_near_six_solves_exactly():
    # a float enters as the binary fraction it stores: at kappa = 6 + 1e-12
    # the system is nonsingular for every family, and exact elimination
    # finds the family's own b with every residual exactly 0
    kappa = 6 + 1e-12
    for spec in enumerate_families(kappa):
        b, alpha, B = spec.coefficients(0.3, 0.5)
        res = solve_system(kappa, spec.sigma.c1, spec.sigma.c2, alpha, B=B)
        assert res.status == "unique", spec.name
        assert res.b.coeffs == b.coeffs, spec.name
        direct = system_residuals(
            spec.kappa, spec.sigma.c1, spec.sigma.c2, alpha, B, b
        )
        for r in (*res.residuals, *direct):
            assert isinstance(r, Fraction) and r == 0, spec.name


def test_cft_params_identities():
    # every model carries the CFT constants its kappa fixes
    for kappa in (2.0, 3.0, 4.0, 6.0, 8.0):
        for spec in enumerate_families(kappa):
            if kappa == 8.0 and "beta" in spec.name:
                continue
            m = spec.instantiate(0.3, 0.5)
            assert m.a == math.sqrt(2.0 / kappa)
            assert m.bb == math.sqrt(kappa / 8.0) - m.a
            assert 2 * m.bb == pytest.approx(m.a * (kappa - 4.0) / 2.0)


SAMPLE_POINTS = (
    np.random.default_rng(7).uniform(-2, 2, 100)
    + 1j * np.random.default_rng(8).uniform(0.2, 2.5, 100)
)


@pytest.mark.parametrize("kappa", [3.0, 4.0, 6.0])
def test_generator_annihilates_u(kappa):
    for spec in enumerate_families(kappa):
        model = spec.instantiate(0.3, 0.2 * math.sqrt(kappa))
        res = check_annihilation(model, build_u(model), SAMPLE_POINTS)
        assert res < 1e-8, (spec.name, res)


@pytest.mark.parametrize("kappa", [3.0, 4.0, 6.0])
def test_bsigma_consistency(kappa):
    for spec in enumerate_families(kappa):
        model = spec.instantiate(0.3, 0.2 * math.sqrt(kappa))
        res = check_bsigma(model, SAMPLE_POINTS)
        assert res < 1e-8, (spec.name, res)


@settings(max_examples=30, deadline=None)
@given(
    num=st.integers(-6, 6), den=st.integers(1, 6),
    knum=st.integers(1, 12),
)
def test_solve_system_roundtrips_random_exact_parameters(num, den, knum):
    kappa = Fraction(knum, 2)
    if kappa == 8:
        return
    al = Fraction(num, den)
    for spec in enumerate_families(kappa):
        if spec.parameter != "alpha":
            continue
        b, alpha, B = spec.coefficients(al, None)
        res = solve_system(kappa, spec.sigma.c1, spec.sigma.c2, alpha, B=B)
        assert res.status in ("unique", "free")
        direct = system_residuals(
            kappa, spec.sigma.c1, spec.sigma.c2, alpha, B, b
        )
        assert all(r == 0 for r in direct)


def test_u_value_matches_closed_form_chordal():
    spec = _families(4.0)["chordal-drift"]
    model = spec.instantiate(0.0, None)
    u = build_u(model)
    z = 1j
    assert u.value(z) == pytest.approx(2.0 * model.a * np.pi / 2.0)
