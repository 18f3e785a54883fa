"""Family classification, exact coefficients, and generator annihilation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitflow import classify
from slitflow.classify import (
    IDENTITY_TOL,
    build_u,
    check_annihilation,
    check_bsigma,
    enumerate_families,
    roundtrip_residual,
    solve_system,
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
        res = roundtrip_residual(spec, Fraction(1, 3), Fraction(2, 9))
        assert isinstance(res, Fraction) and res == 0, spec.name


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
    for name in ("hyperbolic-beta(+)", "hyperbolic-beta(-)"):
        with pytest.raises(InputError,
                           match="hyperbolic-beta degenerates at kappa = 8"):
            fams[name].coefficients(None, Fraction(1, 2))


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
        resid = roundtrip_residual(spec, 0.3, 0.5)
        assert isinstance(resid, Fraction) and resid == 0, spec.name


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
        res = check_annihilation(spec, 0.3, 0.2 * math.sqrt(kappa), SAMPLE_POINTS)
        assert res < IDENTITY_TOL, (spec.name, res)


@pytest.mark.parametrize("kappa", [3.0, 4.0, 6.0])
def test_bsigma_consistency(kappa):
    for spec in enumerate_families(kappa):
        res = check_bsigma(spec, 0.3, 0.2 * math.sqrt(kappa), SAMPLE_POINTS)
        assert res < IDENTITY_TOL, (spec.name, res)


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(-300, 300).map(lambda e: 10.0 ** e),
    alpha=st.floats(allow_nan=False, allow_infinity=False),
    B=st.floats(allow_nan=False, allow_infinity=False),
)
def test_identity_checks_read_exactly_zero_at_any_kappa(kappa, alpha, B):
    # both residual numerators cancel in Fractions before any float is read,
    # so a right family reads 0.0, not round-off of size kappa^(3/2) eps
    for spec in enumerate_families(kappa):
        try:
            spec.coefficients(alpha, B)
        except InputError:
            continue
        assert check_annihilation(spec, alpha, B, SAMPLE_POINTS) == 0.0, spec.name
        assert check_bsigma(spec, alpha, B, SAMPLE_POINTS) == 0.0, spec.name


def _float_residuals(spec, alpha, z):
    """The float-arithmetic annihilation and b-sigma residuals that the
    identity checks computed before they went exact: u's completion F from
    its residues, and every field evaluated in floats at the samples."""
    m = spec.instantiate(alpha, None)
    B = float(spec.coefficients(alpha, None)[2])
    k, a, bb, b, s = m.kappa, m.a, m.bb, m.b, m.sigma
    u = build_u(m)
    f1 = sum(c / (z - rho) for rho, c in u.log_terms) + u.lin_coef
    f2 = sum(-c / (z - rho) ** 2 for rho, c in u.log_terms)
    bz = -(2 / z + b.c1 + b.c2 * z + b.c3 * z * z)
    bp = 2 / (z * z) - b.c2 - 2 * b.c3 * z
    sz, sp, spp = -(1 + s.c1 * z + s.c2 * z * z), -s.c1 - 2 * s.c2 * z, -2 * s.c2
    lie_b = np.imag(bz * f1 + u.mu * bp)
    ann = -lie_b + 0.5 * k * np.imag(sz * (sp * f1 + sz * f2 + u.mu * spp))
    num = -k * sz * sz - B * z * z * sz - (k / 2 - 2) * z * z * (bp * sz - bz * sp)
    bsig = bz - num / (z * (m.alpha * z + 2))
    return np.max(np.abs(ann)), np.max(np.abs(bsig))


def test_identity_checks_still_see_a_wrong_family(monkeypatch):
    # dipolar-drift with b_0 moved off its rule by 1e-12: both exact checks
    # read the size of residual that float arithmetic reads, which carries
    # round-off near 1e-16 (B = alpha^2 - 1 is rounded, as are a and bb) and
    # so matches to ~1e-4; the first variation in b_0 matches tightly.
    # Moving b_0 by d moves b by -d z, so the annihilation residual is
    # d |Im z F'| and the b-sigma one d |z + (kappa/2 - 2) z (sigma - z
    # sigma')/(alpha z + 2)|
    d = Fraction(1, 10 ** 12)
    monkeypatch.setitem(classify.FAMILIES, "dipolar-drift", (
        Fraction(-1, 4), "alpha",
        lambda k, a: ((-a, Fraction(-1, 2) + d, a / 4), a, a * a - 1)))
    kappa, z, al = 6.0, SAMPLE_POINTS, 0.3
    spec = _families(kappa)["dipolar-drift"]
    ann = check_annihilation(spec, al, None, z)
    bsig = check_bsigma(spec, al, None, z)
    assert ann > 0 and bsig > 0
    ref_ann, ref_bsig = _float_residuals(spec, al, z)
    assert ann == pytest.approx(ref_ann, rel=1e-3)
    assert bsig == pytest.approx(ref_bsig, rel=1e-3)
    u = build_u(spec.instantiate(al, None))
    zf1 = sum(c * z / (z - rho) for rho, c in u.log_terms)
    sz, sp = -(1 - z * z / 4), z / 2
    assert ann == pytest.approx(float(d) * np.max(np.abs(np.imag(zf1))), rel=1e-9)
    first_bsig = z + (kappa / 2 - 2) * z * (sz - z * sp) / (al * z + 2)
    assert bsig == pytest.approx(float(d) * np.max(np.abs(first_bsig)), rel=1e-9)


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
        assert roundtrip_residual(spec, al, None) == 0, spec.name


def test_u_value_matches_closed_form_chordal():
    spec = _families(4.0)["chordal-drift"]
    model = spec.instantiate(0.0, None)
    u = build_u(model)
    z = 1j
    assert u.value(z) == pytest.approx(2.0 * model.a * np.pi / 2.0)


@pytest.mark.parametrize("kappa", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("p", [0.3, -1.0])
def test_build_u_residues_match_their_closed_forms(kappa, p):
    # sigma = -(1 + s1 z^2) has zeros -+2 (s1 = -1/4) or +-2i (s1 = 1/4); the
    # residues of -a (2 + alpha z)/(z sigma) + 2 bb sigma'/sigma are a times
    # 2 at 0 and a times kappa/2 - 3 - alpha rho/2 at each zero, and a residue
    # that is exactly 0 is left out.  An alpha-family reads p as alpha, a
    # beta-family as B
    for spec in enumerate_families(kappa):
        m = spec.instantiate(p, p)
        a, bb, al, s1 = m.a, m.bb, m.alpha, m.sigma.c2
        zeros = (-2 + 0j, 2 + 0j) if s1 < 0 else (2j, -2j) if s1 > 0 else ()
        k, x = Fraction(kappa), Fraction(al)
        kept = {rho for rho in zeros
                if k / 2 - 3 - x * Fraction(rho.real) / 2 or x * Fraction(rho.imag)}
        u = build_u(m)
        got = dict(u.log_terms)
        assert got.keys() == {0j} | kept, spec.name
        assert got[0j] == 2 * a
        for rho in kept:
            assert got[rho] == pytest.approx(-a * (2 + al * rho) / 2 + 2 * bb,
                                             rel=1e-12, abs=1e-15), (spec.name, rho)
            if s1 > 0:  # radial6-drift, kappa = 6: 2 bb - a is 0 exactly
                assert got[rho].real == 0.0 and got[rho].imag == -a * al * rho.imag / 2
        if spec.name == "dipolar-drift" and kappa == 6:
            assert got[2 + 0j] == -got[-2 + 0j]  # a (-+alpha), with no round-off
        c2 = 2 * bb - a - a * al if s1 < 0 else 0.0
        assert u.const == pytest.approx(-math.pi * c2, rel=1e-12, abs=1e-14)
        assert u.lin_coef == (al * a if s1 == 0 else 0.0)
        assert u.mu == -2 * bb


@pytest.mark.parametrize("check", [check_annihilation, check_bsigma])
@pytest.mark.parametrize("z", [1.0 + 0j, 0.5 - 0.2j, complex(math.nan, 1.0)])
def test_identity_checks_refuse_samples_off_the_upper_half_plane(check, z):
    spec = _families(4.0)["chordal-drift"]
    with pytest.raises(InputError, match="not in the open upper half-plane"):
        check(spec, 0.3, None, [1j, z])
