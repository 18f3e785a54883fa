"""Free-field sampler and energy quadratures, checked against the reference
Green evaluators in green_reference."""

import math

import numpy as np
import pytest

from slitflow.errors import InputError
from slitflow.gff import (
    EigenBasis,
    RectDomain,
    cell_log_avg,
    eigen_basis,
    energy_from_map,
    patch_from_testfn,
    sin_multiples,
)
from slitflow.gff import TestFn as Bump

from green_reference import HalfPlaneGreenEval, RectGreenEval, energy_product

DOM = RectDomain()
BASIS = eigen_basis(DOM)
BUMP = Bump(2j, 0.3)
PATCH = patch_from_testfn(DOM, BUMP)


def test_domain_validation():
    with pytest.raises(InputError, match="rectangle must be inside"):
        RectDomain(0.0, 1.0, -0.5, 1.0)
    with pytest.raises(InputError, match="mode cutoff exceeds mesh"):
        RectDomain(nx=4, ny=4, modes=64)


def test_patch_rejects_support_outside_rectangle():
    with pytest.raises(InputError, match="support leaves the rectangle"):
        patch_from_testfn(DOM, Bump(0.1j, 0.3))


def test_patch_rejects_support_holding_no_mesh_cell():
    # a bump this small around 1.5i falls between the mesh's cell centres
    with pytest.raises(InputError, match="support holds no mesh cell"):
        patch_from_testfn(DOM, Bump(1.5j, 0.01))


def test_patch_integral_matches_polar_quadrature():
    # integral of the radial bump: 2 pi r^2 int_0^1 s e^{1 - 1/(1-s^2)} ds
    s = np.linspace(0.0, 1.0, 20001)[:-1]
    integrand = s * np.exp(1.0 - 1.0 / (1.0 - s ** 2))
    exact = 2.0 * math.pi * BUMP.radius ** 2 * np.trapezoid(integrand, s)
    assert PATCH.weights.sum() == pytest.approx(exact, rel=3e-3)


def test_half_plane_green_closed_form():
    g = HalfPlaneGreenEval()
    assert g.pair(1j, 2j) == pytest.approx(math.log(3.0))
    assert g.diag(2j) == pytest.approx(math.log(4.0))


def test_rect_green_vanishes_on_boundary_and_matches_spectral():
    g = RectGreenEval(DOM)
    z2 = -1.0 + 3.0j
    for zb in (DOM.x0 + 2.0j, DOM.x1 + 2.0j, 3.0 + 0j, 3.0 + DOM.y1 * 1j):
        assert abs(g.pair(zb, z2)) < 1e-10
    # spectral representation of the same kernel: sum (2/lambda_k) e_k e_k
    # times the 2 pi log normalization; compare at separated interior points
    big = RectDomain(nx=256, ny=256, modes=256 * 256)
    basis = EigenBasis(big)
    z1 = -2.0 + 2.5j
    su1, sv1 = basis.sin_tables(np.array([z1]))
    su2, sv2 = basis.sin_tables(np.array([z2]))
    e1 = basis.norm * (su1[:, 0][:, None] * sv1[:, 0][None, :])
    e2 = basis.norm * (su2[:, 0][:, None] * sv2[:, 0][None, :])
    spectral = float(np.sum(np.where(basis.mask, 2 * math.pi / basis.lam_box, 0.0)
                            * e1 * e2))
    assert g.pair(z1, z2) == pytest.approx(spectral, abs=2e-4)


def test_cell_log_avg_matches_monte_carlo():
    hx = hy = 0.0625
    rng = np.random.default_rng(0)
    d = (rng.uniform(size=200_000) - rng.uniform(size=200_000)) * hx
    e = (rng.uniform(size=200_000) - rng.uniform(size=200_000)) * hy
    mc = float(np.mean(0.5 * np.log(d * d + e * e)))
    assert cell_log_avg(hx, hy) == pytest.approx(mc, abs=2e-3)


def _mpmath_cell_log_avg(hx, hy):
    """The mean of log|z1 - z2| over one cell as a 2-d integral at 20 digits:
    the coordinate differences have triangular densities on [0, h]."""
    import mpmath as mp

    with mp.workdps(20):
        a, b = mp.mpf(hx), mp.mpf(hy)
        return float(mp.quad(
            lambda x, y: 2 * (a - x) * (b - y) * mp.log(x * x + y * y),
            [0, a], [0, b]) / (a * a * b * b))


@pytest.mark.parametrize("hx, hy", [(DOM.hx, DOM.hy), (1.0, 0.01)])
def test_cell_log_avg_matches_the_mpmath_reference(hx, hy):
    assert abs(cell_log_avg(hx, hy) - _mpmath_cell_log_avg(hx, hy)) < 1e-14


def test_cell_log_avg_of_the_unit_square_is_the_closed_form():
    exact = math.log(2.0) / 3.0 + math.pi / 3.0 - 25.0 / 12.0
    assert abs(cell_log_avg(1.0, 1.0) - exact) < 1e-15


def test_energy_quadrature_matches_spectral():
    e_quad = energy_product(PATCH, PATCH, RectGreenEval(DOM))
    e_spec = BASIS.energy_spectral(PATCH.centers, PATCH.weights)
    assert abs(e_quad - e_spec) / e_quad < 0.01


def test_energy_half_plane_close_to_rectangle():
    # far from the side/top walls the two kernels agree to a few percent
    e_hp = energy_product(PATCH, PATCH, HalfPlaneGreenEval())
    e_rect = energy_product(PATCH, PATCH, RectGreenEval(DOM))
    assert abs(e_hp - e_rect) / e_rect < 0.05


def test_energy_cross_term_symmetry():
    q = patch_from_testfn(DOM, Bump(1.0 + 3j, 0.4))
    g = RectGreenEval(DOM)
    assert energy_product(PATCH, q, g) == pytest.approx(
        energy_product(q, PATCH, g), rel=1e-12
    )


def test_energy_from_map_identity_consistent_with_half_plane():
    e_map = energy_from_map(PATCH, PATCH.centers, np.zeros(PATCH.centers.size))
    e_hp = energy_product(PATCH, PATCH, HalfPlaneGreenEval(), refine=1)
    assert e_map == pytest.approx(e_hp, rel=1e-9)


def test_energy_from_map_scaling_invariance():
    # Dirichlet energy is invariant under conformal maps; for w = 2z the
    # pullback evaluation must reproduce the identity value
    c = 2.0
    e_id = energy_from_map(PATCH, PATCH.centers, np.zeros(PATCH.centers.size))
    e_sc = energy_from_map(
        PATCH, c * PATCH.centers, np.full(PATCH.centers.size, math.log(c))
    )
    assert e_sc == pytest.approx(e_id, rel=1e-9)


def _field_draws(n, seed):
    """Mode coefficients of n field samples, drawn as the coupling experiment does."""
    xi = np.random.default_rng(seed).standard_normal((n,) + BASIS.scale_box.shape)
    return xi * BASIS.scale_box


def test_pairing_variance_matches_spectral_energy():
    coeff = _field_draws(600, 0)
    vals = BASIS.field_at_points(coeff, PATCH.centers) @ PATCH.weights
    var = float(np.var(vals, ddof=1))
    target = BASIS.energy_spectral(PATCH.centers, PATCH.weights)
    se = target * math.sqrt(2.0 / (vals.size - 1))
    assert abs(var - target) < 4 * se
    assert abs(float(np.mean(vals))) < 4 * math.sqrt(target / vals.size)


def test_pullback_pair_identity_matches_direct_pairing():
    coeff = _field_draws(1, 12)[0]
    box = BASIS.testfn_coeff_box(PATCH.centers, PATCH.weights)
    direct = float(np.sum(coeff * box))
    via_map = BASIS.field_at_points(coeff, PATCH.centers) @ PATCH.weights
    # direct pairing projects the bump on the modes; evaluating the field at
    # the same cell centers is the same quadrature, so agreement is close
    assert via_map == pytest.approx(direct, abs=5e-3 * max(1.0, abs(direct)))


def test_pullback_pair_zero_outside_rectangle():
    coeff = _field_draws(1, 13)[0]
    far = np.full(PATCH.centers.size, 100.0 + 100.0j)
    assert BASIS.field_at_points(coeff, far) @ PATCH.weights == 0.0


@pytest.mark.parametrize("dom", [DOM, RectDomain(nx=256, ny=256, modes=256 * 256)],
                         ids=["default", "256x256"])
def test_sin_multiples_recurrence_matches_sin(dom):
    # the recurrence loses at most k^2 eps against sin(k theta) computed
    # directly, for every theta in [0, pi], the endpoints included (measured:
    # 0.47 k^2 eps at k = 3, mostly the rounding of k theta in the reference,
    # and below 0.13 k^2 eps from k = 50 on)
    basis = EigenBasis(dom)
    k_max = max(basis.m_max, basis.n_max)
    theta = np.concatenate([
        [0.0, 1e-9, 1e-5, math.pi / 2, math.pi - 1e-5, math.pi - 1e-9, math.pi],
        np.random.default_rng(3).uniform(0.0, math.pi, 2000),
    ])
    table = sin_multiples(np.stack([theta, theta[::-1]]), k_max)
    assert table.shape == (2, k_max, theta.size)
    k = np.arange(1, k_max + 1)
    exact = np.sin(theta[None, :] * k[:, None])
    err = np.abs(table[0] - exact).max(axis=1)
    assert np.all(err <= k ** 2 * np.finfo(float).eps)
    assert np.array_equal(table[1], table[0][:, ::-1])
    # the table of a 1-D theta (a test function's patch) is (k, P), and each
    # slice of a batch is that table, byte for byte
    flat = sin_multiples(theta, k_max)
    assert flat.shape == (k_max, theta.size)
    assert np.array_equal(flat, table[0])
    rows = [theta, theta[::-1], np.roll(theta, 5)]
    batch = sin_multiples(np.stack(rows * 2).reshape(2, 3, -1), k_max)
    assert batch.shape == (2, 3, k_max, theta.size)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(batch[i, j], sin_multiples(rows[j], k_max))


def test_field_at_points_matches_double_sum():
    # batched coefficients against norm * sum c_mn sin(m theta_x) sin(n theta_y),
    # with theta computed per point and mode; outside points give exactly 0
    coeff = _field_draws(3, 21)
    rng = np.random.default_rng(22)
    inside = (rng.uniform(DOM.x0, DOM.x1, (3, 5))
              + 1j * rng.uniform(DOM.y0, DOM.y1, (3, 5)))
    outside = np.array([DOM.x0 - 0.5 + 2j, DOM.x1 + 1e-3 + 2j, 3.0 - 0.1j,
                        3.0 + (DOM.y1 + 2.0) * 1j, DOM.x0 + 4j])
    pts = np.concatenate([inside, np.broadcast_to(outside, (3, 5))], axis=1)
    vals = BASIS.field_at_points(coeff, pts)
    assert vals.shape == (3, 10)
    mm = np.arange(1, BASIS.m_max + 1)
    nn = np.arange(1, BASIS.n_max + 1)
    for s in range(3):
        for p in range(5):
            z = inside[s, p]
            sx = np.sin(math.pi / DOM.width * (z.real - DOM.x0) * mm)
            sy = np.sin(math.pi / DOM.height * (z.imag - DOM.y0) * nn)
            direct = BASIS.norm * float(sx @ coeff[s] @ sy)
            assert vals[s, p] == pytest.approx(direct, rel=1e-12, abs=1e-11)
    assert np.all(vals[:, 5:] == 0.0)
