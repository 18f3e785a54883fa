"""Mode-truncated Gaussian free field on a rectangle touching the real axis.

The field is represented in the Dirichlet sine eigenbasis with covariance
2G realized as sum_k (4 pi / lambda_k) e_k (x) e_k(y), consistent with the
log-normalized Green's function (-Delta G = 2 pi delta).  The module also
gives the truncated spectral Dirichlet energy of a test function and its
midpoint-rule energy against the half-plane Green's function pulled back
along a simulated flow map.

Field values at points and the mode coefficients of a test function both
come from one place, the tables sin(k theta), k = 1..K, with
theta = pi (x - x0)/W along x and pi (y - y0)/H along y.  They take
one sin and one cos per point and axis; the other rows follow from the
recurrence sin((k+1) theta) = 2 cos(theta) sin(k theta) - sin((k-1) theta),
whose error grows like k^2 times the float64 epsilon.  A table is built
as (K, ..., P), so each row of the recurrence is one in-place ufunc over a
contiguous block of every sample and point, and is read as a (..., K, P)
view; a field evaluation is one matmul per sample on that view.  The
coupling runs it on blocks of samples, and its samples do not depend on the
block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import green_half_plane_grid
from .errors import InputError

DEFAULT_RECT = (-8.0, 8.0, 0.0, 8.0)
DEFAULT_MESH = 256
DEFAULT_MODES = 64 * 64


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle in the closed upper half-plane with a mesh."""

    x0: float = DEFAULT_RECT[0]
    x1: float = DEFAULT_RECT[1]
    y0: float = DEFAULT_RECT[2]
    y1: float = DEFAULT_RECT[3]
    nx: int = DEFAULT_MESH
    ny: int = DEFAULT_MESH
    modes: int = DEFAULT_MODES

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0 and self.y0 >= 0.0):
            raise InputError("rectangle must be inside the upper half-plane")
        if self.modes > self.nx * self.ny:
            raise InputError("mode cutoff exceeds mesh resolution")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def hx(self) -> float:
        return self.width / self.nx

    @property
    def hy(self) -> float:
        return self.height / self.ny

    def cell_centers(self):
        xs = self.x0 + (np.arange(self.nx) + 0.5) * self.hx
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.hy
        return xs, ys

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return (
            (z.real > self.x0) & (z.real < self.x1)
            & (z.imag > self.y0) & (z.imag < self.y1)
        )


@dataclass(frozen=True)
class TestFn:
    """Smooth radial bump: exp(1 - 1/(1 - (r/radius)^2)) inside, 0 outside."""

    center: complex
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise InputError(
                f"bump radius must be positive and finite: {self.radius}")

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        r2 = np.abs(z - self.center) ** 2 / self.radius ** 2
        out = np.zeros(z.shape, dtype=float)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out if out.shape else float(out)


@dataclass
class SupportPatch:
    """Mesh restriction of a test function: support cells and weights."""

    dom: RectDomain
    ix: np.ndarray
    iy: np.ndarray
    centers: np.ndarray  # complex cell centers
    weights: np.ndarray  # test function values * cell area


def patch_from_testfn(dom: RectDomain, p: TestFn) -> SupportPatch:
    """Restrict a bump to its support cells; reject supports leaving the rectangle."""
    c, r = p.center, p.radius
    if not (
        dom.x0 < c.real - r and c.real + r < dom.x1
        and dom.y0 < c.imag - r and c.imag + r < dom.y1
    ):
        raise InputError("test function support leaves the rectangle")
    xs, ys = dom.cell_centers()
    i0 = np.searchsorted(xs, c.real - r) - 1
    i1 = np.searchsorted(xs, c.real + r) + 1
    j0 = np.searchsorted(ys, c.imag - r) - 1
    j1 = np.searchsorted(ys, c.imag + r) + 1
    ii, jj = np.meshgrid(
        np.arange(max(i0, 0), min(i1, dom.nx)),
        np.arange(max(j0, 0), min(j1, dom.ny)),
        indexing="ij",
    )
    zz = xs[ii] + 1j * ys[jj]
    vals = p.value(zz)
    keep = vals > 0.0
    if not keep.any():
        raise InputError("test function support holds no mesh cell")
    return SupportPatch(dom, ii[keep], jj[keep], zz[keep],
                        vals[keep] * (dom.hx * dom.hy))


# -- eigenbasis --------------------------------------------------------------


def sin_multiples(theta: np.ndarray, k: int) -> np.ndarray:
    """sin(j theta) for j = 1..k, shape (..., k, P) for theta of shape (..., P).

    Row 1 takes sin(theta); every further row is filled in place from the
    two before it and 2 cos(theta), by the recurrence in the module docstring.
    The rows are contiguous blocks of a (k, ..., P) array, returned as a view.
    """
    out = np.empty((k,) + theta.shape)
    out[0] = np.sin(theta)
    if k > 1:
        c2 = 2.0 * np.cos(theta)
        np.multiply(c2, out[0], out=out[1])
        for j in range(2, k):
            np.multiply(c2, out[j - 1], out=out[j])
            out[j] -= out[j - 2]
    return np.moveaxis(out, 0, -2)


class EigenBasis:
    """The lowest-frequency Dirichlet sine modes of the rectangle.

    Mode coefficients are carried on a dense (m, n) frequency box with a
    mask selecting the ``modes`` lowest eigenvalues; the box layout makes
    pairings separable matrix products.
    """

    def __init__(self, dom: RectDomain):
        self.dom = dom
        W, H = dom.width, dom.height
        cand_m = np.arange(1, dom.nx + 1)
        cand_n = np.arange(1, dom.ny + 1)
        lam = math.pi ** 2 * (
            (cand_m[:, None] / W) ** 2 + (cand_n[None, :] / H) ** 2
        )
        flat = np.argsort(lam, axis=None, kind="stable")[: dom.modes]
        mask = np.zeros(lam.shape, dtype=bool)
        mask.flat[flat] = True
        self.m_max = int(np.max(np.nonzero(mask.any(axis=1))[0])) + 1
        self.n_max = int(np.max(np.nonzero(mask.any(axis=0))[0])) + 1
        self.mask = mask[: self.m_max, : self.n_max]
        self.lam_box = lam[: self.m_max, : self.n_max]
        self.scale_box = np.where(
            self.mask, np.sqrt(4.0 * math.pi / self.lam_box), 0.0
        )
        self.norm = 2.0 / math.sqrt(W * H)

    def sin_tables(self, pts):
        """sin(k theta) tables (..., m_max, P) along x and (..., n_max, P)
        along y at points (..., P)."""
        pts = np.asarray(pts, dtype=complex)
        su = sin_multiples(
            math.pi / self.dom.width * (pts.real - self.dom.x0), self.m_max)
        sv = sin_multiples(
            math.pi / self.dom.height * (pts.imag - self.dom.y0), self.n_max)
        return su, sv

    def testfn_coeff_box(self, patch: SupportPatch) -> np.ndarray:
        """(e_k, p) by mesh quadrature, on the dense frequency box."""
        su, sv = self.sin_tables(patch.centers)  # (m_max, P), (n_max, P)
        box = (su * patch.weights) @ sv.T
        return self.norm * box * self.mask

    def field_at_points(self, coeff_box: np.ndarray, pts) -> np.ndarray:
        """Evaluate sum_k c_k e_k at points (..., P), 0 outside the rectangle;
        coeff_box may be batched (..., m, n)."""
        su, sv = self.sin_tables(pts)
        t = coeff_box @ sv  # (..., m, P)
        t *= su
        return self.norm * self.dom.contains(pts) * t.sum(axis=-2)

    def energy_spectral(self, patch: SupportPatch) -> float:
        """Truncated spectral Dirichlet energy sum_k (4 pi/lambda_k)(e_k, p)^2."""
        box = self.testfn_coeff_box(patch)
        return float(np.sum(self.scale_box ** 2 * box ** 2))


def eigen_basis(dom: RectDomain) -> EigenBasis:
    return EigenBasis(dom)


# -- energies ----------------------------------------------------------------


def cell_log_avg(hx: float, hy: float) -> float:
    """Average of log|z1 - z2| over two independent uniform points of one cell.

    It is the log of the cell's self geometric mean distance, in the closed
    form for a rectangle of J. C. Maxwell, "On the geometrical mean distance
    of two figures on a plane" (1872); for a square of side a it is
    ln a + (ln 2)/3 + pi/3 - 25/12.
    """
    r = hx / hy
    r2 = r * r
    return (math.log(math.hypot(hx, hy))
            - r2 / 12.0 * math.log1p(1.0 / r2) - math.log1p(r2) / (12.0 * r2)
            + 2.0 * r / 3.0 * math.atan(1.0 / r)
            + 2.0 / (3.0 * r) * math.atan(r) - 25.0 / 12.0)


def energy_from_map(patch: SupportPatch, w_at: np.ndarray,
                    log_wp: np.ndarray) -> float:
    """Energy of the patch in the image domain of a conformal map.

    Uses the pulled-back half-plane Green's function at cell centers; the
    diagonal combines the regularized limit with the map's log-derivative.
    Identity input (w = centers, log_wp = 0) reduces to the plain half-plane
    midpoint rule, so differences of the two are consistent estimates.
    """
    w = np.asarray(w_at, dtype=complex)
    lwp = np.asarray(log_wp, dtype=complex)
    with np.errstate(divide="ignore"):
        gm = green_half_plane_grid(w[:, None], w[None, :])
    dvals = (
        np.log(2.0 * w.imag) - lwp.real
        - cell_log_avg(patch.dom.hx, patch.dom.hy)
    )
    np.fill_diagonal(gm, dvals)
    return float(2.0 * patch.weights @ gm @ patch.weights)
