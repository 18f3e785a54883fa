"""Mode-truncated Gaussian free field on a rectangle touching the real axis.

The field is represented in the Dirichlet sine eigenbasis with covariance
2G realized as sum_k (4 pi / lambda_k) e_k (x) e_k(y), consistent with the
log-normalized Green's function (-Delta G = 2 pi delta).  The module also
provides tensor-quadrature Dirichlet energies against pluggable Green
evaluators (half-plane, rectangle via an exponentially convergent Fourier
image sum, and pullbacks along simulated flow maps).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .conformal import green_half_plane_grid
from .errors import ParameterRangeError, SupportViolationError

DEFAULT_RECT = (-8.0, 8.0, 0.0, 8.0)
DEFAULT_MESH = 256
DEFAULT_MODES = 64 * 64
N_IMAGES = 8  # image pairs summed by RectGreenEval
N_CELL_NODES = 96  # Gauss-Legendre nodes per axis in cell_log_avg


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
            raise ParameterRangeError("rectangle must be inside the upper half-plane")
        if self.modes > self.nx * self.ny:
            raise ParameterRangeError("mode cutoff exceeds mesh resolution")

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

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

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
            raise ParameterRangeError(
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
    values: np.ndarray
    weights: np.ndarray  # values * cell area

    @property
    def integral(self) -> float:
        return float(np.sum(self.weights))


def patch_from_testfn(dom: RectDomain, p: TestFn) -> SupportPatch:
    """Restrict a bump to its support cells; reject supports leaving the rectangle."""
    c, r = p.center, p.radius
    if not (
        dom.x0 < c.real - r and c.real + r < dom.x1
        and dom.y0 < c.imag - r and c.imag + r < dom.y1
    ):
        raise SupportViolationError("test function support leaves the rectangle")
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
    return SupportPatch(
        dom, ii[keep], jj[keep], zz[keep], vals[keep],
        vals[keep] * dom.cell_area,
    )


# -- eigenbasis --------------------------------------------------------------


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
        # sine tables on the mesh for separable quadratures
        xs, ys = dom.cell_centers()
        self._sx = np.sin(
            math.pi / W * np.outer(np.arange(1, self.m_max + 1), xs - dom.x0)
        )
        self._sy = np.sin(
            math.pi / H * np.outer(np.arange(1, self.n_max + 1), ys - dom.y0)
        )

    def sin_tables(self, pts):
        """sin matrices (..., m_max) and (..., n_max) at arbitrary points."""
        pts = np.asarray(pts, dtype=complex)
        u = pts.real - self.dom.x0
        v = pts.imag - self.dom.y0
        mm = np.arange(1, self.m_max + 1)
        nn = np.arange(1, self.n_max + 1)
        su = np.sin(math.pi / self.dom.width * u[..., None] * mm)
        sv = np.sin(math.pi / self.dom.height * v[..., None] * nn)
        inside = self.dom.contains(pts)
        su = su * inside[..., None]
        return su, sv

    def testfn_coeff_box(self, patch: SupportPatch) -> np.ndarray:
        """(e_k, p) by mesh quadrature, on the dense frequency box."""
        su = self._sx[:, patch.ix]  # (m_max, P)
        sv = self._sy[:, patch.iy]
        box = (su * patch.weights) @ sv.T
        return self.norm * box * self.mask

    def field_at_points(self, coeff_box: np.ndarray, pts) -> np.ndarray:
        """Evaluate sum_k c_k e_k at points; coeff_box may be batched (..., m, n)."""
        su, sv = self.sin_tables(pts)  # (..., P, m), (..., P, n)
        t = np.einsum("...pn,...mn->...pm", sv, coeff_box)
        return self.norm * np.sum(su * t, axis=-1)

    def energy_spectral(self, patch: SupportPatch) -> float:
        """Truncated spectral Dirichlet energy sum_k (4 pi/lambda_k)(e_k, p)^2."""
        box = self.testfn_coeff_box(patch)
        return float(np.sum(self.scale_box ** 2 * box ** 2))


def eigen_basis(dom: RectDomain) -> EigenBasis:
    return EigenBasis(dom)


# -- Green evaluators and energies -------------------------------------------


class HalfPlaneGreenEval:
    """Vectorized half-plane Green's function with a regularized diagonal."""

    def pair(self, z1, z2):
        return green_half_plane_grid(z1, z2)

    def diag(self, z):
        """lim_{z2 -> z} [G(z, z2) + log|z - z2|]."""
        return np.log(2.0 * np.imag(np.asarray(z, dtype=complex)))


class RectGreenEval:
    """Dirichlet Green's function of the rectangle by a Fourier image sum.

    G = sum over image separations d of
        -1/2 log(1 - 2 q cos(pi dx/W) + q^2) + 1/2 log(1 - 2 q cos(pi sx/W) + q^2)
    with q = exp(-pi d / W); exponentially convergent and independent of the
    eigenbasis truncation, so it can cross-check the spectral energy.  No
    command uses it: it is the reference the spectral-energy test compares to.
    """

    def __init__(self, dom: RectDomain):
        self.dom = dom

    def _term(self, d, cdx, csx):
        q = np.exp(-math.pi * d / self.dom.width)
        return -0.5 * np.log(1.0 - 2.0 * q * cdx + q * q) + 0.5 * np.log(
            1.0 - 2.0 * q * csx + q * q
        )

    def pair(self, z1, z2):
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        W, H = self.dom.width, self.dom.height
        u1, u2 = z1.real - self.dom.x0, z2.real - self.dom.x0
        v1, v2 = z1.imag - self.dom.y0, z2.imag - self.dom.y0
        cdx = np.cos(math.pi * (u1 - u2) / W)
        csx = np.cos(math.pi * (u1 + u2) / W)
        dy = np.abs(v1 - v2)
        sy = v1 + v2
        total = 0.0
        for n in range(N_IMAGES):
            s = 2.0 * n * H
            total = total + self._term(dy + s, cdx, csx)
            total = total + self._term(2.0 * H - dy + s, cdx, csx)
            total = total - self._term(sy + s, cdx, csx)
            total = total - self._term(2.0 * H - sy + s, cdx, csx)
        return total

    def diag(self, z):
        z = np.asarray(z, dtype=complex)
        W, H = self.dom.width, self.dom.height
        u = z.real - self.dom.x0
        v = z.imag - self.dom.y0
        csx = np.cos(2.0 * math.pi * u / W)
        # regularized n=0 coincidence term: -1/2 log(...) -> log(W/pi)
        total = math.log(W / math.pi) + 0.5 * np.log(1.0 - 2.0 * csx + 1.0)
        total = total + self._term(2.0 * H, 1.0, csx)
        total = total - self._term(2.0 * v, 1.0, csx)
        total = total - self._term(2.0 * H - 2.0 * v, 1.0, csx)
        for n in range(1, N_IMAGES):
            s = 2.0 * n * H
            total = total + self._term(s, 1.0, csx)
            total = total + self._term(2.0 * H + s, 1.0, csx)
            total = total - self._term(2.0 * v + s, 1.0, csx)
            total = total - self._term(2.0 * H - 2.0 * v + s, 1.0, csx)
        return total


@functools.lru_cache
def cell_log_avg(hx: float, hy: float) -> float:
    """Average of log|z1 - z2| over two independent uniform points of one cell.

    Uses the triangular density of the coordinate differences; the log
    singularity at zero separation is integrable.  Cached: every energy on
    one mesh asks for the same cell.
    """
    t, wt = np.polynomial.legendre.leggauss(N_CELL_NODES)
    ax = 0.5 * hx * (t + 1.0)
    wx = 0.5 * hx * wt
    ay = 0.5 * hy * (t + 1.0)
    wy = 0.5 * hy * wt
    dens = (
        4.0
        * np.outer((hx - ax) / hx ** 2, (hy - ay) / hy ** 2)
        * (np.outer(wx, wy))
    )
    r2 = ax[:, None] ** 2 + ay[None, :] ** 2
    return float(np.sum(dens * 0.5 * np.log(r2)))


def energy_product(p: SupportPatch, q: SupportPatch, green,
                   refine: int = 3) -> float:
    """Tensor quadrature of the energy pairing integral of 2 G p q.

    Coincident cells use the evaluator's regularized diagonal plus the exact
    cell average of the log kernel; touching cells are refined by subcell
    sampling.
    """
    with np.errstate(divide="ignore"):
        gm = green.pair(p.centers[:, None], q.centers[None, :])
    same = (p.ix[:, None] == q.ix[None, :]) & (p.iy[:, None] == q.iy[None, :])
    if np.any(same):
        di = np.where(same)[0]
        gm[same] = green.diag(p.centers[di]) - cell_log_avg(p.dom.hx, p.dom.hy)
    if refine > 1:
        near = (
            (np.abs(p.ix[:, None] - q.ix[None, :]) <= 1)
            & (np.abs(p.iy[:, None] - q.iy[None, :]) <= 1)
            & ~same
        )
        ii, jj = np.nonzero(near)
        if ii.size:
            offs = (np.arange(refine) + 0.5) / refine - 0.5
            ox, oy = np.meshgrid(offs * p.dom.hx, offs * p.dom.hy, indexing="ij")
            sub = (ox + 1j * oy).ravel()
            z1 = p.centers[ii][:, None, None] + sub[None, :, None]
            z2 = q.centers[jj][:, None, None] + sub[None, None, :]
            gm[ii, jj] = np.mean(green.pair(z1, z2), axis=(1, 2))
    return float(2.0 * p.weights @ gm @ q.weights)


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
    hp = HalfPlaneGreenEval()
    with np.errstate(divide="ignore"):
        gm = hp.pair(w[:, None], w[None, :])
    dvals = (
        np.log(2.0 * w.imag) - lwp.real
        - cell_log_avg(patch.dom.hx, patch.dom.hy)
    )
    np.fill_diagonal(gm, dvals)
    return float(2.0 * patch.weights @ gm @ patch.weights)
