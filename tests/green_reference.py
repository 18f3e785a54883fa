"""Reference Green evaluators and the tensor-quadrature energy pairing.

The product computes Dirichlet energies spectrally (``EigenBasis.
energy_spectral``) and by the pulled-back midpoint rule
(``energy_from_map``).  The evaluators here are independent of both: the
rectangle's Green's function by an exponentially convergent Fourier image
sum and a quadrature that refines touching cells, so the tests can check
the product's energies against them.
"""

import math

import numpy as np

from slitflow.conformal import green_half_plane_grid
from slitflow.gff import SupportPatch, cell_log_avg

N_IMAGES = 8  # image pairs summed by RectGreenEval


class HalfPlaneGreenEval:
    """Vectorized half-plane Green's function with a regularized diagonal."""

    def pair(self, z1, z2):
        return green_half_plane_grid(z1, z2)

    def diag(self, z):
        """lim_{z2 -> z} [G(z, z2) + log|z - z2|]."""
        return np.log(2.0 * np.imag(np.asarray(z, dtype=complex)))


class RectGreenEval:
    """Dirichlet Green's function of a RectDomain by a Fourier image sum.

    G = sum over image separations d of
        -1/2 log(1 - 2 q cos(pi dx/W) + q^2) + 1/2 log(1 - 2 q cos(pi sx/W) + q^2)
    with q = exp(-pi d / W); exponentially convergent and independent of the
    eigenbasis truncation, so it can cross-check the spectral energy.
    """

    def __init__(self, dom):
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
