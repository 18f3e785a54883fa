"""Deterministic complex-analytic primitives.

Green's function of the upper half-plane, the strip-to-triangle
Schwarz-Christoffel map used by the exit-probability oracle, and
barycentric coordinates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

TRIANGLE_TOL = 1e-7  # barycentric slack before a point counts as outside
_SC_QUAD_ORDER = 48  # nodes of each vertex chart's Golub-Welsch Gauss-Jacobi rule
ANGLE_MIN = 1e-8  # smallest triangle angle, in units of pi, the oracle accepts


def require_upper_half_plane(z) -> None:
    """Raise InputError unless z is finite with Im z > 0 (elementwise for arrays)."""
    arr = np.asarray(z)
    if not np.all(np.isfinite(arr)) or np.any(arr.imag <= 0.0):
        raise InputError(f"point not in the open upper half-plane: {z!r}")


def green_half_plane_grid(z1, z2):
    """Half-plane Green's function log|z1 - conj z2| - log|z1 - z2|, elementwise
    for broadcastable complex scalars or arrays; no domain checks."""
    z1 = np.asarray(z1)
    z2 = np.asarray(z2)
    return np.log(np.abs(z1 - np.conj(z2))) - np.log(np.abs(z1 - z2))


def barycentric(point, vertices):
    """Barycentric coordinates (a, b, c) of points in the triangle with
    complex ``vertices`` (A, B, C), renormalized to sum 1.

    ``point`` is a complex scalar or array; the coordinates run along a new
    last axis.  Raises NumericalError if any coordinate is below
    -TRIANGLE_TOL, whatever the triangle's size.
    """
    A, B, C = vertices
    u, v = B - A, C - A
    p = np.asarray(point, dtype=complex) - A
    # closed form of the 2x2 solve  [u v] (b, c) = p  over the reals
    det = u.real * v.imag - u.imag * v.real
    b = (p.real * v.imag - p.imag * v.real) / det
    c = (u.real * p.imag - u.imag * p.real) / det
    a = 1.0 - b - c
    abc = np.stack([a, b, c], axis=-1)
    outside = abc.min(axis=-1) < -TRIANGLE_TOL
    if np.any(outside):
        raise NumericalError(
            f"point {p[outside][0] + A} outside triangle (coords {abc[outside][0]})"
        )
    return abc / (a + b + c)[..., None]


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _gauss_jacobi(n: int, e: float):
    """Golub-Welsch n-point Gauss rule on [-1, 1] for the weight (1 + x)^e.

    Needs e > -1 and e != 0.  The nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the Jacobi polynomials P^(0, e); the weights
    are mu0 * v0^2, with v0 the first components of the unit eigenvectors and
    mu0 = 2^(e+1) B(1, e+1) = 2^(e+1) / (e+1) the mass of the weight
    (Golub & Welsch, Math. Comp. 23, 1969).
    """
    t = 2.0 * np.arange(n) + e
    diag = e * e / (t * (t + 2.0))
    k, s = np.arange(1.0, n), t[1:]
    s2m1 = s * s - 1.0
    s2m1[:1] = (1.0 + e) * (3.0 + e)  # exact where s = 2 + e rounds to 1
    off = 2.0 * k * (k + e) / (s * np.sqrt(s2m1))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (e + 1.0) / (e + 1.0) * vecs[0] ** 2


def _jacobi_sum(w, exponent, base):
    """Gauss-Jacobi sum over the last axis: sum_k w_k base_k^exponent (principal branch)."""
    return (w * np.exp(exponent * np.log(base))).sum(-1)


@dataclass
class ScMap:
    """Strip-to-triangle Schwarz-Christoffel map for the dipolar exit problem.

    The map ``f`` sends the strip {0 < Im z < pi} onto a triangle so that
    f(0), f(+inf), f(-inf) are the three vertices.  Evaluation goes through
    h(z) = f(log z): the derivative of h on the upper half-plane is

        h'(z) = C * z**exp_zero * (z - 1)**exp_one

    with exp_one = -4/kappa and exp_zero = -1 + 2(1+alpha)/kappa, principal
    branches throughout.  ``vertices`` (A, B, C) = (h(1), h(inf), h(0)) have
    angles pi(1 + exp_one), pi(1 + exp_inf), pi(1 + exp_zero) and come from
    Euler beta integrals (by lgamma); h itself is a Gauss-Jacobi sum in the
    chart of the nearest vertex, with a _SC_QUAD_ORDER-point Golub-Welsch
    rule per vertex.  InputError unless kappa > 4 and the smallest angle is
    at least ANGLE_MIN pi (so |alpha| < 1 and kappa <~ 2(1 - |alpha|) /
    ANGLE_MIN); the oracle's error grows as that angle shrinks, to ~1e-8.
    """

    kappa: float
    alpha: float
    exp_zero: float = field(init=False)
    exp_one: float = field(init=False)
    exp_inf: float = field(init=False)
    vertices: tuple = field(init=False)
    scale: complex = field(init=False)

    def __post_init__(self):
        if self.kappa <= 4.0:
            raise InputError("kappa must exceed 4")
        k, al = self.kappa, self.alpha
        self.exp_one = -4.0 / k
        self.exp_zero = -1.0 + 2.0 * (1.0 + al) / k
        self.exp_inf = -1.0 + 2.0 * (1.0 - al) / k
        theta = 1.0 + min(self.exp_zero, self.exp_one, self.exp_inf)
        if not theta >= ANGLE_MIN:  # NaN fails it too
            raise InputError(f"kappa = {k!r}, alpha = {al!r}: smallest triangle "
                             f"angle {theta:.3g} pi is below ANGLE_MIN = {ANGLE_MIN:g}")

        # Raw vertices from Euler beta integrals of h' with unit prefactor,
        # h(1) = 0.  B is reached along (1, inf), C along (1, 0).
        b_raw = math.exp(_log_beta(self.exp_inf + 1.0, self.exp_one + 1.0))
        c_mod = math.exp(_log_beta(self.exp_zero + 1.0, self.exp_one + 1.0))
        c_raw = -c_mod * cmath.exp(1j * math.pi * self.exp_one)
        # Normalize: A at the origin, B at 1 on the positive real axis.
        self.scale = 1.0 / b_raw
        self.vertices = (0.0 + 0.0j, 1.0 + 0.0j, c_raw * self.scale)

        # Gauss-Jacobi nodes and weights moved from [-1, 1] to [0, 1], one
        # rule per vertex chart, weighted by t^exponent
        self._quad = {}
        for name, e in (("one", self.exp_one), ("zero", self.exp_zero),
                        ("inf", self.exp_inf)):
            nodes, weights = _gauss_jacobi(_SC_QUAD_ORDER, e)
            self._quad[name] = (0.5 * (nodes + 1.0), weights * 0.5 ** (e + 1.0))

    # -- half-plane chart ------------------------------------------------

    def h_prime(self, z):
        """Closed-form derivative of the half-plane chart map (principal branches)."""
        z = np.asarray(z, dtype=complex)
        return self.scale * np.exp(
            self.exp_zero * np.log(z) + self.exp_one * np.log(z - 1.0)
        )

    def h_prime_log_deriv(self, z):
        """Analytic h''/h' = exp_zero/z + exp_one/(z-1)."""
        z = np.asarray(z, dtype=complex)
        return self.exp_zero / z + self.exp_one / (z - 1.0)

    # Each vertex chart takes an array of points (h passes them) and returns
    # one value per point; the Gauss-Jacobi sums are (points, order) products.

    def _h_from_one(self, z):
        # h(z) = (z-1)^(1+exp_one) * int_0^1 t^exp_one (1 + (z-1) t)^exp_zero dt
        dz = np.asarray(z, dtype=complex) - 1.0
        t, w = self._quad["one"]
        integral = _jacobi_sum(w, self.exp_zero, 1.0 + dz[..., None] * t)
        # at vertex A itself (dz = 0) the log is -inf and the power is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.scale * np.exp((1.0 + self.exp_one) * np.log(dz)) * integral

    def _h_from_zero(self, z):
        # h(z) = C_vertex + z^(1+exp_zero) * int_0^1 t^exp_zero (z t - 1)^exp_one dt
        t, w = self._quad["zero"]
        integral = _jacobi_sum(w, self.exp_one, z[..., None] * t - 1.0)
        return self.vertices[2] + self.scale * np.exp(
            (1.0 + self.exp_zero) * np.log(z)
        ) * integral

    def _h_from_inf(self, z):
        # h(z) = B - z^(1+exp_zero+exp_one) * int_0^1 s^exp_inf (1 - s/z)^exp_one ds
        p = 1.0 + self.exp_zero + self.exp_one  # negative
        t, w = self._quad["inf"]
        integral = _jacobi_sum(w, self.exp_one, 1.0 - t / z[..., None])
        return self.vertices[1] - self.scale * np.exp(p * np.log(z)) * integral

    def h(self, z):
        """Half-plane chart map onto the triangle; h(1), h(0), h(inf) are the vertices.

        Takes a complex scalar or array; each point goes through the vertex
        chart nearest to it.
        """
        z = np.asarray(z, dtype=complex)
        if np.any(z.imag < 0):
            raise InputError("h is defined on the closed upper half-plane")
        az = np.abs(z)
        far = az >= 4.0
        near_one = ~far & (np.abs(z - 1.0) <= az)
        near_zero = ~(far | near_one)
        out = np.empty_like(z)
        out[far] = self._h_from_inf(z[far])
        out[near_one] = self._h_from_one(z[near_one])
        out[near_zero] = self._h_from_zero(z[near_zero])
        return out[()]

    # -- strip chart -----------------------------------------------------

    def __call__(self, z):
        """Evaluate the strip chart map f(z) = h(e^z) for z in the closed strip.

        Takes a complex scalar or array.  Points with |Re z| > 50, infinite
        ones included, map to the vertex they approach, without evaluating
        exp; a NaN real part is not in the strip.
        """
        z = np.asarray(z, dtype=complex)
        x = z.real
        bad = ~((0.0 <= z.imag) & (z.imag <= math.pi) & ~np.isnan(x))
        if bad.any():
            raise InputError(
                f"{np.count_nonzero(bad)} point(s) not in the closed strip, "
                f"first {z[bad][0]}"
            )
        right, left = x > 50.0, x < -50.0
        inside = ~(right | left)
        out = np.empty_like(z)
        out[right] = self.vertices[1]
        out[left] = self.vertices[2]
        out[inside] = self.h(np.exp(z[inside]))
        return out[()]

    def exit_probabilities(self, z):
        """Oracle (P[swallowed], P[right side], P[left side]) for strip points z.

        The three probabilities run along a new last axis: shape (3,) for a
        scalar z, (n, 3) for n points.
        """
        return barycentric(self(z), self.vertices)


def sc_map_build(kappa: float, alpha: float) -> ScMap:
    """Build the strip-to-triangle Schwarz-Christoffel map for (kappa, alpha)."""
    return ScMap(kappa, alpha)
