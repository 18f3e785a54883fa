"""Classification of coupled slit flows.

Solves the four-equation linear system tying the b coefficients to
(kappa, sigma, alpha, beta), enumerates the coupled families and their
round trip through it, builds the harmonic observable u by partial fractions,
and checks the generator annihilation and the b-sigma relation from exact
residual numerators, which read exactly 0 for a right family at any kappa.

The only irrational quantity entering the system is B := beta*sqrt(kappa),
so the system is written in B and solved in exact rational arithmetic: a
float input enters as the binary fraction it stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .conformal import require_upper_half_plane
from .errors import InputError
from .fields import FieldCoeffs

IDENTITY_TOL = 1e-8  # gate of check_annihilation and check_bsigma


@dataclass(frozen=True)
class FlowModel:
    """One slit flow and its coupled-modification data, in floats; kappa
    fixes the CFT constants a = sqrt(2/kappa) and bb = sqrt(kappa/8) - a."""

    kappa: float
    alpha: float
    b: FieldCoeffs
    sigma: FieldCoeffs

    @property
    def a(self) -> float:
        return math.sqrt(2.0 / self.kappa)

    @property
    def bb(self) -> float:
        return math.sqrt(self.kappa / 8.0) - self.a


def system_matrix(kappa, sigma0, sigma1, alpha, B):
    """Coefficient matrix and right side of the linear system for (b_-1, b_0, b_1)."""
    k, s0, s1, al = kappa, sigma0, sigma1, alpha
    rows = [
        [1, 0, 0],
        [2 * al + (k - 4) * s0, -(k - 8), 0],
        [(k - 4) * s1, al, -(k - 6)],
        [0, (k - 4) * s1, -((k - 4) * s0 - 2 * al)],
    ]
    rhs = [
        -al + 4 * s0,
        -2 * B + 2 * k * s0 * s0 - 2 * k * s1 + 24 * s1,
        -B * s0 + 2 * k * s0 * s1,
        (-2 * B + 2 * k * s1) * s1,
    ]
    return rows, rhs


def system_residuals(kappa, sigma0, sigma1, alpha, B, b: FieldCoeffs):
    """Residual of each of the four equations under the given b coefficients."""
    rows, rhs = system_matrix(kappa, sigma0, sigma1, alpha, B)
    x = (b.c1, b.c2, b.c3)
    return [sum(r[j] * x[j] for j in range(3)) - t for r, t in zip(rows, rhs)]


def _row_reduce(rows, rhs):
    """Gauss-Jordan elimination over Fractions, with exact rank bookkeeping."""
    # coerce every entry: an int pivot would otherwise true-divide into floats
    m = [[Fraction(e) for e in list(r) + [t]] for r, t in zip(rows, rhs)]
    nrow, ncol = len(m), 3
    pivots = []
    r = 0
    for c in range(ncol):
        pivot = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [e / pv for e in m[r]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [e - f * p for e, p in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    inconsistent = any(
        all(e == 0 for e in row[:ncol]) and row[ncol] != 0 for row in m
    )
    x = [Fraction(0)] * ncol
    for i, c in enumerate(pivots):
        x[c] = m[i][ncol]
    free = [c for c in range(ncol) if c not in pivots]
    return x, free, inconsistent


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_system: a solution, a free family, or an inconsistency."""

    status: str  # 'unique' | 'free' | 'inconsistent'
    b: Optional[FieldCoeffs]
    residuals: tuple


def solve_system(kappa, sigma0, sigma1, alpha, *, B) -> SolveResult:
    """Solve exactly for the b coefficients given (kappa, sigma, alpha, B).

    B = beta*sqrt(kappa).  Every input is converted with Fraction, a float
    to the binary fraction it stores, so rank and consistency are exact and
    the residuals are Fractions.  Free coefficients at degenerate kappa give
    status 'free' and are set to zero in the returned particular solution.
    """
    kappa, sigma0, sigma1, alpha, B = (
        Fraction(v) for v in (kappa, sigma0, sigma1, alpha, B)
    )
    rows, rhs = system_matrix(kappa, sigma0, sigma1, alpha, B)
    x, free, inconsistent = _row_reduce(rows, rhs)
    b = FieldCoeffs("b", *x)
    res = tuple(system_residuals(kappa, sigma0, sigma1, alpha, B, b))
    if inconsistent:
        return SolveResult("inconsistent", None, res)
    return SolveResult("free" if free else "unique", b, res)


def _hyperbolic(s):
    """The exact rule of hyperbolic-beta with sign s = +1 or -1."""
    def rule(k, B):
        al = s * (k - 6) / 2
        c = 2 * B / (k - 8)
        return (-al, (3 - k) / 2 + c, -s * (k - 2 - 4 * c) / 8), al, B
    return rule


# The coupled families, one row each: name -> sigma_1 (sigma_0 = 0 in all),
# the parameter the family reads (alpha, or B = beta*sqrt(kappa)), and its
# exact rule (kappa, parameter) -> ((b_-1, b_0, b_1), alpha, B) in Fractions.
# radial6-drift exists at kappa = 6 only.
FAMILIES = {
    "chordal-drift": (0, "alpha", lambda k, a: ((-a, 0, 0), a, a * a)),
    "parabolic-beta": (0, "beta",
                       lambda k, B: ((0, 2 * B / (k - 8), 0), Fraction(0), B)),
    "dipolar-drift": (Fraction(-1, 4), "alpha",
                      lambda k, a: ((-a, Fraction(-1, 2), a / 4), a, a * a - 1)),
    "hyperbolic-beta(+)": (Fraction(-1, 4), "beta", _hyperbolic(1)),
    "hyperbolic-beta(-)": (Fraction(-1, 4), "beta", _hyperbolic(-1)),
    "radial6-drift": (Fraction(1, 4), "alpha",
                      lambda k, a: ((-a, Fraction(1, 2), -a / 4), a, 1 + a * a)),
}


@dataclass(frozen=True)
class FamilySpec:
    """One row of FAMILIES at a fixed kappa."""

    name: str
    kappa: Fraction
    sigma: FieldCoeffs
    parameter: str  # 'alpha' or 'beta'

    def coefficients(self, alpha, B):
        """Exact (b, alpha, B) for the family's own parameter, as Fractions.

        An alpha-family (drift) reads alpha and ignores B; a beta-family
        reads B = beta*sqrt(kappa) and ignores alpha.  A float parameter
        enters as the binary fraction it stores.  A coefficient too large
        for a float (B = alpha^2 at |alpha| > 1.3e154) is an InputError, and
        so is a rule that divides by zero (the beta rules at kappa = 8).
        """
        p = Fraction(alpha if self.parameter == "alpha" else B)
        try:
            b, al, Bc = FAMILIES[self.name][2](self.kappa, p)
            for c in (*b, al, Bc):
                float(c)
        except ZeroDivisionError:
            family = self.name.split("(")[0]
            raise InputError(f"{family} degenerates at kappa = {self.kappa}") from None
        except OverflowError:
            raise InputError(f"{self.name} coefficients overflow a float") from None
        return FieldCoeffs("b", *b), al, Bc

    def instantiate(self, alpha, B) -> FlowModel:
        """The float flow model; alpha and B are read as coefficients() reads them."""
        b, al, _ = self.coefficients(alpha, B)
        return FlowModel(kappa=float(self.kappa), alpha=float(al),
                         b=b.as_float(), sigma=self.sigma.as_float())


def enumerate_families(kappa) -> list:
    """The coupled-flow families at this kappa, one per row of FAMILIES."""
    if not (kappa > 0 and math.isfinite(kappa)):
        raise InputError("kappa must be positive and finite")
    k = Fraction(kappa)
    return [FamilySpec(name, k, FieldCoeffs("sigma", 0, s1), parameter)
            for name, (s1, parameter, _) in FAMILIES.items()
            if name != "radial6-drift" or k == 6]


def roundtrip_residual(spec: FamilySpec, alpha, B) -> Fraction:
    """Largest |residual|, in Fractions, over the solver's own solution, the
    family's exact b from coefficients(), and solved b - family b where the
    solution is unique.  It is exactly 0 for a right family."""
    b, al, Bc = spec.coefficients(alpha, B)
    k, s0, s1 = spec.kappa, spec.sigma.c1, spec.sigma.c2
    sol = solve_system(k, s0, s1, al, B=Bc)
    errs = [*sol.residuals, *system_residuals(k, s0, s1, al, Bc, b)]
    if sol.status == "unique":
        errs += [x - y for x, y in zip(sol.b.coeffs, b.coeffs)]
    return max(abs(e) for e in errs)


@dataclass(frozen=True)
class HarmonicU:
    """Harmonic observable u(z) = Im[sum c_j log(z - rho_j) + d z] + const.

    Purely imaginary coefficients c_j encode log|z - rho_j| terms; mu is the
    additive log-derivative order of the associated flow observable.
    """

    log_terms: tuple  # ((rho, coef), ...)
    lin_coef: float
    const: float
    mu: float

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        total = np.full(z.shape, self.const, dtype=float)
        for rho, c in self.log_terms:
            total = total + np.imag(c * np.log(z - rho))
        total = total + self.lin_coef * np.imag(z)
        return total if total.shape else float(total)


def build_u(model: FlowModel) -> HarmonicU:
    """The harmonic observable of a coupled flow, by partial fractions.

    The holomorphic completion has derivative
    -a (2 + alpha z) / (z sigma(z)) + 2 bb sigma'(z)/sigma(z); the log
    coefficients are its residues.  Every row of FAMILIES has
    sigma(z) = -(1 + s1 z^2): no zero for s1 = 0, else the zeros -+r for
    s1 < 0 and +-ir for s1 > 0, r = |s1|^(-1/2).  At each zero
    rho sigma'(rho) = 2 and 2 bb = a (kappa/2 - 2), so its residue is a times
    kappa/2 - 3 - alpha rho/2, whose real and imaginary parts are computed
    exactly: a residue is left out exactly when both are 0.
    """
    a, alpha, s1 = model.a, model.alpha, model.sigma.c2
    zeros = ()
    if s1:
        r = abs(s1) ** -0.5
        zeros = (complex(-r), complex(r)) if s1 < 0 else (1j * r, -1j * r)
    # residue at 0 of -a(2 + alpha z)/(z sigma): -2a / sigma(0) = 2a
    terms = [(0j, complex(2.0 * a))]
    k, al = Fraction(model.kappa), Fraction(alpha)
    for rho in zeros:
        re = k / 2 - 3 - al * Fraction(rho.real) / 2
        im = -al * Fraction(rho.imag) / 2
        if re or im:
            terms.append((rho, complex(a * float(re), a * float(im))))
    # arg conventions of the closed forms: a term written as arg(x0 - z) for a
    # positive real root x0 equals arg(z - x0) - pi on the upper half-plane
    const = -math.pi * sum(c.real for rho, c in terms if rho.real > 0)
    return HarmonicU(log_terms=tuple(terms), lin_coef=0.0 if zeros else alpha * a,
                     const=const, mu=-2.0 * model.bb)


def _exact_fields(spec: FamilySpec, alpha, B, samples):
    """The checked samples, the family's kappa, alpha and B, and z, z b(z),
    z^2 b'(z) and sigma(z) as polynomials with Fraction coefficients."""
    from numpy.polynomial import Polynomial  # only the identity checks need it
    z = np.asarray(samples, dtype=complex)
    require_upper_half_plane(z)
    b, al, Bc = spec.coefficients(alpha, B)
    poly = lambda *cs: Polynomial([Fraction(c) for c in cs])  # noqa: E731
    return (z, spec.kappa, al, Bc, poly(0, 1), poly(-2, -b.c1, -b.c2, -b.c3),
            poly(2, 0, -b.c2, -2 * b.c3), poly(-1, -spec.sigma.c1, -spec.sigma.c2))


def _d(p):
    # Polynomial.deriv would turn the Fractions into floats
    return type(p)([i * c for i, c in enumerate(p.coef)][1:] or [Fraction(0)])


def _at(p, z):
    """p(z) in floats, read once p has cancelled exactly."""
    return np.polyval(p.coef[::-1].astype(float), z)


def check_annihilation(spec: FamilySpec, alpha, B,
                       samples: Sequence[complex]) -> float:
    """Largest residual of (-L_b + (kappa/2) L_sigma^2) u over samples in the
    open upper half-plane, for the family's u: L_v u = Im[v F' + mu v'] in
    additive order mu, and L_sigma^2 u = Im[sigma (sigma F' + mu sigma')'].

    With s = sqrt(2 kappa), a = s/kappa and bb = s (1/4 - 1/kappa), so
    F' = s p/(z sigma), mu = s mu^ and the operator is s Im[N/(z^2 sigma)],
    for exact polynomials p and N.  Annihilation says N = C z^2 sigma, C real:
    the residual is s |Im R/(z^2 sigma)| for R = N - C z^2 sigma, where C
    cancels N at the top power of z^2 sigma."""
    z, k, al, _, x, zb, z2bp, sig = _exact_fields(spec, alpha, B, samples)
    bbh = Fraction(1, 4) - 1 / k
    mu, sp, zs = -2 * bbh, _d(sig), x * sig
    p = -(2 + al * x) * (1 / k) + 2 * bbh * x * sp
    lie_sigma2 = zs * sp * p + sig * (zs * _d(p) - p * _d(zs)) + mu * _d(sp) * zs * zs
    n = k / 2 * lie_sigma2 - zb * p - mu * z2bp * sig
    z2s = (x * zs).trim()
    top = z2s.degree()
    c = n.coef[top] / z2s.coef[top] if n.degree() >= top else 0
    res = np.imag(_at(n - c * z2s, z) / _at(z2s, z))
    return math.sqrt(2 * float(k)) * float(np.max(np.abs(res)))


def check_bsigma(spec: FamilySpec, alpha, B, samples: Sequence[complex]) -> float:
    """Largest |b - num/(z (alpha z + 2))| over samples in the open upper
    half-plane, where z (alpha z + 2) has no zero, with
    num = -kappa sigma^2 - B z^2 sigma - (kappa/2 - 2) z^2 (b' sigma - b sigma')
    and bb sqrt(2 kappa) = kappa/2 - 2.  Its numerator is formed exactly."""
    z, k, al, Bc, x, zb, z2bp, sig = _exact_fields(spec, alpha, B, samples)
    lin, cross = al * x + 2, z2bp * sig - x * zb * _d(sig)
    num = -k * sig * sig - Bc * x * x * sig - (k / 2 - 2) * cross
    return float(np.max(np.abs(_at(zb * lin - num, z) / _at(x * lin, z))))
