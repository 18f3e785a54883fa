"""Classification of coupled slit flows.

Solves the four-equation linear system tying the b coefficients to
(kappa, sigma, alpha, beta), enumerates the coupled families and their
round trip through it, builds the harmonic observable u by partial fractions,
and checks the generator annihilation and the b-sigma relation to IDENTITY_TOL.

The only irrational quantity entering the system is B := beta*sqrt(kappa),
so the system is written in B and solved in exact rational arithmetic: a
float input enters as the binary fraction it stores.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .fields import FieldCoeffs, eval_field, eval_field_prime

IDENTITY_TOL = 1e-8  # gate of check_annihilation and check_bsigma


@dataclass(frozen=True)
class FlowModel:
    """One slit flow together with its coupled-modification data, in
    floats; B is beta*sqrt(kappa), and kappa fixes the CFT constants
    a = sqrt(2/kappa) and bb = sqrt(kappa/8) - a."""

    kappa: float
    alpha: float
    B: float
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
        for a float (B = alpha^2 at |alpha| > 1.3e154) is an InputError.
        """
        if self.parameter == "beta" and self.kappa == 8:
            family = self.name.split("(")[0]
            raise InputError(f"{family} degenerates at kappa = 8")
        p = Fraction(alpha if self.parameter == "alpha" else B)
        b, al, Bc = FAMILIES[self.name][2](self.kappa, p)
        try:
            for c in (*b, al, Bc):
                float(c)
        except OverflowError:
            raise InputError(f"{self.name} coefficients overflow a float") from None
        return FieldCoeffs("b", *b), al, Bc

    def instantiate(self, alpha, B) -> FlowModel:
        """The float flow model; alpha and B are read as coefficients() reads them."""
        b, al, Bc = self.coefficients(alpha, B)
        return FlowModel(kappa=float(self.kappa), alpha=float(al),
                         B=float(Bc), b=b.as_float(),
                         sigma=self.sigma.as_float())


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

    Purely imaginary coefficients c_j encode log|z - rho_j| terms.  The
    holomorphic completion F with u = Im F + const is exposed through
    holo_prime and holo_second; mu is the additive log-derivative order of
    the associated flow observable.
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

    def holo_prime(self, z):
        z = np.asarray(z, dtype=complex)
        total = np.full(z.shape, self.lin_coef, dtype=complex)
        for rho, c in self.log_terms:
            total = total + c / (z - rho)
        return total if total.shape else complex(total)

    def holo_second(self, z):
        z = np.asarray(z, dtype=complex)
        total = np.zeros(z.shape, dtype=complex)
        for rho, c in self.log_terms:
            total = total - c / (z - rho) ** 2
        return total if total.shape else complex(total)


def _sigma_roots(sigma: FieldCoeffs):
    s0, s1 = float(sigma.c1), float(sigma.c2)
    if s1 == 0.0:
        if s0 == 0.0:
            return []
        return [complex(-1.0 / s0)]
    disc = complex(s0 * s0 - 4.0 * s1)
    r = cmath.sqrt(disc)
    return [(-s0 + r) / (2.0 * s1), (-s0 - r) / (2.0 * s1)]


def build_u(model: FlowModel) -> HarmonicU:
    """The harmonic observable of a coupled flow, by partial fractions.

    The holomorphic completion has derivative
    -a (2 + alpha z) / (z sigma(z)) + 2 bb sigma'(z)/sigma(z); the log
    coefficients are its residues.  A root of sigma inside the upper
    half-plane whose combined coefficient has a nonzero real part makes u
    discontinuous there, which is reported as a branch obstruction.
    """
    a = model.a
    bb = model.bb
    alpha = model.alpha
    sigma = model.sigma
    roots = _sigma_roots(sigma)
    if len(roots) == 2 and abs(roots[0] - roots[1]) < 1e-12:
        raise InputError(
            "sigma has a double zero; u is not implemented for this degenerate class"
        )
    # residue at 0 of -a(2 + alpha z)/(z sigma): -2a / sigma(0) = 2a
    terms = [(0.0 + 0.0j, complex(2.0 * a))]
    for rho in roots:
        sp = eval_field_prime(sigma, rho)
        c = -a * (2.0 + alpha * rho) / (rho * sp) + 2.0 * bb
        if rho.imag > 1e-12:
            if abs(c.real) > 1e-9:
                raise NumericalError(
                    "no continuous branch of u on the upper half-plane: root "
                    f"{rho:.6g} carries log coefficient {c:.6g}"
                )
            c = 1j * c.imag
        elif abs(rho.imag) <= 1e-12:
            rho = complex(rho.real, 0.0)
            c = complex(c.real, c.imag if abs(c.imag) > 1e-12 else 0.0)
        if abs(c) > 1e-12:
            terms.append((rho, c))
    # arg conventions of the closed forms: a term written as arg(x0 - z) for a
    # positive real root x0 equals arg(z - x0) - pi on the upper half-plane
    const = -math.pi * sum(
        c.real for rho, c in terms if rho.imag == 0.0 and rho.real > 0
    )
    lin = alpha * a if not roots else 0.0
    return HarmonicU(
        log_terms=tuple(terms),
        lin_coef=lin,
        const=const,
        mu=-2.0 * bb,
    )


def check_annihilation(model: FlowModel, samples: Sequence[complex]) -> float:
    """Largest residual of (-L_b + (kappa/2) L_sigma^2) u over the samples,
    for u = build_u(model).  L_v u = Im[v F' + mu v'] in additive order mu;
    L_sigma u is a scalar field, so L_sigma^2 u = Im[sigma (sigma F' + mu sigma')']."""
    z = np.asarray(samples, dtype=complex)
    if np.any(z.imag <= 0):
        raise InputError("samples must lie in the upper half-plane")
    u, b, s = build_u(model), model.b, model.sigma
    lie_b = np.imag(eval_field(b, z) * u.holo_prime(z) + u.mu * eval_field_prime(b, z))
    g_prime = (eval_field_prime(s, z) * u.holo_prime(z)
               + eval_field(s, z) * u.holo_second(z) + u.mu * s.second(z))
    res = -lie_b + 0.5 * model.kappa * np.imag(eval_field(s, z) * g_prime)
    return float(np.max(np.abs(res)))


def check_bsigma(model: FlowModel, samples: Sequence[complex]) -> float:
    """Largest residual of the b-sigma compatibility relation over the
    samples away from the zeros of z (alpha z + 2)."""
    z = np.asarray(samples, dtype=complex)
    k, B = model.kappa, model.B
    denom = z * (model.alpha * z + 2.0)
    keep = np.abs(denom) > 1e-8
    z = z[keep]
    denom = denom[keep]
    b = eval_field(model.b, z)
    s = eval_field(model.sigma, z)
    bp = eval_field_prime(model.b, z)
    sp = eval_field_prime(model.sigma, z)
    # bb*sqrt(2 kappa) = kappa/2 - 2 exactly
    num = -k * s * s - B * z * z * s - (k / 2.0 - 2.0) * z * z * (bp * s - b * sp)
    res = np.abs(b - num / denom)
    return float(np.max(res)) if res.size else 0.0
