"""Classification of coupled slit flows.

Solves the four-equation linear system tying the b coefficients to
(kappa, sigma, alpha, beta), enumerates the coupled families, builds the
harmonic observable u by partial fractions, and verifies the generator
annihilation and the b-sigma compatibility relation.

The only irrational quantity entering the system is B := beta*sqrt(kappa),
so everything is solved in exact rational arithmetic whenever the inputs
(including B) are rational.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BranchObstructionError,
    DomainError,
    ParameterRangeError,
)
from .fields import FieldCoeffs, eval_field, eval_field_prime


@dataclass(frozen=True)
class CftParams:
    """Central-charge bookkeeping for a given kappa."""

    kappa: float
    a: float = field(init=False)
    bb: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        if self.kappa <= 0:
            raise ParameterRangeError("kappa must be positive")
        a = math.sqrt(2.0 / self.kappa)
        bb = math.sqrt(self.kappa / 8.0) - a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "bb", bb)
        object.__setattr__(self, "c", 1.0 - 12.0 * bb * bb)


@dataclass(frozen=True)
class FlowModel:
    """One slit flow together with its coupled-modification data."""

    kappa: float
    alpha: float
    beta: float
    b: FieldCoeffs
    sigma: FieldCoeffs
    cft: CftParams

    @property
    def B(self) -> float:
        return float(self.beta) * math.sqrt(float(self.kappa))


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


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


def _row_reduce(rows, rhs, exact: bool):
    """Gaussian elimination with rank bookkeeping over Fractions or floats."""
    # coerce every entry: an int pivot would otherwise true-divide into floats
    cast = Fraction if exact else float
    m = [[cast(e) for e in list(r) + [t]] for r, t in zip(rows, rhs)]
    nrow, ncol = len(m), 3
    tol = 0.0 if exact else 1e-11 * max(
        1.0, max(abs(float(e)) for row in m for e in row)
    )
    pivots = []
    r = 0
    for c in range(ncol):
        pivot = max(range(r, nrow), key=lambda i: abs(float(m[i][c])), default=None)
        if pivot is None or abs(float(m[pivot][c])) <= tol:
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
        if r == nrow:
            break
    inconsistent = any(
        all(abs(float(e)) <= tol for e in row[:ncol]) and abs(float(row[ncol])) > max(tol, 1e-9 if not exact else 0)
        for row in m
    )
    x = [Fraction(0) if exact else 0.0] * ncol
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
    """Solve for the b coefficients given (kappa, sigma, alpha, B).

    B = beta*sqrt(kappa) (a Fraction, with rational other inputs, for exact
    arithmetic).  Free coefficients at degenerate kappa give status 'free'
    and are set to zero in the returned particular solution.
    """
    exact = all(_is_exact(v) for v in (kappa, sigma0, sigma1, alpha, B))
    if exact:
        kappa, sigma0, sigma1, alpha, B = (
            Fraction(v) for v in (kappa, sigma0, sigma1, alpha, B)
        )
    else:
        kappa, sigma0, sigma1, alpha, B = (
            float(v) for v in (kappa, sigma0, sigma1, alpha, B)
        )
    rows, rhs = system_matrix(kappa, sigma0, sigma1, alpha, B)
    x, free, inconsistent = _row_reduce(rows, rhs, exact)
    if inconsistent:
        bf = FieldCoeffs("b", *x)
        res = tuple(system_residuals(kappa, sigma0, sigma1, alpha, B, bf))
        return SolveResult("inconsistent", None, res)
    b = FieldCoeffs("b", *x)
    res = tuple(system_residuals(kappa, sigma0, sigma1, alpha, B, b))
    status = "free" if free else "unique"
    return SolveResult(status, b, res)


@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family of coupled flows with exact coefficient formulas."""

    name: str
    kappa: object
    sigma: FieldCoeffs
    parameter: str  # 'alpha' or 'beta'

    def coefficients(self, alpha=0, B=None):
        """Exact (b, alpha, B) for a parameter value; Fractions stay exact."""
        k = self.kappa
        half = Fraction(1, 2) if _is_exact(alpha) and _is_exact(k) else 0.5
        eighth = half / 4
        if self.name == "chordal-drift":
            return FieldCoeffs("b", -alpha, 0 * alpha, 0 * alpha), alpha, alpha * alpha
        if self.name == "parabolic-beta":
            if B is None:
                raise ParameterRangeError("parabolic-beta is parametrized by B")
            if k == 8:
                raise ParameterRangeError("parabolic-beta degenerates at kappa = 8")
            return FieldCoeffs("b", 0 * B, 2 * B / (k - 8), 0 * B), 0 * B, B
        if self.name == "dipolar-drift":
            return (
                FieldCoeffs("b", -alpha, -half, alpha / 4),
                alpha,
                alpha * alpha - 1,
            )
        if self.name.startswith("hyperbolic-beta"):
            if B is None:
                raise ParameterRangeError("hyperbolic-beta is parametrized by B")
            if k == 8:
                raise ParameterRangeError("hyperbolic-beta degenerates at kappa = 8")
            s = 1 if self.name.endswith("(+)") else -1
            al = s * (k - 6) * half
            b0 = (3 - k) * half + 2 * B / (k - 8)
            b1 = -s * eighth * (k - 2 - 8 * B / (k - 8))
            return FieldCoeffs("b", -al, b0, b1), al, B
        if self.name == "radial6-drift":
            return (
                FieldCoeffs("b", -alpha, half, -alpha / 4),
                alpha,
                1 + alpha * alpha,
            )
        raise ParameterRangeError(f"unknown family {self.name!r}")

    def instantiate(self, alpha=0.0, B=None) -> FlowModel:
        k = float(self.kappa)
        if self.parameter == "alpha":
            b, al, Bc = self.coefficients(alpha=alpha)
        else:
            b, al, Bc = self.coefficients(B=B if B is not None else 0)
        beta_val = float(Bc) / math.sqrt(k)
        return FlowModel(
            kappa=k,
            alpha=float(al),
            beta=beta_val,
            b=b,
            sigma=self.sigma,
            cft=CftParams(k),
        )


def enumerate_families(kappa) -> list:
    """The coupled-flow families at this kappa, with exact coefficient formulas."""
    if not kappa > 0:
        raise ParameterRangeError("kappa must be positive")
    exact = _is_exact(kappa)
    k = Fraction(kappa) if exact else float(kappa)
    sig_par = FieldCoeffs("sigma", 0, 0)
    sig_hyp = FieldCoeffs("sigma", 0, Fraction(-1, 4) if exact else -0.25)
    sig_ell = FieldCoeffs("sigma", 0, Fraction(1, 4) if exact else 0.25)
    out = [
        # drift alpha, b = (-alpha, 0, 0), B = alpha^2
        FamilySpec("chordal-drift", k, sig_par, "alpha"),
        # alpha = 0, b = (0, 2B/(kappa-8), 0)
        FamilySpec("parabolic-beta", k, sig_par, "beta"),
        # drift alpha, b = (-alpha, -1/2, alpha/4), B = alpha^2 - 1
        FamilySpec("dipolar-drift", k, sig_hyp, "alpha"),
        # alpha = (kappa-6)/2, b_0 = (3-kappa)/2 + 2B/(kappa-8)
        FamilySpec("hyperbolic-beta(+)", k, sig_hyp, "beta"),
        # alpha = -(kappa-6)/2, b_0 = (3-kappa)/2 + 2B/(kappa-8)
        FamilySpec("hyperbolic-beta(-)", k, sig_hyp, "beta"),
    ]
    if k == 6:
        # kappa = 6 only; b = (-alpha, 1/2, -alpha/4), B = 1 + alpha^2
        out.append(FamilySpec("radial6-drift", k, sig_ell, "alpha"))
    return out


@dataclass(frozen=True)
class HarmonicU:
    """Harmonic observable u(z) = Im[sum c_j log(z - rho_j) + d z] + const.

    Purely imaginary coefficients c_j encode log|z - rho_j| terms.  The
    holomorphic completion F with u = Im F + const is exposed through
    holo_prime and holo_second; mu is the additive log-derivative order of
    the associated flow observable.
    """

    log_terms: tuple  # ((rho, coef), ...)
    lin_coef: float = 0.0
    const: float = 0.0
    mu: float = 0.0

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
    a = model.cft.a
    bb = model.cft.bb
    alpha = float(model.alpha)
    sigma = model.sigma
    roots = _sigma_roots(sigma)
    if len(roots) == 2 and abs(roots[0] - roots[1]) < 1e-12:
        raise ParameterRangeError(
            "sigma has a double zero; u is not implemented for this degenerate class"
        )
    # residue at 0 of -a(2 + alpha z)/(z sigma): -2a / sigma(0) = 2a
    terms = [(0.0 + 0.0j, complex(2.0 * a))]
    for rho in roots:
        sp = eval_field_prime(sigma, rho)
        c = -a * (2.0 + alpha * rho) / (rho * sp) + 2.0 * bb
        if rho.imag > 1e-12:
            if abs(c.real) > 1e-9:
                raise BranchObstructionError(
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


def lie_b_u(model: FlowModel, u: HarmonicU, z):
    """Closed-form Lie derivative of u along b (additive order mu)."""
    b = model.b
    return np.imag(
        eval_field(b, z) * u.holo_prime(z) + u.mu * eval_field_prime(b, z)
    )


def lie_sigma2_u(model: FlowModel, u: HarmonicU, z):
    """Second Lie derivative of u along sigma (the first one is a scalar field)."""
    s = model.sigma
    z = np.asarray(z, dtype=complex)
    sp = eval_field_prime(s, z)
    ss = s.second(z)
    g_prime = sp * u.holo_prime(z) + eval_field(s, z) * u.holo_second(z) + u.mu * ss
    return np.imag(eval_field(s, z) * g_prime)


def check_annihilation(model: FlowModel, u: HarmonicU, samples: Sequence[complex]):
    """Per-sample residual of (-L_b + (kappa/2) L_sigma^2) u."""
    z = np.asarray(samples, dtype=complex)
    if np.any(z.imag <= 0):
        raise DomainError("samples must lie in the upper half-plane")
    res = -lie_b_u(model, u, z) + 0.5 * model.kappa * lie_sigma2_u(model, u, z)
    res = np.abs(res)
    return {"max": float(np.max(res)), "residuals": res}


def check_bsigma(model: FlowModel, samples: Sequence[complex]):
    """Per-sample residual of the b-sigma compatibility relation."""
    z = np.asarray(samples, dtype=complex)
    k = float(model.kappa)
    alpha = float(model.alpha)
    B = model.B
    denom = z * (alpha * z + 2.0)
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
    return {"max": float(np.max(res)) if res.size else 0.0, "residuals": res,
            "skipped": int(np.sum(~keep))}
