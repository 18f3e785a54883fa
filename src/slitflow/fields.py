"""Driving vector fields of the flow and their Lie calculus.

The two field shapes are

    b(z) = -(2/z + b_{-1} + b_0 z + b_1 z^2),
    sigma(z) = -(1 + sigma_0 z + sigma_1 z^2),

with real coefficients.  This module evaluates them and computes Lie
derivatives of scalar fields, numerically and in closed form on the
half-plane Green's function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericalError

H_FD_SCALE = 1e-5
TOL_FD = 1e-6
COINCIDENT_TOL = 1e-13  # relative distance below which two points coincide
HADAMARD_TOL = {"sigma": 1e-12, "b": 1e-10}  # gates of hadamard_residual


@dataclass(frozen=True)
class FieldCoeffs:
    """Coefficients of a normalized b-field or sigma-field.

    kind 'b' uses (c1, c2, c3) = (b_{-1}, b_0, b_1); kind 'sigma' uses
    (c1, c2) = (sigma_0, sigma_1) and leaves c3 at 0.
    Coefficients may be floats or Fractions; evaluation reads them as floats.
    """

    kind: str
    c1: float
    c2: float
    c3: float = 0

    @property
    def coeffs(self) -> tuple:
        if self.kind == "b":
            return (self.c1, self.c2, self.c3)
        return (self.c1, self.c2)

    def second(self, z):
        """Second derivative at z; a sigma-field's is the constant -2 sigma_1."""
        if self.kind == "b":
            return -4.0 / np.asarray(z, dtype=complex) ** 3 - 2.0 * float(self.c3)
        return -2.0 * float(self.c2)

    def as_float(self) -> "FieldCoeffs":
        return FieldCoeffs(self.kind, float(self.c1), float(self.c2), float(self.c3))


def _check_nonzero(z) -> None:
    if np.any(np.asarray(z) == 0):
        raise InputError("b-field has a pole at z = 0")


def eval_field(c: FieldCoeffs, z):
    """Evaluate the field at z (scalar or array)."""
    if c.kind == "b":
        _check_nonzero(z)
        z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
        return -(2.0 / z + float(c.c1) + float(c.c2) * z + float(c.c3) * z * z)
    z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
    return -(1.0 + float(c.c1) * z + float(c.c2) * z * z)


def eval_field_prime(c: FieldCoeffs, z):
    """Derivative of the field at z."""
    if c.kind == "b":
        _check_nonzero(z)
        z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
        return 2.0 / (z * z) - float(c.c2) - 2.0 * float(c.c3) * z
    z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
    return -float(c.c1) - 2.0 * float(c.c2) * z


def _wirtinger(f: Callable, nodes: tuple, k: int, h: float):
    """Central-difference Wirtinger derivatives (d, dbar) of f in node k."""
    zs = list(nodes)
    z = zs[k]

    def at(dz):
        zs[k] = z + dz
        return complex(f(*zs))

    fx = (at(h) - at(-h)) / (2.0 * h)
    fy = (at(1j * h) - at(-1j * h)) / (2.0 * h)
    zs[k] = z
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def lie_derivative(v: FieldCoeffs, f: Callable, nodes: Sequence[complex]) -> complex:
    """Multi-node Lie derivative of a scalar field f(z_1, ..., z_n):

        sum_k v(z_k) d_k f + conj(v(z_k)) dbar_k f.

    The Wirtinger derivatives are central finite differences with a
    two-step consistency check.
    """
    nodes = tuple(complex(z) for z in nodes)
    total = 0.0 + 0.0j
    for k, z in enumerate(nodes):
        h = H_FD_SCALE * max(1.0, abs(z))
        d1, db1 = _wirtinger(f, nodes, k, h)
        d2, db2 = _wirtinger(f, nodes, k, h / 2.0)
        scale = max(1.0, abs(d2), abs(db2))
        if abs(d1 - d2) > TOL_FD * scale or abs(db1 - db2) > TOL_FD * scale:
            raise NumericalError(
                f"finite-difference estimates disagree at node {z}"
            )
        vk = eval_field(v, z)
        total += vk * d2 + np.conj(vk) * db2
    return total


def lie_green_closed(v: FieldCoeffs, z1, z2):
    """Closed-form Lie derivative of the half-plane Green's function along v,
    acting on both points, elementwise for arrays:

        Re[v(z1)/(z1 - conj z2) + v(z2)/(z2 - conj z1) - (v(z1) - v(z2))/(z1 - z2)].

    It vanishes for sigma-fields and equals 4 Im(1/z1) Im(1/z2) for b-fields.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    scale = np.maximum(np.maximum(np.abs(z1), np.abs(z2)), 1.0)
    close = np.flatnonzero(np.abs(z1 - z2) < COINCIDENT_TOL * scale)
    if close.size:  # name the first pair only: the arrays may be long
        p1, p2 = (np.broadcast_to(z, scale.shape).flat[close[0]] for z in (z1, z2))
        raise InputError(f"coincident points {p1}, {p2} (flat index {close[0]})")
    v1, v2 = eval_field(v, z1), eval_field(v, z2)
    return np.real(v1 / (z1 - np.conj(z2)) + v2 / (z2 - np.conj(z1))
                   - (v1 - v2) / (z1 - z2))


def hadamard_residual(v: FieldCoeffs, z1, z2):
    """|lie_green_closed(v, z1, z2) - its Hadamard value|, elementwise: the
    value is 0 for sigma-fields and 4 Im(1/z1) Im(1/z2) for b-fields."""
    lie = lie_green_closed(v, z1, z2)
    if v.kind == "b":
        lie = lie - 4.0 * np.imag(1 / z1) * np.imag(1 / z2)
    return np.abs(lie)
