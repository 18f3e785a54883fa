"""Time-discretized simulation of slit flows.

Driving paths, one adaptive RK4 segment integrator for the chordal Loewner
equation that serves both its forward solution and its inverse map (the
same equation run backward in time), and the vectorized
Euler-Maruyama ensemble for the general flow SDE with derivative tracking
through log w'.  The ensemble folds the Ito drifts of (w, log w')
into one fixed Laurent polynomial each per model and steps the real and
imaginary parts of the state in preallocated float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .conformal import require_upper_half_plane
from .errors import (
    ParameterRangeError,
    ReversalInstabilityError,
    StepExplosionError,
)

# the benchmark tracer (perfbench/spans.py) wraps these two names in this
# module, so they stay reachable here; nothing in this module calls them
eval_field = fields.eval_field
eval_field_prime = fields.eval_field_prime

EPS_SWALLOW = 1e-4
R_MAX = 1e6
C_SING = 0.1  # dt_eff = min(dt, C_SING * |distance to singularity|^2)


def _n_steps(T: float, dt: float) -> int:
    """Number of steps of size dt from 0 to the horizon T; dt must divide T."""
    if not 0.0 < dt <= T < math.inf:
        raise ParameterRangeError("need 0 < dt <= T < inf")
    n = round(T / dt)
    if abs(n * dt - T) > 1e-9 * T:
        raise ParameterRangeError(f"dt = {dt:g} does not divide T = {T:g}")
    return n


@dataclass(frozen=True)
class DrivingPath:
    """A driving function xi sampled on the uniform grid 0, dt, ..., T and
    linear between grid points."""

    dt: float
    times: np.ndarray
    values: np.ndarray

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def zero_driving(kappa: float, alpha: float, T: float, dt: float) -> DrivingPath:
    """Noise-free driving (xi_t = alpha t), for deterministic checks; kappa
    plays no part without noise."""
    n = _n_steps(T, dt)
    times = dt * np.arange(n + 1)
    return DrivingPath(dt, times, alpha * times)


@dataclass
class FlowPath:
    """One trajectory of (w_t(z0), log w'_t(z0)) on the driving grid."""

    w: np.ndarray
    log_wp: np.ndarray

    def last_alive_index(self) -> int:
        return int(np.sum(np.isfinite(self.w.real))) - 1


def _loewner_segment(g: complex, lp: complex, s: float, s_end: float,
                     t0: float, dt: float, x0: float, x1: float):
    """Adaptive RK4 for (g, log g') under dg/dt = 2/(g - xi_t) from time s
    to s_end, forward or backward, inside the grid segment [t0, t0 + dt] on
    which xi runs linearly from x0 to x1.

    Each step is clamped to C_SING |g - xi_s|^2, the distance to the driving
    value at the starting time s.  Returns (g, log g', reached), where
    reached is False when g came within EPS_SWALLOW of xi_s.
    """
    def xi(t):
        fr = (t - t0) / dt
        return (1.0 - fr) * x0 + fr * x1

    def rate(g, t):
        z = g - xi(t)
        return 2.0 / z, -2.0 / (z * z)

    xs = xi(s)
    sign = 1.0 if s_end >= s else -1.0
    t = s
    while sign * (s_end - t) > 1e-15:
        d = abs(g - xs)
        if d < EPS_SWALLOW:
            return g, lp, False
        h = sign * min(sign * (s_end - t), max(C_SING * d * d, 1e-12))
        k1, l1 = rate(g, t)
        k2, l2 = rate(g + h / 2 * k1, t + h / 2)
        k3, l3 = rate(g + h / 2 * k2, t + h / 2)
        k4, l4 = rate(g + h * k3, t + h)
        g = g + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        lp = lp + (h / 6) * (l1 + 2 * l2 + 2 * l3 + l4)
        t += h
    return g, lp, True


def chordal_loewner(driving: DrivingPath, z0: complex) -> FlowPath:
    """Solve the chordal Loewner ODE dg/dt = 2/(g - xi_t) at a point of the
    upper half-plane.

    The state (g, log g') is advanced segment by segment of the driving grid
    by _loewner_segment.  Samples of w_t = g_t - xi_t and log g'_t are
    returned on the grid.
    """
    require_upper_half_plane(z0)
    times, xi = driving.times, driving.values
    n = len(times) - 1
    w_arr, lp_arr = np.full((2, n + 1), np.nan + 0j)
    w_arr[0], lp_arr[0] = z0, 0.0
    # numpy complex scalars: numpy rounds complex division unlike Python's
    # complex type, and the solver's results are pinned to numpy's rounding
    g, lp = np.complex128(z0), np.complex128(0)
    for i in range(n):
        g, lp, ok = _loewner_segment(g, lp, times[i], times[i + 1], times[i],
                                     driving.dt, xi[i], xi[i + 1])
        w = g - xi[i + 1]
        if not ok or abs(w) < EPS_SWALLOW:
            break
        if not g.imag >= 0.0:
            raise StepExplosionError("Loewner solution left its domain")
        w_arr[i + 1] = w
        lp_arr[i + 1] = lp
    return FlowPath(w_arr, lp_arr)


def inverse_map(driving: DrivingPath, z0: complex, t: float) -> complex:
    """Evaluate g_t^{-1}(z0): the Loewner equation integrated backward from
    time t to 0 by _loewner_segment, starting with the partial grid segment
    that holds t when t is off the grid.  z0 must lie in the upper
    half-plane.
    """
    require_upper_half_plane(z0)
    if t < 0 or t > driving.horizon + 1e-12:
        raise ParameterRangeError(f"time {t} outside the driving horizon")
    times, xi = driving.times, driving.values
    # grid segment i spans [times[i], times[i + 1]]; t lies in segment k
    k = min(int(np.searchsorted(times, t)), len(times) - 1) - 1
    z, s = np.complex128(z0), t
    for i in range(k, -1, -1):
        z, _, ok = _loewner_segment(z, 0j, s, times[i], times[i], driving.dt,
                                    xi[i], xi[i + 1])
        if not ok or z.imag <= 0:
            raise ReversalInstabilityError(
                f"backward integration left the upper half-plane at t={t}"
            )
        s = times[i]
    return complex(z)


@dataclass
class EnsembleResult:
    """Terminal state of a vectorized flow ensemble, frozen at swallowing."""

    points: np.ndarray       # (P,) seed points
    w: np.ndarray            # (n_paths, P) terminal map values
    log_wp: np.ndarray       # (n_paths, P) terminal log-derivatives
    alive: np.ndarray        # (n_paths, P) False where frozen before T
    horizon: float
    dt: float


def _fold(drift, noise, dt: float, sqk: float) -> list:
    """Per power of w, the pair (drift * dt, noise * sqrt(kappa)); trailing
    powers where both vanish are dropped."""
    terms = [(d * dt, s * sqk) for d, s in zip(drift, noise)]
    while terms and terms[-1] == (0.0, 0.0):
        terms.pop()
    return terms


def _add_poly(terms, db, x, y, out_re, out_im, re, im, t1, t2) -> None:
    """Add sum_j (d_j + s_j dB) z^j at z = x + iy to (out_re, out_im).

    Horner in real arithmetic on preallocated buffers (re, im, t1, t2 are
    scratch); dB is the (n_paths, 1) column of the step's increments, and
    coefficients that vanish are skipped.
    """
    c = [d + s * db if s else (d or None) for d, s in terms]
    if not c:
        return
    n = len(c) - 1
    if n:
        np.multiply(c[n], x, out=re)
        np.multiply(c[n], y, out=im)
        for cj in c[n - 1:0:-1]:
            if cj is not None:
                re += cj
            np.multiply(re, y, out=t1)
            np.multiply(im, y, out=t2)
            re *= x
            re -= t2
            im *= x
            im += t1
        out_re += re
        out_im += im
    if c[0] is not None:
        out_re += c[0]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def simulate_ensemble(model, points, n_paths: int, T: float, dt: float,
                      rng, callback=None) -> EnsembleResult:
    """Euler-Maruyama ensemble of the flow SDE in Ito form.

    With b = -(2/w + b_{-1} + b_0 w + b_1 w^2), sigma = -(1 + s_0 w + s_1 w^2)
    and k = kappa/2, the Ito drifts -b + k sigma sigma' of w and
    -b' + k sigma sigma'' of log w' are the fixed Laurent polynomials
    2/w + P(w) and -2/w^2 + Q(w), with
    P = (b_{-1} + k s_0, b_0 + k(2 s_1 + s_0^2), b_1 + 3k s_0 s_1, 2k s_1^2) and
    Q = (b_0 + kappa s_1, 2 b_1 + kappa s_0 s_1, kappa s_1^2); the noise
    coefficients are sigma and sigma' = -(s_0 + 2 s_1 w).  They are folded
    once per call, and each step evaluates them by Horner on the real and
    imaginary parts of (w, log w') held in preallocated float arrays.

    All seed points of one path share the Brownian increment.  A (path,
    point) entry freezes once it comes within the resolvable distance of the
    pole at the origin or leaves the upper half-plane; it then keeps its last
    state, which lies off the pole.  Freezing at a state-dependent time keeps
    stopped functionals unbiased.  ``callback(i, t, x, y, lr, li, alive)``
    runs before the first step and after every step when given, with
    w = x + iy and log w' = lr + i li.  Its arrays are read-only views of the
    live state buffers: the same objects on every call, overwritten by the
    next step, so a caller copies what it keeps.  Seed points must lie in the
    open upper half-plane (DomainError otherwise).
    """
    n_steps = _n_steps(T, dt)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.SeedSequence(rng))
    bm1, b0, b1 = model.b.as_float().coeffs
    s0, s1 = model.sigma.as_float().coeffs
    kappa = float(model.kappa)
    k = 0.5 * kappa
    sqk = math.sqrt(kappa)
    w_terms = _fold(
        (bm1 + k * s0, b0 + k * (2.0 * s1 + s0 * s0), b1 + 3.0 * k * s0 * s1,
         2.0 * k * s1 * s1),
        (-1.0, -s0, -s1, 0.0), dt, sqk)
    l_terms = _fold(
        (b0 + kappa * s1, 2.0 * b1 + kappa * s0 * s1, kappa * s1 * s1),
        (-s0, -2.0 * s1, 0.0), dt, sqk)
    pts = np.asarray(points, dtype=complex).ravel()
    require_upper_half_plane(pts)
    shape = (n_paths, pts.size)
    x = np.tile(pts.real, (n_paths, 1))
    y = np.tile(pts.imag, (n_paths, 1))
    lr, li = np.zeros(shape), np.zeros(shape)
    xn, yn, lrn, lin, a, b, c, d = (np.empty(shape) for _ in range(8))
    alive = np.ones(shape, dtype=bool)
    freeze_r2 = max(EPS_SWALLOW, math.sqrt(dt / C_SING)) ** 2
    live = tuple(v.view() for v in (x, y, lr, li, alive))
    for v in live:
        v.flags.writeable = False
    if callback is not None:
        callback(0, 0.0, *live)
    for i in range(n_steps):
        db = rng.standard_normal((n_paths, 1)) * math.sqrt(dt)
        # the poles: 2 dt/w = g conj(w) and -2 dt/w^2 = -h conj(w)^2, with
        # g = 2 dt/|w|^2 in d and h = g/|w|^2 in c
        np.multiply(x, x, out=a)
        np.multiply(y, y, out=b)
        np.add(a, b, out=c)
        np.divide(2.0 * dt, c, out=d)
        np.divide(d, c, out=c)
        a -= b
        np.multiply(c, a, out=lrn)
        np.subtract(lr, lrn, out=lrn)
        np.multiply(x, y, out=lin)
        lin *= c
        lin *= 2.0
        lin += li
        np.multiply(d, x, out=xn)
        xn += x
        np.multiply(d, y, out=yn)
        np.subtract(y, yn, out=yn)
        _add_poly(w_terms, db, x, y, xn, yn, a, b, c, d)
        _add_poly(l_terms, db, x, y, lrn, lin, a, b, c, d)
        np.multiply(xn, xn, out=a)
        np.multiply(yn, yn, out=b)
        a += b
        alive &= ~((yn <= 0.0) | (a < freeze_r2))
        if np.max(a, where=alive, initial=0.0) > R_MAX * R_MAX:
            raise StepExplosionError("ensemble trajectory left the safe radius")
        np.copyto(x, xn, where=alive)
        np.copyto(y, yn, where=alive)
        np.copyto(lr, lrn, where=alive)
        np.copyto(li, lin, where=alive)
        if callback is not None:
            callback(i + 1, (i + 1) * dt, *live)
    return EnsembleResult(pts, _complex(x, y), _complex(lr, li), alive,
                          float(n_steps * dt), dt)
