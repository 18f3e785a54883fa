"""Time-discretized simulation of slit flows.

Driving processes, one adaptive RK4 driver for the noise-free chordal and
strip Loewner equations, the backward (inverse-map) flow, and the
vectorized Euler-Maruyama ensemble for the general flow SDE (with
derivative tracking through log w').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import require_upper_half_plane
from .errors import (
    DomainError,
    ParameterRangeError,
    ReversalInstabilityError,
    StepExplosionError,
)
from .fields import eval_field, eval_field_prime

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
    """A sampled driving process xi_t = sqrt(kappa) B_t + alpha t."""

    kappa: float
    alpha: float
    dt: float
    times: np.ndarray
    values: np.ndarray

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def xi_at(self, t: float) -> float:
        """Linear interpolation between grid points."""
        return float(np.interp(t, self.times, self.values))


def sample_driving(kappa: float, alpha: float, T: float, dt: float,
                   seed) -> DrivingPath:
    """Sample a driving path on a uniform grid from a 64-bit seed or a Generator."""
    n = _n_steps(T, dt)
    times = dt * np.arange(n + 1)
    rng = seed
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    db = rng.standard_normal(n) * math.sqrt(dt)
    values = np.empty(n + 1)
    values[0] = 0.0
    np.cumsum(math.sqrt(kappa) * db, out=values[1:])
    values[1:] += alpha * times[1:]
    return DrivingPath(kappa, alpha, dt, times, values)


def zero_driving(kappa: float, alpha: float, T: float, dt: float) -> DrivingPath:
    """Noise-free driving (xi_t = alpha t), for deterministic checks."""
    n = _n_steps(T, dt)
    times = dt * np.arange(n + 1)
    return DrivingPath(kappa, alpha, dt, times, alpha * times)


@dataclass
class FlowPath:
    """One trajectory of (w_t(z0), log w'_t(z0)) on the driving grid."""

    z0: complex
    times: np.ndarray
    w: np.ndarray
    log_wp: np.ndarray
    swallow_time: float

    def last_alive_index(self) -> int:
        return int(np.sum(np.isfinite(self.w.real))) - 1


def _rk4_segment(f, y, t0, t1, sing_dist):
    """Adaptive RK4 from t0 to t1 with the dt_eff step clamp.

    f(t, y) is the full right side; sing_dist(y) the distance to the
    singularity controlling the clamp.  Returns (y, reached) where reached
    is False when the state hit the swallow threshold.
    """
    t = t0
    while t < t1 - 1e-15:
        d = sing_dist(y)
        if d < EPS_SWALLOW:
            return y, False
        h = min(t1 - t, max(C_SING * d * d, 1e-12))
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y, True


def _loewner(driving: DrivingPath, z0: complex, field, im_max: float) -> FlowPath:
    """Solve dg/dt = v(g - xi_t) at a single point of {0 < Im z < im_max}.

    field(Z) returns (v(Z), v'(Z)); the state (g, log g') is advanced by
    adaptive RK4 with the driving path linearly interpolated between grid
    points.  Samples of Z_t = g_t - xi_t and log g'_t are returned on the grid.
    """
    z0 = complex(z0)
    if not 0.0 < z0.imag < im_max:
        raise DomainError(f"seed point must satisfy 0 < Im z < {im_max}: {z0}")
    times, xi = driving.times, driving.values
    n = len(times) - 1
    w_arr = np.full(n + 1, np.nan + 0j)
    lp_arr = np.full(n + 1, np.nan + 0j)
    w_arr[0] = z0
    lp_arr[0] = 0.0
    # state y = (g, log g')
    y = np.array([z0, 0.0], dtype=complex)
    swallow = math.inf

    def xi_lin(t, i):
        fr = (t - times[i]) / driving.dt
        return (1.0 - fr) * xi[i] + fr * xi[i + 1]

    for i in range(n):
        def rhs(t, y, i=i):
            return np.array(field(y[0] - xi_lin(t, i)), dtype=complex)

        def dist(y, i=i):
            # worst-case distance to xi over the segment is what matters;
            # the current distance is a cheap safe proxy for the clamp
            return abs(y[0] - xi[i])

        y, ok = _rk4_segment(rhs, y, times[i], times[i + 1], dist)
        w = y[0] - xi[i + 1]
        if not ok or abs(w) < EPS_SWALLOW:
            swallow = float(times[i + 1])
            break
        if not 0.0 <= y[0].imag <= im_max + 1e-9:
            raise StepExplosionError("Loewner solution left its domain")
        w_arr[i + 1] = w
        lp_arr[i + 1] = y[1]
    return FlowPath(z0, times, w_arr, lp_arr, swallow)


def _chordal_field(z):
    return 2.0 / z, -2.0 / (z * z)


def chordal_loewner(driving: DrivingPath, z0: complex) -> FlowPath:
    """Solve the chordal Loewner ODE dg/dt = 2/(g - xi_t) at a point of the
    upper half-plane; samples w_t = g_t - xi_t and log g'_t on the grid."""
    return _loewner(driving, z0, _chordal_field, math.inf)


def coth_half(z: complex) -> complex:
    """coth(z/2) in a form stable for large |Re z| and for tiny |z|."""
    x, y = z.real, z.imag
    if abs(x) > 40.0:
        return complex(math.copysign(1.0, x), 0.0)
    # cancellation-free form of cosh(x) - cos(y); the naive difference
    # rounds to exactly zero once |z| drops below ~1e-8
    den = 2.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * y) ** 2)
    return complex(math.sinh(x) / den, -math.sin(y) / den)


def _dipolar_field(z):
    c = coth_half(z)
    # d/dZ coth(Z/2) = -1/(2 sinh^2(Z/2)) = (1 - coth^2(Z/2))/2
    return c, 0.5 * (1.0 - c * c)


def dipolar_loewner(driving: DrivingPath, z0: complex) -> FlowPath:
    """Solve the strip Loewner ODE dg/dt = coth((g - xi_t)/2) at a point of
    the strip {0 < Im z < pi}; samples Z_t = g_t - xi_t and log g'_t."""
    return _loewner(driving, z0, _dipolar_field, math.pi)


def inverse_map(driving: DrivingPath, z0: complex, t: float) -> complex:
    """Evaluate g_t^{-1}(z0) by the backward flow dz/ds = -2/(z - xi_{t-s}).

    Adaptive RK4 on [0, t]; z0 must lie in the upper half-plane.
    """
    z0 = complex(z0)
    if z0.imag <= 0:
        raise DomainError(f"backward flow starts in the upper half-plane: {z0}")
    if t < 0 or t > driving.horizon + 1e-12:
        raise ParameterRangeError(f"time {t} outside the driving horizon")
    z = z0
    s = 0.0
    while s < t - 1e-15:
        d = abs(z - driving.xi_at(t - s))
        h = min(driving.dt, t - s, max(C_SING * d ** 2, 1e-10))

        def rhs(s_loc, zz):
            return -2.0 / (zz - driving.xi_at(t - s_loc))

        k1 = rhs(s, z)
        k2 = rhs(s + h / 2, z + h / 2 * k1)
        k3 = rhs(s + h / 2, z + h / 2 * k2)
        k4 = rhs(s + h, z + h * k3)
        z = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if z.imag <= 0:
            raise ReversalInstabilityError(
                f"backward integration left the upper half-plane at t={t}"
            )
        s += h
    return z


@dataclass
class EnsembleResult:
    """Terminal state of a vectorized flow ensemble, frozen at swallowing."""

    points: np.ndarray       # (P,) seed points
    w: np.ndarray            # (n_paths, P) terminal map values
    log_wp: np.ndarray       # (n_paths, P) terminal log-derivatives
    alive: np.ndarray        # (n_paths, P) False where frozen before T
    horizon: float
    dt: float


def simulate_ensemble(model, points, n_paths: int, T: float, dt: float,
                      rng, callback=None) -> EnsembleResult:
    """Euler-Maruyama ensemble of the flow SDE in Ito form.

    All seed points of one path share the Brownian increment.  A (path,
    point) entry freezes once it comes within the resolvable distance of the
    pole at the origin or leaves the upper half-plane; freezing at a state-
    dependent time keeps stopped functionals unbiased.  ``callback(i, t, w,
    log_wp, alive)`` runs after every step when given.  Seed points must lie
    in the open upper half-plane (DomainError otherwise).
    """
    n_steps = _n_steps(T, dt)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.SeedSequence(rng))
    b = model.b.as_float()
    sigma = model.sigma.as_float()
    kappa = float(model.kappa)
    sqk = math.sqrt(kappa)
    pts = np.asarray(points, dtype=complex).ravel()
    require_upper_half_plane(pts)
    w = np.broadcast_to(pts, (n_paths, pts.size)).copy()
    log_wp = np.zeros_like(w)
    alive = np.ones(w.shape, dtype=bool)
    freeze_r2 = max(EPS_SWALLOW, math.sqrt(dt / C_SING)) ** 2
    if callback is not None:
        callback(0, 0.0, w, log_wp, alive)
    for i in range(n_steps):
        db = rng.standard_normal((n_paths, 1)) * math.sqrt(dt)
        ws = np.where(alive, w, 1.0 + 1.0j)
        bv = eval_field(b, ws)
        bp = eval_field_prime(b, ws)
        sv = eval_field(sigma, ws)
        sp = eval_field_prime(sigma, ws)
        spp = sigma.second(ws)
        drift_w = -bv + 0.5 * kappa * sv * sp
        drift_l = -bp + 0.5 * kappa * sv * spp
        w_new = w + drift_w * dt + sqk * sv * db
        l_new = log_wp + drift_l * dt + sqk * sp * db
        bad = (w_new.imag <= 0.0) | (
            w_new.real ** 2 + w_new.imag ** 2 < freeze_r2
        )
        ok = alive & ~bad
        w = np.where(ok, w_new, w)
        log_wp = np.where(ok, l_new, log_wp)
        if np.any(np.abs(w[ok]) > R_MAX):
            raise StepExplosionError("ensemble trajectory left the safe radius")
        alive = ok
        if callback is not None:
            callback(i + 1, (i + 1) * dt, w, log_wp, alive)
    return EnsembleResult(pts, w, log_wp, alive, float(n_steps * dt), dt)
