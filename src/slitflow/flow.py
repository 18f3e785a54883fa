"""Time-discretized simulation of slit flows.

Driving paths, one adaptive RK4 segment integrator for the chordal Loewner
maps g_t that serves both their forward solution and their inverses (the
same equation run backward in time), and the vectorized
Euler-Maruyama ensemble for the general flow SDE with derivative tracking
through log w'.  The ensemble folds the Ito drifts of (w, log w')
into one fixed Laurent polynomial each per model and steps the real and
imaginary parts of the state in place.  It is cache-blocked: steps run in
blocks of STEP_BLOCK with one noise draw per block, and within a block
tiles of paths whose buffers fit in TILE_BYTES take all the block's steps
one tile after another; the output does not depend on either constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .conformal import require_upper_half_plane
from .errors import InputError, NumericalError

# the benchmark tracer (perfbench/spans.py) wraps these two names in this
# module, so they stay reachable here; nothing in this module calls them
eval_field = fields.eval_field
eval_field_prime = fields.eval_field_prime

EPS_SWALLOW = 1e-4
R_MAX = 1e6
C_SING = 0.1  # dt_eff = min(dt, C_SING * |distance to singularity|^2)
STEP_BLOCK = 16  # simulate_ensemble steps between normal draws
TILE_BYTES = 128 * 1024  # simulate_ensemble's bound on one tile float buffer


def _n_steps(T: float, dt: float) -> int:
    """Number of steps of size dt from 0 to the horizon T; dt must divide T."""
    if not 0.0 < dt <= T < math.inf:
        raise InputError("need 0 < dt <= T < inf")
    n = round(T / dt)
    if abs(n * dt - T) > 1e-9 * T:
        raise InputError(f"dt = {dt:g} does not divide T = {T:g}")
    return n


@dataclass(frozen=True)
class DrivingPath:
    """A driving function xi sampled on the uniform grid 0, dt, ..., T and
    linear between grid points."""

    dt: float
    times: np.ndarray
    values: np.ndarray


def zero_driving(T: float, dt: float) -> DrivingPath:
    """Noise-free driving (xi_t = 0), for deterministic checks."""
    n = _n_steps(T, dt)
    return DrivingPath(dt, dt * np.arange(n + 1), np.zeros(n + 1))


def _loewner_segment(g: complex, s: float, s_end: float, t0: float,
                     dt: float, x0: float, x1: float):
    """Adaptive RK4 for dg/dt = 2/(g - xi_t) from time s to s_end, forward
    or backward, inside the grid segment [t0, t0 + dt] on which xi runs
    linearly from x0 to x1.

    Each step is clamped to C_SING |g - xi_s|^2, the distance to the driving
    value at the starting time s.  Returns (g, reached), where reached is
    False when g came within EPS_SWALLOW of xi_s.
    """
    def xi(t):
        fr = (t - t0) / dt
        return (1.0 - fr) * x0 + fr * x1

    xs = xi(s)
    sign = 1.0 if s_end >= s else -1.0
    t = s
    while sign * (s_end - t) > 1e-15:
        d = abs(g - xs)
        if d < EPS_SWALLOW:
            return g, False
        h = sign * min(sign * (s_end - t), C_SING * d * d)
        k1 = 2.0 / (g - xi(t))
        k2 = 2.0 / (g + h / 2 * k1 - xi(t + h / 2))
        k3 = 2.0 / (g + h / 2 * k2 - xi(t + h / 2))
        k4 = 2.0 / (g + h * k3 - xi(t + h))
        g = g + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return g, True


def chordal_loewner(driving: DrivingPath, z0: complex) -> np.ndarray:
    """Solve the chordal Loewner ODE dg/dt = 2/(g - xi_t) at a point of the
    upper half-plane.

    g is advanced segment by segment of the driving grid by
    _loewner_segment.  Returns the samples of w_t = g_t - xi_t on the grid,
    from w_0 = z0 up to the last grid time before z0 is swallowed.
    """
    require_upper_half_plane(z0)
    times, xi = driving.times, driving.values
    # numpy complex scalars: numpy rounds complex division unlike Python's
    # complex type, and the solver's results are pinned to numpy's rounding
    g = np.complex128(z0)
    w = [g]
    for i in range(len(times) - 1):
        g, ok = _loewner_segment(g, times[i], times[i + 1], times[i],
                                 driving.dt, xi[i], xi[i + 1])
        w_next = g - xi[i + 1]
        if not ok or abs(w_next) < EPS_SWALLOW:
            break
        if not g.imag >= 0.0:
            raise NumericalError("Loewner solution left its domain")
        w.append(w_next)
    return np.array(w)


def inverse_map(driving: DrivingPath, z0: complex, t: float) -> complex:
    """Evaluate g_t^{-1}(z0): the Loewner equation integrated backward from
    time t to 0 by _loewner_segment, starting with the partial grid segment
    that holds t when t is off the grid.  z0 must lie in the upper
    half-plane.
    """
    require_upper_half_plane(z0)
    if t < 0 or t > driving.times[-1] + 1e-12:
        raise InputError(f"time {t} outside the driving horizon")
    times, xi = driving.times, driving.values
    # grid segment i spans [times[i], times[i + 1]]; t lies in segment k
    k = min(int(np.searchsorted(times, t)), len(times) - 1) - 1
    z, s = np.complex128(z0), t
    for i in range(k, -1, -1):
        z, ok = _loewner_segment(z, s, times[i], times[i], driving.dt,
                                 xi[i], xi[i + 1])
        if not ok or z.imag <= 0:
            raise NumericalError(
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
    scratch); dB is the (rows, 1) column of the step's increments, and
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


def _read_only(arrays) -> tuple:
    """Views of the arrays that cannot be written through."""
    views = tuple(v.view() for v in arrays)
    for v in views:
        v.flags.writeable = False
    return views


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

    The loop is cache-blocked.  Steps run in blocks of STEP_BLOCK, and each
    block's increments are one (m, n_paths) normal draw, the same numbers
    in the same order as one (n_paths, 1) draw per step.  Within a block the
    paths run in tiles, and each tile takes all the block's steps before the
    next tile starts.  A tile holds the largest multiple of 8 rows (at least
    8) whose float buffer fits in TILE_BYTES, so its scratch buffers stay in
    cache; the last tile holds the rest.  The arithmetic is elementwise, so
    the output does not depend on the tiling.  Tiles start at multiples of
    8 rows because BLAS sums a row of a matrix-vector product in an order
    that depends on the row's place in its group of rows, and a callback
    that takes such a product per tile then gives the same bits as over
    all paths.

    All seed points of one path share the Brownian increment.  A (path,
    point) entry freezes once it comes within the resolvable distance of the
    pole at the origin or leaves the upper half-plane; it then keeps its last
    state, which lies off the pole.  Freezing at a state-dependent time keeps
    stopped functionals unbiased.  While no entry of a tile has frozen, a
    step that freezes none either (tested by the minima of |w|^2 and Im w
    over the tile) commits by plain copies; any other step commits under
    the mask of live entries, and both give the same bits where both apply.
    ``callback(i, t, rows, x, y, lr, li, alive)`` runs once before the
    first step with rows = slice(0, n_paths), and after every step once per
    tile, with rows the tile's slice of the paths and t = i dt; w = x + iy
    and log w' = lr + i li.  Its arrays are read-only views of the live
    state of those rows, overwritten by the next step, so a caller copies
    what it keeps.  The tiles of one step cover every path once, but a
    tile's later steps may come before the next tile's earlier ones.  Seed
    points must lie in the open upper half-plane within |z| < R_MAX
    (InputError otherwise); a path that leaves that radius later is a
    NumericalError.  ``rng`` is a seed, a SeedSequence or a Generator, as
    np.random.default_rng takes it.
    """
    n_steps = _n_steps(T, dt)
    rng = np.random.default_rng(rng)
    bm1, b0, b1 = model.b.coeffs
    s0, s1 = model.sigma.coeffs
    kappa = model.kappa
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
    if np.any(np.abs(pts) >= R_MAX):
        raise InputError(f"seed points must lie within |z| < R_MAX = {R_MAX:g}")
    shape = (n_paths, pts.size)
    # the state (x, y, lr, li, alive) over all paths
    state = (np.tile(pts.real, (n_paths, 1)), np.tile(pts.imag, (n_paths, 1)),
             np.zeros(shape), np.zeros(shape), np.ones(shape, dtype=bool))
    rows = max(8, TILE_BYTES // (8 * max(pts.size, 1)) // 8 * 8)
    scratch = [np.empty((min(rows, n_paths), pts.size)) for _ in range(8)]
    # per tile: its rows, writable views of their state, read-only views of
    # the same for the callback, and the scratch buffers cut to the tile
    tiles = []
    for r0 in range(0, n_paths, rows):
        sl = slice(r0, min(r0 + rows, n_paths))
        views = [v[sl] for v in state]
        tiles.append((sl, views, _read_only(views),
                      [v[:sl.stop - sl.start] for v in scratch]))
    freeze_r2 = max(EPS_SWALLOW, math.sqrt(dt / C_SING)) ** 2
    if callback is not None:
        callback(0, 0.0, slice(0, n_paths), *_read_only(state))
    for i0 in range(0, n_steps, STEP_BLOCK):
        dbs = rng.standard_normal((min(STEP_BLOCK, n_steps - i0), n_paths))
        dbs *= math.sqrt(dt)
        for sl, (x, y, lr, li, alive), live, scr in tiles:
            xn, yn, lrn, lin, a, b, c, d = scr
            fast = bool(alive.all())  # entries never unfreeze
            for j, db_all in enumerate(dbs):
                db = db_all[sl, None]
                # the poles: 2 dt/w = g conj(w) and -2 dt/w^2 = -h conj(w)^2,
                # with g = 2 dt/|w|^2 in d and h = g/|w|^2 in c
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
                # while every entry of the tile is alive and none freezes
                # now (a NaN fails both tests), commit the step unmasked
                keep = True
                if not (fast and a.min(initial=math.inf) >= freeze_r2
                        and yn.min(initial=math.inf) > 0.0):
                    alive &= ~((yn <= 0.0) | (a < freeze_r2))
                    keep, fast = alive, fast and bool(alive.all())
                if a.max(where=keep, initial=0.0) > R_MAX * R_MAX:
                    raise NumericalError(
                        "ensemble trajectory left the safe radius")
                np.copyto(x, xn, where=keep)
                np.copyto(y, yn, where=keep)
                np.copyto(lr, lrn, where=keep)
                np.copyto(li, lin, where=keep)
                if callback is not None:
                    i = i0 + j + 1
                    callback(i, i * dt, sl, *live)
    x, y, lr, li, alive = state
    return EnsembleResult(pts, _complex(x, y), _complex(lr, li), alive)
