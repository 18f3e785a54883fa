"""Verifiable stochastic identities built on the flow integrators.

Drift tests of u_t, the two-point martingale and the vertex observables
along chordal and dipolar flows, the quadratic-variation law for paired
test functions, hypergeometric-map residual identities, the triangle
hitting-probability experiment, and the flow/field coupling ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import FlowModel, build_u, enumerate_families
from .conformal import green_half_plane_grid, sc_map_build
from .errors import InputError
from .flow import EPS_SWALLOW, simulate_ensemble
from .gff import (
    RectDomain,
    TestFn,
    eigen_basis,
    energy_from_map,
    patch_from_testfn,
)
from .stats import drift_test, ks_normality

ESCAPE_RE = 20.0
C_SING_STRIP = 5e-3  # cardy_zhan near-pole clamp: h <= C_SING_STRIP |Z|^2
FLAT_RE = 4.0  # cardy_zhan steps are dt for |Re Z| <= FLAT_RE, e-fold beyond
H_MAX = 0.05  # cap on those longer steps; a dt above it is kept as it is
VERTEX_TOL = 0.95  # a stop with no exit probability above this is ambiguous
X_FINITE = 700.0  # cardy_zhan's drift and step read Re Z clipped to this
FIELD_BLOCK = 64  # run_coupling draws and evaluates the field in these blocks


# -- vertex observables along flows -------------------------------------------


def chordal_vertex_log(kappa: float, alpha: float, w, log_wp):
    """log of the chordal drift-flow vertex observable w^{-4/k} w' e^{2 a w /k}.

    The derivative factor enters through the tracked log w' so the branch
    stays path-continuous.
    """
    w = np.asarray(w, dtype=complex)
    return (-4.0 / kappa) * np.log(w) + np.asarray(log_wp) + (
        2.0 * alpha / kappa
    ) * w


def dipolar_vertex_log(kappa: float, alpha: float, w, log_wp):
    """log of the dipolar vertex observable in the chart with fixed points +-2.

    In unit coordinates v = w/2 the value is
    (1-v)^{-1+2(1-alpha)/k} (1+v)^{-1+2(1+alpha)/k} v^{-4/k} v'.
    """
    v = 0.5 * np.asarray(w, dtype=complex)
    p1 = -1.0 + 2.0 * (1.0 - alpha) / kappa
    p2 = -1.0 + 2.0 * (1.0 + alpha) / kappa
    return (
        p1 * np.log(1.0 - v) + p2 * np.log(1.0 + v)
        + (-4.0 / kappa) * np.log(v)
        + np.asarray(log_wp) + math.log(0.5)
    )


def _family_model(geometry: str, kappa: float, alpha: float) -> FlowModel:
    name = {"chordal": "chordal-drift", "dipolar": "dipolar-drift"}[geometry]
    # both drift families exist at every kappa
    spec = next(s for s in enumerate_families(kappa) if s.name == name)
    return spec.instantiate(alpha, 0)


MARTINGALE_POINTS = (
    0.6 + 1.1j,
    -0.9 + 1.4j,
    0.3 + 2.0j,
    -1.6 + 1.8j,
    1.3 + 1.3j,
)
MARTINGALE_PAIRS = ((0, 3), (1, 4))


def martingale_suite(geometry: str, kappa: float, alpha: float,
                     n_paths: int = 10_000, T: float = 0.3, dt: float = 1e-4,
                     seed: int = 0) -> list:
    """Drift tests of u_t, the pair martingale, and the vertex observable.

    The seed points are MARTINGALE_POINTS, paired by MARTINGALE_PAIRS.

    Every functional is evaluated on the stopped ensemble (entries freeze at
    their swallow time), so terminal-minus-initial deltas estimate the drift
    of a stopped martingale.
    """
    model = _family_model(geometry, kappa, alpha)
    u = build_u(model)
    pts = np.asarray(MARTINGALE_POINTS, dtype=complex)
    res = simulate_ensemble(model, pts, n_paths, T, dt, seed)
    tag = f"{geometry}-k{kappa:g}-a{alpha:g}"
    reports = []

    def u_of(w, lwp):
        return u.value(w) + u.mu * np.imag(lwp)

    u0 = u_of(pts, np.zeros_like(pts))
    for j in range(3):
        deltas = u_of(res.w[:, j], res.log_wp[:, j]) - u0[j]
        reports.append(
            drift_test(deltas, f"{tag}-u@{pts[j]:g}")
        )
    for i1, i2 in MARTINGALE_PAIRS:
        m_T = (
            u_of(res.w[:, i1], res.log_wp[:, i1])
            * u_of(res.w[:, i2], res.log_wp[:, i2])
            + 2.0 * green_half_plane_grid(res.w[:, i1], res.w[:, i2])
        )
        m_0 = u0[i1] * u0[i2] + 2.0 * green_half_plane_grid(pts[i1], pts[i2])
        reports.append(
            drift_test(m_T - m_0, f"{tag}-pair@{i1}{i2}")
        )
    vlog = chordal_vertex_log if geometry == "chordal" else dipolar_vertex_log
    m_T = np.exp(vlog(kappa, alpha, res.w[:, 0], res.log_wp[:, 0]))
    m_0 = complex(np.exp(vlog(kappa, alpha, pts[0], 0.0)))
    reports.append(
        drift_test(m_T.real - m_0.real, f"{tag}-vertex-re")
    )
    reports.append(
        drift_test(m_T.imag - m_0.imag, f"{tag}-vertex-im")
    )
    return reports


# -- quadratic variation law ---------------------------------------------------


@dataclass
class QvResult:
    """Realized quadratic variation of (u_t, p) versus the energy decay;
    ``diff_se`` is the se of the per-path d = QV - (E_0 - E_T)."""

    qv_mean: float
    qv_se: float
    e0: float
    e_terminal_mean: float
    diff_se: float

    @property
    def target(self) -> float:
        return self.e0 - self.e_terminal_mean

    @property
    def rel_error(self) -> float:
        return abs(self.qv_mean - self.target) / abs(self.target)

    @property
    def z(self) -> float:
        """Mean of d in units of its se."""
        return (self.qv_mean - self.target) / self.diff_se

    @property
    def passed(self) -> bool:
        """The 10 % band and the paired differences within 3 se of 0."""
        return self.rel_error < 0.1 and abs(self.z) < 3.0


def qv_check(n_paths: int = 2000, T: float = 0.2, dt: float = 1e-4,
             seed: int = 0, bump: Optional[TestFn] = None,
             kappa: float = 4.0) -> QvResult:
    """Quadratic variation of the paired observable against E_0 - E_T.

    Chordal flow with zero drift; u = 2a arg w has no rotation term at
    kappa=4, and the terminal energy uses the pulled-back Green's function
    on the same support quadrature so discretization bias cancels in the
    difference.  The standard errors need at least two paths.
    """
    if n_paths < 2:
        raise InputError("qv_check needs at least 2 paths")
    bump = bump or TestFn(2.0j, 0.3)
    patch = patch_from_testfn(RectDomain(), bump)
    model = _family_model("chordal", kappa, 0.0)
    two_a = 2.0 * model.a
    wgt = patch.weights
    prev, qv = np.empty(n_paths), np.zeros(n_paths)

    def callback(i, t, rows, x, y, lr, li, alive):
        paired = two_a * np.arctan2(y, x) @ wgt
        if i:
            qv[rows] += (paired - prev[rows]) ** 2
        prev[rows] = paired

    res = simulate_ensemble(model, patch.centers, n_paths, T, dt, seed, callback)
    e0 = energy_from_map(patch, patch.centers, np.zeros_like(patch.centers))
    e_T = np.array([
        energy_from_map(patch, res.w[i], res.log_wp[i]) for i in range(n_paths)
    ])
    se = float(qv.std(ddof=1) / math.sqrt(n_paths))
    d_se = float((qv - (e0 - e_T)).std(ddof=1) / math.sqrt(n_paths))
    return QvResult(float(qv.mean()), se, e0, float(e_T.mean()), d_se)


# -- hitting-probability experiment ---------------------------------------------


# cardy_zhan's steps are dispatch-bound, so they call ufuncs bound to names
# here and pass constants as 0-d arrays: an array operand takes numpy's fast
# path, where a Python float costs half as much again per call
_FLAT_RE, _H_MAX, _C_SING_STRIP, _ESCAPE_RE = (
    np.array(c) for c in (FLAT_RE, H_MAX, C_SING_STRIP, ESCAPE_RE))
_mul, _add, _sub, _div = np.multiply, np.add, np.subtract, np.divide
_min, _max, _abs, _exp = np.minimum, np.maximum, np.absolute, np.exp
_sinh, _sin, _sqrt = np.sinh, np.sin, np.sqrt


def _strip_step(x, y, dt, h, tmp, inside):
    """cardy_zhan's Euler-Maruyama step at the strip points x + iy.

    h = min(C_SING_STRIP |Z|^2, max(dt, min(dt e^(|x| - FLAT_RE), H_MAX))):
    exactly dt for |x| <= FLAT_RE away from the pole, never below dt
    elsewhere, and the near-pole clamp wherever that is smaller.  Past the
    escape line |x| > ESCAPE_RE the step is 0, so an escaped path stays
    where it crossed until the next sweep stops it.  Takes float arrays;
    writes h into the float buffer ``h`` and uses the float buffer ``tmp``
    and the bool buffer ``inside``, all of x's size, as scratch.
    """
    _mul(x, x, out=tmp)
    _add(tmp, _mul(y, y, out=h), out=tmp)
    _mul(tmp, _C_SING_STRIP, out=tmp)
    np.less_equal(_abs(x, out=h), _ESCAPE_RE, out=inside)
    _exp(_sub(h, _FLAT_RE, out=h), out=h)
    _mul(h, dt, out=h)
    _min(h, _H_MAX, out=h)
    _max(h, dt, out=h)
    _min(h, tmp, out=h)
    # h is finite and >= 0, so the factor is exact: h * 1 = h, h * 0 = +0
    _mul(h, inside, out=h)
    return h


@dataclass
class CardyZhanResult:
    """Monte Carlo endpoint frequencies against the triangle-map oracle.

    ``oracle_share`` is the mean of 1 - max(barycentric) over the stops: the
    part of the answer that the oracle supplies rather than the paths.
    """

    n: int
    mc: tuple  # (swallowed, right, left)
    se: tuple
    oracle: tuple
    ambiguous_frac: float
    oracle_share: float

    @property
    def max_abs_err(self) -> float:
        return max(abs(m - o) for m, o in zip(self.mc, self.oracle))

    @property
    def passed(self) -> bool:
        return self.ambiguous_frac < 0.05 and all(
            abs(m - o) < max(0.02, 3.0 * s)
            for m, o, s in zip(self.mc, self.oracle, self.se)
        )


def cardy_zhan(kappa: float, alpha: float, z: complex, n_paths: int = 20_000,
               t_max: float = 30.0, dt: float = 2e-4,
               seed: int = 0) -> CardyZhanResult:
    """Classify strip points under the dipolar drift flow and compare to the oracle.

    Simulates Z_t = g_t(z) - xi_t with dZ = (coth(Z/2) - alpha) dt - sqrt(k) dB
    by Euler-Maruyama with the per-path step of `_strip_step`: dt where
    |Re Z| <= FLAT_RE, growing by a factor e per unit of |Re Z| beyond it up
    to max(dt, H_MAX), where the drift is constant up to 2 e^(-|Re Z|); and
    never above C_SING_STRIP |Z|^2 near the swallowing pole.  That clamp
    keeps the per-step noise below ~0.2 |Z|, but it is scale-invariant, so
    the swallow frequency keeps a small bias that does not shrink with dt.
    One rule stops a path: the first sweep at which |Z| < EPS_SWALLOW,
    |Re Z| > ESCAPE_RE or t >= t_max.  The exit-probability vector is a
    bounded martingale of the flow, so crediting every path with its oracle
    barycentrics at its stop point is unbiased (optional stopping); a stop
    whose largest barycentric is at most VERTEX_TOL counts as ambiguous.

    Once few paths are live the loop is dispatch-bound: numpy's per-call
    overhead, not arithmetic, sets the cost of a step.  So each step writes
    every ufunc result into scratch buffers made when the live set is
    compacted, passes every constant as a 0-d array, and clamps the step
    to t_max only in the sweeps that can reach it.
    """
    sm = sc_map_build(kappa, alpha)
    z = complex(z)
    if not (math.isfinite(z.real) and 0.0 < z.imag < math.pi):
        raise InputError("seed point must be inside the strip")
    if n_paths < 1:
        raise InputError(f"cardy_zhan needs at least 1 path: {n_paths}")
    if not 0.0 < dt < math.inf:
        raise InputError(f"cardy_zhan needs a positive finite dt: {dt}")
    if not 0.0 < t_max < math.inf:
        raise InputError(f"cardy_zhan needs a positive finite t_max: {t_max}")
    oracle = tuple(float(p) for p in sm.exit_probabilities(z))
    rng = np.random.default_rng(seed)
    dt_, alpha_, sqk, t_max_, t_end, eps2, zero, half, two, x_lo, x_hi = (
        np.array(c) for c in (dt, alpha, math.sqrt(kappa), t_max, t_max - 1e-12,
                              EPS_SWALLOW * EPS_SWALLOW, 0.0, 0.5, 2.0,
                              -X_FINITE, X_FINITE))

    def scratch(m):
        h, a, b, c = np.empty((4, m))
        mask, stop = np.empty((2, m), bool)
        return h, a, b, c, mask, stop

    # the driving noise is real, so the state splits into a noisy real part
    # and a noiseless imaginary part; real arrays halve the arithmetic cost
    x = np.full(n_paths, z.real)
    y = np.full(n_paths, z.imag)
    t = np.zeros(n_paths)
    h, a, b, c, mask, stop = scratch(n_paths)
    stops = []
    classify_every = 8
    # a step is at most max(dt, H_MAX) and t rounds by at most ulp(t_max)
    # per step, so a sweep that starts this far below t_max cannot reach it
    # and its clamp would be a no-op
    margin = 2 * classify_every * max(dt, H_MAX, math.ulp(t_max))
    while x.size:
        # one draw per sweep consumes the generator in the same order as
        # one draw per step, since the live set changes only at sweeps
        noise = rng.standard_normal((classify_every, x.size))
        near_end = t.max() + margin >= t_max
        for xi in noise:
            # sinh and exp overflow past |x| ~ 710, where h = 0 would make NaN
            # of their inf; there c stands in for x, which stays the true state
            _min(_max(x, x_lo, out=c), x_hi, out=c)
            _strip_step(c, y, dt_, h, a, mask)
            if near_end:
                # the time-horizon clamp can round a hair negative once t ~ t_max
                _max(_sub(t_max_, t, out=a), zero, out=a)
                _min(h, a, out=h)
            # cancellation-free form of cosh(x) - cos(y); the naive difference
            # rounds to exactly zero once |Z| drops below ~1e-8
            _sinh(_mul(c, half, out=a), out=a)
            _mul(a, a, out=a)
            _sin(_mul(y, half, out=b), out=b)
            _mul(b, b, out=b)
            _mul(_add(a, b, out=a), two, out=a)  # a = den
            # x += (sinh(x) / den - alpha) h - (sqrt(kappa) sqrt(h)) xi
            _sub(_div(_sinh(c, out=b), a, out=b), alpha_, out=b)
            _add(x, _mul(b, h, out=b), out=x)
            _mul(_mul(_sqrt(h, out=b), sqk, out=b), xi, out=b)
            _sub(x, b, out=x)
            # y -= (sin(y) / den) h
            _sub(y, _mul(_div(_sin(y, out=b), a, out=b), h, out=b), out=y)
            _add(t, h, out=t)
        # stopped paths idle until the next sweep: swallowed entries have
        # h ~ |Z|^2, timed-out and escaped entries have h = 0
        np.less(_add(_mul(x, x, out=a), _mul(y, y, out=b), out=a), eps2, out=stop)
        np.logical_or(stop, np.greater(_abs(x, out=a), _ESCAPE_RE, out=mask), out=stop)
        np.logical_or(stop, np.greater_equal(t, t_end, out=mask), out=stop)
        if stop.any():
            stops.append(x[stop] + 1j * y[stop])
            keep = ~stop
            x, y, t = x[keep], y[keep], t[keep]
            h, a, b, c, mask, stop = scratch(x.size)

    bary = sm.exit_probabilities(np.concatenate(stops))
    top = bary.max(axis=1)
    mc = tuple(float(p) for p in bary.mean(axis=0))
    # a barycentric within TRIANGLE_TOL of 0 may be negative, so may its mean
    se = tuple(math.sqrt(max(p * (1.0 - p), 0.0) / n_paths) for p in mc)
    return CardyZhanResult(
        n_paths, mc, se, oracle,
        float(np.mean(top <= VERTEX_TOL)), float(np.mean(1.0 - top)),
    )


# -- residual identities ---------------------------------------------------------


def bpz_sc_residual(kappa: float, alpha: float, z: complex) -> dict:
    """Residuals of the second-order ODE for the triangle map and its
    vertex-observable counterpart.

    h''/h' is formed by a fourth-order finite difference of the closed-form
    h' and compared with exp_one/(z-1) + exp_zero/z; the log-derivative of
    the dipolar vertex observable is compared with its partial-fraction form,
    whose exponents are the triangle map's.  The difference step is
    1e-3 max(1, |z|); the check passes when both residuals are below 1e-8.
    """
    z = complex(z)
    h = 1e-3 * max(1.0, abs(z))
    if min(abs(z), abs(z - 1.0)) < 10 * h or abs(z + 1.0) < 10 * h:
        raise InputError("evaluation point too close to a branch point")
    sm = sc_map_build(kappa, alpha)

    def fd_deriv(f, x):
        return (
            -f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)
        ) / (12 * h)

    ratio = fd_deriv(sm.h_prime, z) / sm.h_prime(z)
    res_map = abs(ratio - sm.h_prime_log_deriv(z))

    def mhat_log(x):
        return dipolar_vertex_log(kappa, alpha, 2.0 * x, 0.0)

    lderiv = fd_deriv(mhat_log, z)
    closed_v = sm.exp_one / z + sm.exp_inf / (z - 1.0) + sm.exp_zero / (z + 1.0)
    res_vertex = abs(lderiv - closed_v)
    return {
        "map_residual": float(res_map),
        "vertex_residual": float(res_vertex),
        "passed": bool(res_map < 1e-8 and res_vertex < 1e-8),
    }


# -- flow/field coupling ----------------------------------------------------------


@dataclass
class CouplingResult:
    """Ensemble statistics of the shifted-field pairing under the flow, and
    the law's three gates: mean within 3 se of its target, variance within
    5 % of its target, and the KS test at the 1 % level."""

    samples: np.ndarray
    mean_target: float
    var_target: float
    flagged: int
    n: int

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def se(self) -> float:
        return float(self.samples.std(ddof=1) / math.sqrt(self.samples.size))

    @property
    def variance(self) -> float:
        return float(self.samples.var(ddof=1))

    def ks(self):
        """(statistic, 1 % critical value) of the standardized samples."""
        return ks_normality(self.samples, self.mean, math.sqrt(self.variance))

    @property
    def mean_pass(self) -> bool:
        return abs(self.mean - self.mean_target) < 3.0 * self.se

    @property
    def var_pass(self) -> bool:
        return abs(self.variance - self.var_target) < 0.05 * self.var_target

    @property
    def ks_pass(self) -> bool:
        ks_stat, ks_crit = self.ks()
        return ks_stat < ks_crit

    @property
    def passed(self) -> bool:
        return self.mean_pass and self.var_pass and self.ks_pass


def _coupling_chunk(args):
    """One independently seeded batch of joint flow/field samples.

    The field is drawn and evaluated FIELD_BLOCK samples at a time.  One
    generator's consecutive draws equal one large draw and the evaluation
    is per sample, so the samples do not depend on the block size.
    """
    chunk_seed, m, T, dt, bump, alpha = args
    dom = RectDomain()
    basis = eigen_basis(dom)
    patch = patch_from_testfn(dom, bump)
    model = _family_model("chordal", 4.0, alpha)
    flow_ss, field_ss = chunk_seed.spawn(2)
    res = simulate_ensemble(model, patch.centers, m, T, dt, flow_ss)
    flagged = int(np.count_nonzero(~res.alive.all(axis=1)))
    # at kappa = 4, mu = -2 bb = 0: u_T has no log w' term, value is all of it
    u_T = build_u(model).value(res.w) @ patch.weights
    field_rng = np.random.default_rng(field_ss)
    field_part = np.empty(m)
    for s in range(0, m, FIELD_BLOCK):
        b = min(FIELD_BLOCK, m - s)
        coeff = field_rng.standard_normal((b,) + basis.scale_box.shape)
        coeff *= basis.scale_box
        field_part[s:s + b] = (
            basis.field_at_points(coeff, res.w[s:s + b]) @ patch.weights)
    return field_part + u_T, flagged


def run_coupling(n_samples: int = 5000, T: float = 0.25, dt: float = 2.5e-4,
                 seed: int = 0, bump: Optional[TestFn] = None,
                 alpha: float = 0.0, chunk: int = 500,
                 threads: int = 1) -> CouplingResult:
    """Joint flow/field samples of (field o w_T, p) + (u_T, p) at kappa = 4.

    Field and flow use independent seed streams.  The terminal law has mean
    (u, p) and variance equal to the spectral energy of p; samples whose
    support is touched by the hull before time T are flagged (and kept,
    with the count reported).  Chunks carry independent child seeds and are
    concatenated in a fixed order, so the result is byte-identical for any
    pool size.  The sample variance needs at least two samples.
    """
    if n_samples < 2:
        raise InputError("run_coupling needs at least 2 samples")
    if chunk < 1:
        raise InputError(f"run_coupling needs a positive chunk size: {chunk}")
    dom = RectDomain()
    bump = bump or TestFn(1.5j, 0.3)
    basis = eigen_basis(dom)
    patch = patch_from_testfn(dom, bump)
    u = build_u(_family_model("chordal", 4.0, alpha))
    mean_target = float(u.value(patch.centers) @ patch.weights)
    var_target = basis.energy_spectral(patch)

    sizes = [chunk] * (n_samples // chunk)
    if n_samples % chunk:
        sizes.append(n_samples % chunk)
    child_seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = [
        (cs, m, T, dt, bump, alpha)
        for cs, m in zip(child_seeds, sizes)
    ]
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts all its workers at the first submit, so never
        # ask for more than there are chunks
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as ex:
            parts = list(ex.map(_coupling_chunk, jobs))
    else:
        parts = [_coupling_chunk(j) for j in jobs]
    samples = np.concatenate([p[0] for p in parts])
    flagged = sum(p[1] for p in parts)
    return CouplingResult(samples, mean_target, var_target, flagged, n_samples)
