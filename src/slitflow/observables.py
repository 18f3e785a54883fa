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

from .classify import CftParams, FlowModel, build_u, enumerate_families
from .conformal import green_half_plane_grid, sc_map_build
from .errors import BranchPointError, ParameterRangeError
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
T_MAX_DEFAULT = 30.0
C_SING_STRIP = 5e-3  # cardy_zhan step clamp: h = min(dt, C_SING_STRIP |Z|^2)
VERTEX_TOL = 0.95  # a stop with no exit probability above this is ambiguous


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
    for spec in enumerate_families(kappa):
        if spec.name == name:
            return spec.instantiate(alpha=alpha)
    raise ParameterRangeError(f"family {name} unavailable at kappa={kappa}")


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
            drift_test(deltas, f"{tag}-u@{pts[j]:g}", seed, dt)
        )
    for i1, i2 in MARTINGALE_PAIRS:
        m_T = (
            u_of(res.w[:, i1], res.log_wp[:, i1])
            * u_of(res.w[:, i2], res.log_wp[:, i2])
            + 2.0 * green_half_plane_grid(res.w[:, i1], res.w[:, i2])
        )
        m_0 = u0[i1] * u0[i2] + 2.0 * green_half_plane_grid(pts[i1], pts[i2])
        reports.append(
            drift_test(m_T - m_0, f"{tag}-pair@{i1}{i2}", seed, dt)
        )
    vlog = chordal_vertex_log if geometry == "chordal" else dipolar_vertex_log
    m_T = np.exp(vlog(kappa, alpha, res.w[:, 0], res.log_wp[:, 0]))
    m_0 = complex(np.exp(vlog(kappa, alpha, pts[0], 0.0)))
    reports.append(
        drift_test(m_T.real - m_0.real, f"{tag}-vertex-re", seed, dt)
    )
    reports.append(
        drift_test(m_T.imag - m_0.imag, f"{tag}-vertex-im", seed, dt)
    )
    return reports


# -- quadratic variation law ---------------------------------------------------


@dataclass
class QvResult:
    """Realized quadratic variation of (u_t, p) versus the energy decay."""

    qv_mean: float
    qv_se: float
    e0: float
    e_terminal_mean: float
    n: int
    seed: int
    dt: float

    @property
    def target(self) -> float:
        return self.e0 - self.e_terminal_mean

    @property
    def rel_error(self) -> float:
        return abs(self.qv_mean - self.target) / abs(self.target)


def qv_check(n_paths: int = 2000, T: float = 0.2, dt: float = 1e-4,
             seed: int = 0, bump: Optional[TestFn] = None,
             kappa: float = 4.0) -> QvResult:
    """Quadratic variation of the paired observable against E_0 - E_T.

    Chordal flow with zero drift; u = 2a arg w has no rotation term at
    kappa=4, and the terminal energy uses the pulled-back Green's function
    on the same support quadrature so discretization bias cancels in the
    difference.
    """
    bump = bump or TestFn(2.0j, 0.3)
    patch = patch_from_testfn(RectDomain(), bump)
    model = _family_model("chordal", kappa, 0.0)
    two_a = 2.0 * CftParams(kappa).a
    wgt = patch.weights
    state = {"prev": None, "qv": np.zeros(n_paths)}

    def callback(i, t, x, y, lr, li, alive):
        paired = two_a * np.arctan2(y, x) @ wgt
        if state["prev"] is not None:
            state["qv"] += (paired - state["prev"]) ** 2
        state["prev"] = paired

    res = simulate_ensemble(model, patch.centers, n_paths, T, dt, seed, callback)
    e0 = energy_from_map(patch, patch.centers, np.zeros_like(patch.centers))
    e_T = np.array([
        energy_from_map(patch, res.w[i], res.log_wp[i]) for i in range(n_paths)
    ])
    qv = state["qv"]
    return QvResult(
        float(qv.mean()), float(qv.std(ddof=1) / math.sqrt(n_paths)),
        e0, float(e_T.mean()), n_paths, seed, dt,
    )


# -- hitting-probability experiment ---------------------------------------------


@dataclass
class CardyZhanResult:
    """Monte Carlo endpoint frequencies against the triangle-map oracle.

    ``oracle_share`` is the mean of 1 - max(barycentric) over the stops: the
    part of the answer that the oracle supplies rather than the paths.
    """

    kappa: float
    alpha: float
    z: complex
    n: int
    mc: tuple  # (swallowed, right, left)
    se: tuple
    oracle: tuple
    ambiguous_frac: float
    oracle_share: float
    seed: Optional[int]
    dt: float

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
               t_max: float = T_MAX_DEFAULT, dt: float = 2e-4,
               seed: int = 0) -> CardyZhanResult:
    """Classify strip points under the dipolar drift flow and compare to the oracle.

    Simulates Z_t = g_t(z) - xi_t with dZ = (coth(Z/2) - alpha) dt - sqrt(k) dB
    using a per-path step min(dt, C_SING_STRIP |Z|^2) near the swallowing
    singularity; C_SING_STRIP = 5e-3 keeps the per-step noise below ~0.2 |Z|
    so the hitting probability of the swallow threshold is resolved without
    bias.  One rule stops a path: the first sweep at which |Z| < EPS_SWALLOW,
    |Re Z| > ESCAPE_RE or t >= t_max.  The exit-probability vector is a
    bounded martingale of the flow, so crediting every path with its oracle
    barycentrics at its stop point is unbiased (optional stopping); a stop
    whose largest barycentric is at most VERTEX_TOL counts as ambiguous.
    """
    if kappa <= 4:
        raise ParameterRangeError("swallowing needs kappa > 4")
    z = complex(z)
    if not 0.0 < z.imag < math.pi:
        raise ParameterRangeError("seed point must be inside the strip")
    sm = sc_map_build(kappa, alpha)
    oracle = tuple(float(p) for p in sm.exit_probabilities(z))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sqk = math.sqrt(kappa)

    # the driving noise is real, so the state splits into a noisy real part
    # and a noiseless imaginary part; real arrays halve the arithmetic cost
    x = np.full(n_paths, z.real)
    y = np.full(n_paths, z.imag)
    t = np.zeros(n_paths)
    stops = []
    classify_every = 8
    step = 0
    while x.size:
        r2 = x * x + y * y
        h = np.minimum(dt, C_SING_STRIP * r2)
        # the time-horizon clamp can round a hair negative once t ~ t_max
        np.minimum(h, np.maximum(t_max - t, 0.0), out=h)
        # cancellation-free form of cosh(x) - cos(y); the naive difference
        # rounds to exactly zero once |Z| drops below ~1e-8
        shx = np.sinh(0.5 * x)
        sny = np.sin(0.5 * y)
        den = 2.0 * (shx * shx + sny * sny)
        x += (np.sinh(x) / den - alpha) * h
        x -= (sqk * np.sqrt(h)) * rng.standard_normal(x.size)
        y -= (np.sin(y) / den) * h
        t += h
        step += 1
        if step % classify_every:
            # stopped paths idle on near-zero steps until the next sweep:
            # swallowed entries have h ~ |Z|^2, timed-out entries have h = 0,
            # escaped ones keep a finite drift for at most a few steps
            continue
        stop = ((x * x + y * y < EPS_SWALLOW * EPS_SWALLOW)
                | (np.abs(x) > ESCAPE_RE) | (t >= t_max - 1e-12))
        if stop.any():
            stops.append(x[stop] + 1j * y[stop])
            keep = ~stop
            x, y, t = x[keep], y[keep], t[keep]

    bary = sm.exit_probabilities(np.concatenate(stops))
    top = bary.max(axis=1)
    mc = tuple(float(p) for p in bary.mean(axis=0))
    se = tuple(math.sqrt(p * (1.0 - p) / n_paths) for p in mc)
    return CardyZhanResult(
        kappa, alpha, z, n_paths, mc, se, oracle,
        float(np.mean(top <= VERTEX_TOL)), float(np.mean(1.0 - top)),
        seed, dt,
    )


# -- residual identities ---------------------------------------------------------


def bpz_sc_residual(kappa: float, alpha: float, z: complex) -> dict:
    """Residuals of the second-order ODE for the triangle map and its
    vertex-observable counterpart.

    h''/h' is formed by a fourth-order finite difference of the closed-form
    h' and compared with exp_one/(z-1) + exp_zero/z; the log-derivative of
    the dipolar vertex observable is compared with its partial-fraction form,
    whose exponents are the triangle map's.  The difference step is
    1e-3 max(1, |z|).
    """
    z = complex(z)
    h = 1e-3 * max(1.0, abs(z))
    if min(abs(z), abs(z - 1.0)) < 10 * h or abs(z + 1.0) < 10 * h:
        raise BranchPointError("evaluation point too close to a branch point")
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
    return {
        "map_residual": float(res_map),
        "vertex_residual": float(abs(lderiv - closed_v)),
    }


# -- flow/field coupling ----------------------------------------------------------


@dataclass
class CouplingResult:
    """Ensemble statistics of the shifted-field pairing under the flow."""

    samples: np.ndarray
    mean_target: float
    var_target: float
    flagged: int
    seed: int
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
        return ks_normality(
            self.samples, self.mean, math.sqrt(self.variance)
        )


def _coupling_chunk(args):
    """One independently seeded batch of joint flow/field samples."""
    chunk_seed, m, T, dt, bump, alpha = args
    dom = RectDomain()
    basis = eigen_basis(dom)
    patch = patch_from_testfn(dom, bump)
    model = _family_model("chordal", 4.0, alpha)
    flow_ss, field_ss = chunk_seed.spawn(2)
    res = simulate_ensemble(model, patch.centers, m, T, dt,
                            np.random.default_rng(flow_ss))
    flagged = int(np.count_nonzero(~res.alive.all(axis=1)))
    # at kappa = 4, mu = -2 bb = 0: u_T has no log w' term, value is all of it
    u_T = build_u(model).value(res.w) @ patch.weights
    xi = np.random.default_rng(field_ss).standard_normal(
        (m,) + basis.scale_box.shape
    )
    coeff = xi * basis.scale_box
    field_part = basis.field_at_points(coeff, res.w) @ patch.weights
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
        raise ParameterRangeError("run_coupling needs at least 2 samples")
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
    return CouplingResult(samples, mean_target, var_target, flagged, seed,
                          n_samples)
