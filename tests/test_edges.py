"""The strip and oracle stack at the edge of float64, as one property.

Over the whole admissible box (kappa log-uniform in (4, 1e300], alpha up to
+-(1 - 2^-52), points near both strip edges and near the pole, |Re z| up to
800), every call of cardy_zhan, bpz_sc_residual and the oracle
ScMap(...).exit_probabilities returns finite values or raises InputError or
NumericalError, within EXAMPLE_SECONDS and without a warning.  Wherever the
oracle answers at (alpha, z) and at the mirrored (-alpha, -conj z), the two
answers agree to MIRROR_TOL once right and left are swapped.
"""

import math
import signal
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from slitflow.conformal import ANGLE_MIN, ScMap
from slitflow.errors import InputError, NumericalError
from slitflow.observables import bpz_sc_residual, cardy_zhan

from test_conformal import _angle_edges

EXAMPLE_SECONDS = 1.0  # per call; a run that outlives it counts as a hang
ALPHA_EDGE = 1.0 - 2.0 ** -52
MIRROR_TOL = 1e-7  # the oracle's error is about 1e-8 at ANGLE_MIN


class Hang(Exception):
    """A call that outlived EXAMPLE_SECONDS."""


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# log-uniform over the box, with extra weight below 2 / ANGLE_MIN, where the
# calls at alpha = 0 run instead of raising InputError at once
KAPPAS = st.one_of(
    st.sampled_from([math.nextafter(4.0, 5.0), 1e300]),
    _log_uniform(4.0, 1e300).filter(lambda k: 4.0 < k <= 1e300),
    _log_uniform(4.0, 2.0 / ANGLE_MIN).filter(lambda k: 4.0 < k),
)
ALPHAS = st.one_of(
    st.sampled_from([0.0, ALPHA_EDGE, -ALPHA_EDGE]),
    st.integers(1, 52).flatmap(
        lambda j: st.sampled_from([1.0 - 2.0 ** -j, -(1.0 - 2.0 ** -j)])),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
# the admissibility rule's edges, just inside and just outside, in each regime
PARAMS = st.one_of(
    st.sampled_from(_angle_edges(1.01 * ANGLE_MIN) + _angle_edges(0.99 * ANGLE_MIN)),
    st.tuples(KAPPAS, ALPHAS),
)
RE = st.floats(-800.0, 800.0)
GAP = _log_uniform(1e-15, 1.0)  # distance to an edge of the strip
POINTS = st.one_of(
    st.builds(lambda x, g: complex(x, g), RE, GAP),  # near Im 0
    st.builds(lambda x, g: complex(x, math.pi - g), RE, GAP),  # near Im pi
    st.builds(lambda r, th: r * complex(math.cos(th), math.sin(th)),  # the pole
              _log_uniform(1e-8, 0.1), st.floats(1e-6, math.pi - 1e-6)),
    st.builds(complex, RE, st.floats(1e-3, math.pi - 1e-3)),
)


def _on_alarm(signum, frame):
    raise Hang(f"no result within {EXAMPLE_SECONDS} s")


def _ends_cleanly(fn):
    """fn(), or None where it raises InputError or NumericalError; a warning
    or a run past EXAMPLE_SECONDS fails the test."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn()
    except (InputError, NumericalError):
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# the path stops where the swallow barycentric is -1.6e-16, so is the mean
# of the stops, and its standard error once took the square root of
# p(1 - p) < 0
@example(params=(4.001, -0.5), z=37.178531808867916 + 2.7295856192804857j,
         n_paths=1, dt=1e-3, t_max=1.0, seed=4813)
@settings(max_examples=60, deadline=None)
@given(params=PARAMS, z=POINTS, n_paths=st.integers(1, 10),
       dt=_log_uniform(1e-3, 0.1), t_max=_log_uniform(1e-3, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_strip_and_oracle_end_cleanly_on_the_admissible_box(
        params, z, n_paths, dt, t_max, seed):
    kappa, alpha = params
    values = []
    p = _ends_cleanly(lambda: ScMap(kappa, alpha).exit_probabilities(z))
    if p is not None:
        values += list(p)
        mirror = _ends_cleanly(lambda: ScMap(kappa, -alpha).exit_probabilities(
            complex(-z.real, z.imag)))
        if mirror is not None:
            assert np.abs(p - mirror[[0, 2, 1]]).max() < MIRROR_TOL, (p, mirror)
    res = _ends_cleanly(lambda: bpz_sc_residual(kappa, alpha, z))
    if res is not None:
        values += [res["map_residual"], res["vertex_residual"]]
    res = _ends_cleanly(lambda: cardy_zhan(kappa, alpha, z, n_paths=n_paths,
                                           t_max=t_max, dt=dt, seed=seed))
    if res is not None:
        values += [*res.mc, *res.se, *res.oracle, res.ambiguous_frac,
                   res.oracle_share]
    assert np.all(np.isfinite(values)), values
