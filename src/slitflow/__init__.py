"""Numerical laboratory for slit holomorphic stochastic flows.

Subpackages cover the closed-form layer (the half-plane Green's function,
the triangle map, Laurent vector fields, the drift/diffusion classification
and its harmonic observables), the simulation layer (Loewner and flow
integrators), a mode-truncated Gaussian free field with its Dirichlet
energies, and the stochastic identity experiments tying them together.
"""

__version__ = "0.1.0"

from .classify import (
    CftParams,
    FlowModel,
    HarmonicU,
    build_u,
    enumerate_families,
    solve_system,
)
from .conformal import ScMap, green_half_plane, sc_map_build
from .errors import SlitflowError
from .fields import FieldCoeffs, lie_derivative, lie_green_closed
from .flow import DrivingPath, chordal_loewner, simulate_ensemble
from .gff import RectDomain, TestFn, eigen_basis
from .observables import (
    bpz_sc_residual,
    cardy_zhan,
    martingale_suite,
    qv_check,
    run_coupling,
)
from .stats import McReport, drift_test

__all__ = [name for name in dir() if not name.startswith("_")]
