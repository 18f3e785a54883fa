"""Numerical laboratory for slit holomorphic stochastic flows.

Subpackages cover the closed-form layer (conformal maps, Laurent vector
fields, the drift/diffusion classification and its harmonic observables),
the simulation layer (Loewner and flow integrators), a mode-truncated
Gaussian free field with energy quadratures, and the stochastic identity
experiments tying them together.
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
from .conformal import (
    MobiusAut,
    ScMap,
    green_half_plane,
    green_pullback,
    sc_map_build,
)
from .errors import SlitflowError
from .fields import FieldCoeffs, lie_derivative, lie_green_closed, sigma_classify
from .flow import (
    DrivingPath,
    chordal_loewner,
    dipolar_loewner,
    sample_driving,
    simulate_ensemble,
)
from .gff import RectDomain, TestFn, eigen_basis, energy_product
from .observables import (
    ChargeVector,
    bpz_sc_residual,
    cardy_zhan,
    martingale_suite,
    phi_hat_one_point,
    qv_check,
    run_coupling,
    vertex_correlation,
)
from .stats import McReport, drift_test

__all__ = [name for name in dir() if not name.startswith("_")]
