"""Numerical laboratory for slit holomorphic stochastic flows.

Subpackages cover the closed-form layer (the half-plane Green's function,
the triangle map, Laurent vector fields, the drift/diffusion classification
and its harmonic observables), the simulation layer (Loewner and flow
integrators), a mode-truncated Gaussian free field with its Dirichlet
energies, and the stochastic identity experiments tying them together.
"""

__version__ = "0.1.0"
