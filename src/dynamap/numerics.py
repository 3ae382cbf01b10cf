"""Central numerical tolerance settings.

Every threshold used by the library lives in one record so that a run can be
tightened or loosened consistently. Functions take an optional ``numerics``
argument and fall back to :data:`DEFAULT_NUMERICS`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericsConfig:
    # Hermiticity / trace checks on states and maps
    hermiticity_tol: float = 1e-12
    trace_tol: float = 1e-10
    # tomography (map reconstruction from trajectories)
    basis_cond_max: float = 1e12
    # map inversion: flag when sigma_min/sigma_max drops below this
    sv_ratio_min: float = 1e-8
    # matrix logarithm
    branch_tol: float = 1e-6          # eigenvalue argument distance from pi
    eigvec_cond_max: float = 1e12     # beyond this: non-diagonalizable
    logm_fallback_cond: float = 1e6   # beyond this: inverse scaling-and-squaring
    # trace-preservation residual allowed for generators
    generator_tp_tol: float = 1e-8
    # canonical-form degeneracy detection
    degenerate_rate_tol: float = 1e-10
    # time-local map stationarity
    stationarity_tol: float = 1e-6
    # spectral stability margin for repeated application of a map
    spectral_radius_tol: float = 1e-9
    # bath-correlation quadrature
    quad_rtol: float = 1e-8
    eta_rtol: float = 1e-7
    support_floor: float = 1e-12      # spectral-density support cutoff, relative to peak
    # path-tensor propagation budget, in bytes of its largest intermediate
    # (16 (D^2)^(kmax+2)); the default admits kmax = 12 at D = 2
    memory_budget: float = 2.0**32


DEFAULT_NUMERICS = NumericsConfig()
