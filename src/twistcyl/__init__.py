"""Quantum mechanics on twisted cylindrical surfaces.

Strain-induced metrics and curvatures, the curvature-induced potential,
bound states with their twist phase, and transmission through twisted
sections, all cross-checked by independent finite-difference and
ODE-integration oracles.
"""

from .errors import (ConfigError, EigensolverFailure, IntegratorFailure,
                     NoPropagatingChannel, QuadratureFailure, SingularMetric,
                     ThresholdDegeneracy, TwistCylError)
from .geometry import (COVARIANT, CONTRAVARIANT, CurvatureData,
                       CylinderGeometry, Metric2, PhysicsParams, Strain2,
                       TwistProfile, da_costa_potential, inverse_metric,
                       metric_from_embedding_fd, metric_from_strain,
                       strain_from_linear_twist, surface_curvatures,
                       twisted_metric, undeformed_metric)
from .numeric import (FDGrid, fd_bound_spectrum, fd_eigenpairs,
                      integrate_adaptive, ode_transmission_oracle)
from .scattering import (ScatteringScenario, ScatteringSolution, SweepResult,
                         outside_wavevector, probability_current,
                         region_roots, solve_scattering, transmission_sweep)
from .spectrum import (ModeNumbers, WavefunctionSample, bound_wavefunction,
                       effective_potential, eigenenergy, gauge_potential_star,
                       list_bound_states, no_bound_states_below, twist_phase)

__all__ = [
    "COVARIANT", "CONTRAVARIANT", "ConfigError", "CurvatureData",
    "CylinderGeometry", "EigensolverFailure", "FDGrid", "IntegratorFailure",
    "Metric2", "ModeNumbers", "NoPropagatingChannel", "PhysicsParams",
    "QuadratureFailure", "ScatteringScenario", "ScatteringSolution",
    "SingularMetric", "Strain2", "SweepResult", "ThresholdDegeneracy",
    "TwistCylError", "TwistProfile", "WavefunctionSample",
    "bound_wavefunction", "da_costa_potential", "effective_potential",
    "eigenenergy", "fd_bound_spectrum", "fd_eigenpairs",
    "gauge_potential_star", "integrate_adaptive", "inverse_metric",
    "list_bound_states", "metric_from_embedding_fd", "metric_from_strain",
    "no_bound_states_below", "ode_transmission_oracle", "outside_wavevector",
    "probability_current", "region_roots", "solve_scattering",
    "strain_from_linear_twist", "surface_curvatures", "transmission_sweep",
    "twist_phase", "twisted_metric", "undeformed_metric",
]

__version__ = "0.1.0"
