"""Quantum mechanics on twisted cylindrical surfaces.

Strain-induced metrics and curvatures, the curvature-induced potential,
bound states with their twist phase, and transmission through twisted
sections, all cross-checked by independent spectral-collocation and
ODE-integration oracles.
"""

import os
import sys

# The largest matrix twistcyl builds is a ~100-point collocation, too small
# for a second OpenBLAS thread to pay back its start-up CPU; on 2 CPUs it
# also stalls every complex eig of order 47 by about 12 ms. So load BLAS
# with one thread, unless a host program already loaded numpy or the user
# set a thread count; the variable is removed again so that child processes
# see the user's own environment.
if ("numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
        and "OMP_NUM_THREADS" not in os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the variable at load)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (ConfigError, EigensolverFailure, IntegratorFailure,
                     NoPropagatingChannel, SingularMetric, ThresholdDegeneracy,
                     TwistCylError)
from .geometry import (COVARIANT, CONTRAVARIANT, CurvatureData,
                       CylinderGeometry, Metric2, PhysicsParams, TwistProfile,
                       da_costa_potential, inverse_metric,
                       metric_from_embedding_fd, metric_from_strain,
                       second_form_from_embedding_fd, strain_from_twist,
                       surface_curvatures, twisted_metric, undeformed_metric)
from .scattering import (ScatteringScenario, ScatteringSolution, SweepResult,
                         outside_wavevector, probability_current,
                         region_roots, solve_scattering, transmission_sweep)
from .spectrum import (ModeNumbers, WavefunctionSample, bound_wavefunction,
                       eigenenergy, gauge_potential_star, list_bound_states,
                       twist_phase)

__all__ = [
    "COVARIANT", "CONTRAVARIANT", "ConfigError", "CurvatureData",
    "CylinderGeometry", "EigensolverFailure", "IntegratorFailure",
    "Metric2", "ModeNumbers", "NoPropagatingChannel", "PhysicsParams",
    "ScatteringScenario", "ScatteringSolution", "SingularMetric",
    "SweepResult", "ThresholdDegeneracy", "TwistCylError", "TwistProfile",
    "WavefunctionSample", "bound_wavefunction", "da_costa_potential",
    "eigenenergy", "fd_bound_spectrum", "fd_eigenpairs",
    "gauge_potential_star", "inverse_metric",
    "list_bound_states", "metric_from_embedding_fd", "metric_from_strain",
    "ode_transmission_oracle", "outside_wavevector",
    "probability_current", "region_roots", "second_form_from_embedding_fd",
    "solve_scattering", "strain_from_twist", "surface_curvatures",
    "transmission_sweep", "twist_phase", "twisted_metric",
    "undeformed_metric",
]

__version__ = "0.1.0"

# the oracles, in ``numeric``, load on first use (PEP 562): of the commands
# only validate needs them
_ORACLES = ("fd_bound_spectrum", "fd_eigenpairs", "ode_transmission_oracle")


def __getattr__(name):
    if name in _ORACLES:
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
