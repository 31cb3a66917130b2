"""Exception types shared across the package."""


class TwistCylError(Exception):
    """Base class for all twistcyl-specific failures."""


class SingularMetric(TwistCylError):
    """Metric determinant at or below the singularity tolerance."""


class QuadratureFailure(TwistCylError):
    """Adaptive quadrature exceeded its maximum recursion depth."""


class ThresholdDegeneracy(TwistCylError):
    """Scattering energy sits inside the degenerate-roots window at threshold."""


class NoPropagatingChannel(TwistCylError):
    """No propagating mode exists outside the twisted section at this energy."""


class EigensolverFailure(TwistCylError):
    """Inverse iteration failed to converge or produced a non-real spectrum."""


class IntegratorFailure(TwistCylError):
    """Adaptive ODE integration failed its step control."""


class ConfigError(TwistCylError):
    """Invalid run configuration; carries the offending line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
