"""Exception types shared across the package."""


class TwistCylError(Exception):
    """Base class for all twistcyl-specific failures."""


class SingularMetric(TwistCylError):
    """Metric determinant at or below the singularity tolerance."""


class ThresholdDegeneracy(TwistCylError):
    """Scattering energy sits inside the degenerate-roots window at threshold,
    or its matching system has no finite solution."""


class NoPropagatingChannel(TwistCylError):
    """No propagating mode exists outside the twisted section at this energy."""


class EigensolverFailure(TwistCylError):
    """The eigen-oracle met a non-finite operator or spectrum, a non-real
    eigenvalue, or a twist phase too large for its collocation points."""


class IntegratorFailure(TwistCylError):
    """The ODE oracle's propagated solution is not finite."""


class ConfigError(TwistCylError):
    """Invalid run configuration; carries the offending line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
