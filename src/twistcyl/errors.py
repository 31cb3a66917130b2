"""Exception types shared across the package."""


class TwistCylError(Exception):
    """Base class for all twistcyl-specific failures."""


class SingularMetric(TwistCylError):
    """Metric determinant at or below the singularity tolerance."""


class ThresholdDegeneracy(TwistCylError):
    """The matching system of a scattering energy has no finite solution:
    the energy is the section's threshold V* itself, where the two section
    modes coalesce and the closed form reads 0/0, an input overflows, or
    the inside phase reaches 2^52 rad."""


class NoPropagatingChannel(TwistCylError):
    """No propagating mode exists outside the twisted section at this energy."""


class EigensolverFailure(TwistCylError):
    """The eigen-oracle met a non-finite strain, operator or spectrum, a
    non-real eigenvalue, too much metric rounding or an unresolved phase."""


class IntegratorFailure(TwistCylError):
    """The ODE oracle met a non-finite strain, step count or propagated
    solution, too much metric rounding, or a rate its steps do not resolve."""


class ConfigError(TwistCylError):
    """Invalid run configuration; carries the offending line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
