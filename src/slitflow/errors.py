"""Exception hierarchy shared across the package."""


class SlitflowError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SlitflowError):
    """Input point lies outside the required domain (e.g. not in the upper half-plane)."""


class CoincidentPointsError(SlitflowError):
    """Two points that must be distinct are numerically coincident."""


class ParameterRangeError(SlitflowError):
    """A model parameter is outside its admissible range."""


class OutsideTriangleError(SlitflowError):
    """Point lies outside the closed triangle beyond tolerance."""


class FiniteDifferenceError(SlitflowError):
    """Finite-difference estimates disagree across step sizes beyond tolerance."""


class PoleError(SlitflowError):
    """Field evaluated at its pole."""


class BranchObstructionError(SlitflowError):
    """No continuous branch of the harmonic observable exists on the upper half-plane."""


class BranchPointError(SlitflowError):
    """Evaluation requested at or too close to a branch point."""


class StepExplosionError(SlitflowError):
    """Trajectory left the guard radius during integration."""


class ReversalInstabilityError(SlitflowError):
    """Backward Loewner integration left the upper half-plane."""


class SupportViolationError(SlitflowError):
    """Test function support is not contained in the required domain."""


class ConfigError(SlitflowError):
    """Invalid run configuration."""
