"""Exception types shared across the package."""


class RapidGaussError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(RapidGaussError, ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(RapidGaussError):
    """A matrix that must be invertible is singular to working precision."""


class BranchCutError(RapidGaussError):
    """An eigenvalue lies on the closed negative real axis, so the principal
    matrix logarithm is not defined.

    For interpolation generators this signals that the step duration is too
    large; halving it until all eigenvalues clear the cut is the remedy.
    """


class NonFiniteStateError(RapidGaussError, ValueError):
    """Propagated moments overflowed the float range: the state has
    non-finite entries.
    """


class InvalidStateError(RapidGaussError):
    """A covariance matrix violates the uncertainty bound."""


class InvalidAncillaStateError(InvalidStateError):
    """The initial ancilla state of a bombardment setup is unphysical."""


class InvalidSetupError(RapidGaussError, ValueError):
    """Scalar or matrix parameters of a setup are out of their domain."""


class MalformedSeriesError(RapidGaussError, ValueError):
    """A generator series does not hold one coefficient of A, b and C per
    order."""
