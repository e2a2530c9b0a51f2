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
    """A result overflowed the float range: propagated moments with
    non-finite entries, or a fixed point too large to represent.
    """


class InvalidStateError(RapidGaussError):
    """A state below the uncertainty bound, or a result outside the table
    its theory allows."""


class InvalidAncillaStateError(InvalidStateError):
    """The initial ancilla state of a bombardment setup is unphysical."""


class InvalidSetupError(RapidGaussError, ValueError):
    """An argument, setup parameter or configuration value is out of its
    domain."""
