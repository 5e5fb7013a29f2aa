"""Exception taxonomy shared by all mvlab modules."""


class DomainError(ValueError):
    """A point, radius or time lies outside the validity range of a model."""


class UnsupportedError(ValueError):
    """A (kind, dimension) or (field, geometry) combination is not in the catalog."""


class NoRegionError(ValueError):
    """The requested kernel level set does not close up inside the domain."""


class PreconditionError(ValueError):
    """An operation precondition (e.g. nonnegativity of a test function) fails."""


class ShootingError(RuntimeError):
    """The geodesic shooting ODE exited the domain or failed to converge."""

    def __init__(self, message, exit_sigma=None):
        super().__init__(message)
        self.exit_sigma = exit_sigma


class CutLocusWarning(UserWarning):
    """Two distinct minimizing candidates were found for the same endpoint."""
