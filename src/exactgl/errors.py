"""Exception types shared across the solvers."""


class DimensionMismatchError(ValueError):
    """Shapes of the response, design, group partition, or coefficients disagree."""


class GroupSizeGuardError(RuntimeError):
    """A sparse-group solve was refused because some group is too large to sign-search."""


class SecularRootError(RuntimeError):
    """Root finding on the secular equation failed; carries the last iterate as ``best_r``."""

    def __init__(self, message, best_r=None):
        super().__init__(message)
        self.best_r = best_r


class SignSearchError(RuntimeError):
    """Sign enumeration exhausted without a feasible candidate.

    In exact arithmetic exactly one sign vector is feasible once the zero
    check has failed, so hitting this indicates a numerical-tolerance
    problem, not a modeling error.
    """
