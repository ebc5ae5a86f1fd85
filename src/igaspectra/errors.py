"""Exception types shared across the package.

The command line front end maps these onto exit codes: configuration
problems exit with 2, numerical failures with 3.
"""


class ConfigurationError(ValueError):
    """A requested computation is inconsistent or outside supported bounds."""


class NumericError(RuntimeError):
    """A numerical process failed (non-convergence, indefinite matrix, ...)."""


class DefinitenessError(NumericError):
    """A matrix required to be positive definite is not.

    Attributes
    ----------
    pivot : int
        1-based index of the first failing Cholesky pivot.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class ResourceError(RuntimeError):
    """A computation would exceed a size cap or the physical memory."""
