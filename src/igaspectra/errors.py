"""Exception types shared across the package, and the memory guard.

The command line front end maps these onto exit codes: configuration
problems exit with 2, numerical failures with 3.
"""

import os


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


def check_memory(need: float, task: str, subject: str) -> None:
    """Raise ResourceError, before allocating, if ``need`` bytes exceed physical memory.

    The message reads "<task> would need X GiB for <subject>, ...".
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > memory:
        raise ResourceError(f"{task} would need {need / 2**30:.3g} GiB for "
                            f"{subject}, more than the physical memory")
