"""Exception types shared across the package, and the two input guards.

The command line front end maps these onto exit codes: configuration
problems exit with 2, numerical failures with 3.  ``check_int`` is the
one rule for integer arguments and ``check_memory`` the one for sizes;
the package exports the exceptions, not the guards.
"""

import numbers
import os

__all__ = ["ConfigurationError", "NumericError", "DefinitenessError", "ResourceError"]


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


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ConfigurationError unless ``value`` is an integer in low..high.

    numpy integers are accepted, a bool or a float is not.  The message
    reads "<name> must be an integer, got <value!r>", "<name> must be
    >= <low>, got <value>" or, with ``high``, "<name> must be in
    <low>..<high>, got <value>".
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if high is None and value < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ConfigurationError(f"{name} must be in {low}..{high}, got {value}")
