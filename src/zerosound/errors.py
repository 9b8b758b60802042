"""Error types shared across the toolkit.

Each error class carries a stable machine-readable ``label`` and the CLI
exit code documented in the README.
"""

__all__ = [
    "ZeroSoundError",
    "InvalidArgumentError",
    "DomainError",
    "NoUndampedRootError",
    "ConvergenceError",
    "NoCollectivePeakError",
    "IOFailureError",
    "NumericalBlowupError",
]


class ZeroSoundError(Exception):
    """Base class for all toolkit errors."""

    label = "error"
    exit_code = 1


class InvalidArgumentError(ZeroSoundError, ValueError):
    """An input violates a documented precondition."""

    label = "invalid-argument"
    exit_code = 2


class DomainError(InvalidArgumentError):
    """Evaluation requested at or below the particle-hole continuum edge."""

    label = "domain"


class NoUndampedRootError(ZeroSoundError):
    """No propagating mode above the continuum exists for this coupling."""

    label = "no-undamped-root"
    exit_code = 3


class ConvergenceError(ZeroSoundError):
    """Root refinement exhausted its iteration budget.

    ``bracket`` holds the best (lo, hi) enclosure reached, in the solver's
    working variable.
    """

    label = "convergence"
    exit_code = 4

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class NoCollectivePeakError(ZeroSoundError):
    """No spectral peak above the continuum band rises over the noise floor."""

    label = "no-collective-peak"
    exit_code = 5


class IOFailureError(ZeroSoundError):
    """A requested output path could not be written or input path read."""

    label = "io"
    exit_code = 6


class NumericalBlowupError(ZeroSoundError):
    """A result of the time evolution or of its spectrum left the float range."""

    label = "numerical-blowup"
    exit_code = 7
