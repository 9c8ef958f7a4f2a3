"""Exception types shared across the package."""

__all__ = ["Error", "InputError", "PathExplosion", "EstimationError",
           "RegressionError"]


class Error(Exception):
    """Base class for all tamsde errors."""


class InputError(Error):
    """Raised when an argument or configuration value is invalid."""


class PathExplosion(Error):
    """A simulated path left the stable regime.

    Raised when a path exceeds its step budget or its state stops being
    finite.  Carries the last known state so the caller can see where the
    path was lost.
    """

    def __init__(self, message, time=None, state=None, steps=None, leg=None):
        super().__init__(message)
        self.time = time
        self.state = state
        self.steps = steps
        self.leg = leg


class EstimationError(Error):
    """Raised when a Monte Carlo estimate is not trustworthy."""


class RegressionError(Error):
    """Raised when a rate regression cannot be performed on the given rows."""
