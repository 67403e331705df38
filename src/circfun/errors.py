"""Exception types shared across the package."""

from __future__ import annotations


class CircfunError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(CircfunError, ValueError):
    """Raised for invalid orders (d < 2), row-length mismatches, or
    operations mixing circulants of different order."""


class InvalidIncrementError(CircfunError, ValueError):
    """Raised when a finite-difference increment is unusable, e.g. a
    non-invertible direction or a non-positive step."""


class ChannelSingularityError(CircfunError, ArithmeticError):
    """Raised when an eigenchannel hits a pole or zero where a finite value
    is required, or exp(G_i(u_i)) overflows where G_i(u_i) is finite.
    ``channels`` carries the offending 1-based channel indices."""

    def __init__(self, channels, message: str | None = None):
        self.channels = tuple(int(c) for c in channels)
        if message is None:
            message = "singular at channel(s) " + ", ".join(str(c) for c in self.channels)
        super().__init__(message)


class DegeneratePolynomialError(CircfunError, ValueError):
    """Raised when a scalar root-finder receives a constant or
    identically-zero polynomial.  Callers must classify these first."""


class SolverError(CircfunError, RuntimeError):
    """Raised when root-finding fails to converge or a solver
    postcondition (residual bound) is violated."""


class RecombinationLimitError(SolverError):
    """Raised when the Cartesian product of per-channel roots would
    exceed the configured candidate cap."""
