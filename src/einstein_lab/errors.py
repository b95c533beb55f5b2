"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """Malformed graph text file or invalid graph data."""


class MarginError(Exception):
    """A ball required by a computation does not fit inside the host graph."""


class ConvergenceError(Exception):
    """A solve the lab cannot trust: an exactly singular LU factor, a
    linear solve that misses its residual contract, or inverse iteration
    that does not converge or cannot resolve its eigenvalue.  ``residual``
    and ``iterations`` are set where the failing step knows them."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class UnreachableError(Exception):
    """Source and sink carry no current (disconnected within the host).

    Raised instead of returning a float infinity so callers can tell a
    genuinely unreachable sink apart from numeric overflow.
    """
