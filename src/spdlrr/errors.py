"""Exception types shared across the package."""


class SpdlrrError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(SpdlrrError, ValueError):
    """Input is structurally valid but degenerate for the requested operation
    (constant cube, empty class, zero-total histogram, ...)."""


class SvdFailure(SpdlrrError, RuntimeError):
    """The SVD backend did not converge, or was given NaN or infinite entries."""


class SolverDiverged(SpdlrrError, ArithmeticError):
    """A solver iterate turned NaN or infinite."""


class FormatError(SpdlrrError, ValueError):
    """A file does not conform to its documented on-disk format."""


class NonFiniteData(SpdlrrError, ValueError):
    """Loaded data contains NaN or infinite entries."""
