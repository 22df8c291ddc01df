"""Exception types shared across the package."""


class QpbError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitError(QpbError):
    """A configured size bound was exceeded (exponential-cost guard)."""


class NonSquareError(QpbError, ValueError):
    """A square matrix was required."""


class PoleError(QpbError, ZeroDivisionError):
    """Evaluation or substitution at a pole of a Laurent object."""


class NotPolynomialError(QpbError):
    """A Laurent computation was expected to land in nonnegative exponents."""


class UnknownSuiteError(QpbError, KeyError):
    """run_suite was asked for a suite that does not exist."""


class OeisError(QpbError):
    """Base class for OEIS client errors."""


class OeisNotFoundError(OeisError):
    """No local, bundled, or remote data for the requested sequence."""


class OeisNetworkError(OeisError):
    """Remote fetch failed and no fallback was available."""
