"""Exception types shared across the package."""


class OhlabError(Exception):
    """Base class for all package-specific failures."""


class NonZeroMean(OhlabError):
    """Input field violates the zero-mass constraint required by the
    mean-zero anti-derivative."""


class NumericalFailure(OhlabError):
    """A computation produced non-finite values."""


class InsufficientWindow(OhlabError):
    """Too few samples qualify for the blow-up regression window."""


class DegenerateData(OhlabError):
    """Initial data is identically zero where a positive norm is required."""


class NegativeParameter(OhlabError):
    """Closed forms for the two-mode family assume a, b >= 0."""


class TailTooLarge(OhlabError):
    """Line data does not decay at the truncation boundaries."""


class NoConvergence(OhlabError):
    """Newton iteration failed to converge within the step-halving budget."""
