"""Exception types shared across the package.

An OhlabError is a numerical failure of a computation whose inputs passed
their checks; each subclass is caught where it is handled.  A bad input
raises ValueError, and an outcome the paper allows for, such as a run that
does not break, is a return value, not an exception.
"""


class OhlabError(Exception):
    """Base class for the package's numerical failures."""


class NumericalFailure(OhlabError):
    """A computation produced non-finite values; `simulate` ends the run with
    Termination.NumericalFailure."""


class NoConvergence(OhlabError):
    """Newton iteration failed to converge within the step-halving budget;
    the wave solvers fall back to continuation, and the CLI exits 2."""
