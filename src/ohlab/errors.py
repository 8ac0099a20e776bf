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
    """A Newton solve of a traveling wave failed: no convergence, a stall or
    a collapsed or spurious answer.  A branch bisects a step that fails;
    any other failure reaches the caller, and the CLI exits 2."""
