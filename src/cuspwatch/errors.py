"""Shared exception types.

PreconditionError marks a violated documented precondition; the CLI maps it
to exit code 2. Anything else escaping a command is an internal error
(exit code 1); InternalError names a broken invariant of the package itself.
"""


class PreconditionError(ValueError):
    """A documented precondition on an operation's input was violated."""


class DependentInput(PreconditionError):
    """Input vectors or functionals were required to be independent but are not."""


class GaugeTooSteep(PreconditionError):
    """The gauge slope is too large for the requested operation."""


class NoUniqueLeadingTuple(PreconditionError):
    """The support of a wedge vector has no maximum in the componentwise order."""


class PrecisionExhausted(RuntimeError):
    """A certified comparison failed to separate within the precision cap.

    This cannot happen for comparisons between a rational and the log of a
    rational other than 1 (they are never equal), so seeing it indicates a
    bug rather than an unlucky input.
    """


class InternalError(RuntimeError):
    """An invariant the package guarantees did not hold: a bug, not bad input.

    Raised explicitly in place of assert, which python -O strips.
    """
