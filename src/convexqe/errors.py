"""Exception types shared across the package."""


class ConvexQEError(Exception):
    """Base class for all domain errors raised by this package."""


class FormulaSyntaxError(ConvexQEError):
    """Raised on malformed input text, with a line/column position."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class BudgetExceededError(ConvexQEError):
    """A size or depth budget ran out.  The input was not wrong."""


class PrecisionBudgetError(ConvexQEError):
    """Interval refinement hit its bit budget; the oracle data is suspect."""


class MalformedModelError(ConvexQEError):
    pass


class NonvaluationalInterpretationError(ConvexQEError):
    """Elimination or synthesis was asked over a cut with trivial stabilizer."""


class UnsupportedCutError(ConvexQEError):
    """The cut's edge cannot be named by any closed term, so no
    quantifier-free answer exists in this language."""


class SkolemShapeUnsupportedError(ConvexQEError):
    """A branch needs a witness strictly between two irrational cut images;
    no finite guarded family of linear terms can supply one."""


class ConstantPieceUnsupportedError(ConvexQEError):
    pass


class PreconditionViolatedError(ConvexQEError):
    pass


class SearchExhaustedError(ConvexQEError):
    """A constructive search found nothing.  ``cutarith.edge_member`` raises
    it only when no member of the cut lies above the bound it was given,
    which proves that no witness exists there; ``skolemlab.choice_violation``
    raises it when no input on its fixed and seeded ladder shows a
    violation."""
