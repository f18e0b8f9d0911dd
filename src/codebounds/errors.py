"""Exception types shared across the package."""


class CodeBoundsError(Exception):
    """Base class for package-specific failures."""


class NoCertificateError(CodeBoundsError):
    """No sign-feasible polynomial was found at the requested degree.

    Either the LP admits none, or the cutting-plane search ended with a
    residual sign violation too large for the shift to absorb; the
    message says which, with the rounds run and the grid size.
    """


class LPFailureError(CodeBoundsError):
    """The LP solver reached its pivot cap, or its basis turned singular
    when refactorized."""


class TheoremViolationError(CodeBoundsError):
    """A verified certificate was contradicted by an existing code.

    This should never fire; it indicates a bug in the pipeline (or a
    disproof of the underlying bound) and is always surfaced loudly.
    """
