"""Exception hierarchy shared across the package."""


class McsumError(Exception):
    """Base class for all package-specific errors."""


class NotStochastic(McsumError):
    """Input matrix is not row-stochastic (negative entry or bad row sum)."""


class NotIrreducible(McsumError):
    """The chain's directed graph is not strongly connected."""


class SingularMatrix(McsumError):
    """A linear system is singular or too ill-conditioned to solve."""


class GenerationFailed(McsumError):
    """Random chain generation failed to produce an irreducible chain."""


#: Errors that signal bad user input (CLI exit code 2).
VALIDATION_ERRORS = (NotStochastic, NotIrreducible, GenerationFailed)

#: Errors that signal numerical failure on accepted input (CLI exit code 3).
NUMERICAL_ERRORS = (SingularMatrix,)
