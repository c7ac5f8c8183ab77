"""Exception hierarchy shared by all cocktail modules.

The command line maps these onto process exit codes: input problems exit
with 2, degenerate data with 3, and internal contract violations
(:class:`ContractViolationError`) with 4.
"""

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE_DATA = 3
EXIT_INTERNAL_ERROR = 4


class CocktailError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CocktailError, ValueError):
    """An argument violates a documented precondition (e.g. angle out of range)."""


class InputError(CocktailError):
    """A file, configuration document, or CLI argument is unusable."""


class ParseError(InputError):
    """A structured file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(InputError):
    """A file has a recognizable but unsupported format or version."""


class DegenerateDataError(CocktailError):
    """The data is well-formed but carries no usable signal (e.g. zero variance)."""


class ContractViolationError(CocktailError):
    """Caller combined arguments in a way the API forbids."""
