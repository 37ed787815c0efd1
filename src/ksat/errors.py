"""Exception hierarchy shared by the library and the CLI.

UsageError maps to CLI exit code 2, DomainError (and subclasses) to exit
code 1. Everything else is a bug.
"""


class KsatError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(KsatError):
    """Malformed input: bad arguments, bad file formats, broken preconditions."""


class DomainError(KsatError):
    """A well-posed request whose answer does not exist or is out of reach."""


class InfeasiblePinningError(DomainError):
    """A partial assignment admits no satisfying extension."""


class CapExceededError(DomainError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


class RegimeError(DomainError):
    """A step that is guaranteed under the analysis preconditions failed,
    indicating parameters outside the supported regime."""
