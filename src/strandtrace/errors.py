"""Shared exception types."""


class GuardExceededError(Exception):
    """An enumeration would exceed the configured work bound."""


class NonTraceableError(Exception):
    """Tracing this diagram would leave the staircase-like class."""


class CertificateError(Exception):
    """A closed-form coefficient that must be a nonnegative multiple of a
    single h is not one, so no h-positivity certificate exists."""
