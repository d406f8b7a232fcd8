"""Shared exception types, and ``check_guard``, the one check every work
guard makes."""


class GuardExceededError(Exception):
    """An enumeration would exceed the configured work bound."""


class NonTraceableError(Exception):
    """Tracing this diagram would leave the staircase-like class."""


class CertificateError(Exception):
    """A closed-form coefficient that must be a nonnegative multiple of a
    single h is not one, so no h-positivity certificate exists."""


def check_guard(work, limit, message, **context):
    """Raise GuardExceededError if work > limit, its ``message`` formatted
    only then, with ``context`` plus ``work`` and ``limit``."""
    if work > limit:
        raise GuardExceededError(message % dict(context, work=work, limit=limit))
