"""Shared exception types."""


class GraverNashError(Exception):
    """Base class for all library errors."""


class DimensionError(GraverNashError, ValueError):
    """Operands have incompatible dimensions."""


class ResourceCapExceeded(GraverNashError):
    """A configured size cap was hit; the instance is too large."""


class InfeasibleError(GraverNashError):
    """The feasible set of the problem at hand is empty."""


class ValidationError(GraverNashError, ValueError):
    """Input data violates a structural invariant."""


class CertificateError(GraverNashError):
    """An internal result failed its independent check: a program fault."""
