"""Exception types shared across the package."""


class NetinductError(Exception):
    """Base class for all package errors."""


class ParseError(NetinductError):
    """Malformed network document."""


class ValidationError(NetinductError):
    """Structurally valid document violating a network invariant."""


class SpectralMismatchError(NetinductError):
    """A spectral precondition fails.

    Raised for a non-symmetric input to a symmetric solver or a spectrum that
    is not Laplacian-like (smallest eigenvalue not zero).
    """


class SingularMatrixError(NetinductError):
    """A matrix required to be invertible is singular."""
