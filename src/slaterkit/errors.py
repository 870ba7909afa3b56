"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SlaterkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SlaterkitError):
    """Array lengths do not match the number of atoms or constraints."""


class FileFormatError(SlaterkitError):
    """A problem or point file is malformed; message names the bad field."""


class VoidProblemError(SlaterkitError):
    """The box is empty at construction time (crossed or senseless bounds)."""


class InfeasiblePointError(SlaterkitError):
    """A point required to be feasible violates some constraint."""


class PreconditionError(SlaterkitError):
    """An operation was called with inputs outside its contract."""


class EmptyPolyhedronError(SlaterkitError):
    """The linear constraint system has no solution at all."""


class InconsistentEqualitiesError(SlaterkitError):
    """The equality system is unsolvable; carries a combination certificate.

    Attributes
    ----------
    certificate : numpy.ndarray
        Coefficients c over the equality rows with ``sum c_j h_j = 0`` but
        ``sum c_j b_j != 0``.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ConstructionFailedError(SlaterkitError):
    """A point construction could not reach the required margins."""


class CertificateNotFoundError(SlaterkitError):
    """No nonzero dual certificate could be produced at the working tolerance.

    This is a tolerance failure report, never a claim that an interior
    point exists.
    """


class InvalidGradientError(SlaterkitError):
    """A user-supplied gradient is not finite or disagrees with finite differences."""


class NumericalFailureError(SlaterkitError):
    """A numerical routine lost too much precision to certify its answer."""
