"""Acceptance thresholds: when checked evidence passes.

A check passes when its residual is at most ``multiple * tol * max(1, scale)``:
the multiple names what is checked, the scale is the size of the data the
residual comes from (1 for an absolute check), as README's "Tolerances"
table lists.  Decision thresholds (is a margin positive, is a bound active)
are not acceptance checks and stay with their callers.
"""

#: A computed identity: an LP answer re-checked on its rows, a certificate's
#: combination, a stationarity residual or a complementarity pairing.
RESIDUAL = 50.0
#: The sign of a computed multiplier or density.
SIGN = 1.0
#: How far outside the box and rows a caller's base point may sit.
BASE_POINT = 100.0
#: Bounds at most ``PINCH * tol`` apart pinch an atom: only a wider gap has a
#: midpoint clearing each bound by more than ``tol``.
PINCH = 2.0


def threshold(multiple: float, scale: float, tol: float) -> float:
    """``multiple * tol * max(1, scale)``."""
    return multiple * tol * max(1.0, scale)


def within(residual, multiple: float, scale: float, tol: float):
    """Whether ``residual`` passes its threshold; a NaN residual fails."""
    return residual <= threshold(multiple, scale, tol)
