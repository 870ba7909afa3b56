"""Recover and verify first-order multipliers at a feasible point.

Multipliers exist exactly when the negated objective slope decomposes into
a bound part (with the sign pattern dictated by which bounds are active)
plus a nonnegative combination of active inequality slopes plus an
unrestricted combination of equality slopes.  The decomposition is a linear
feasibility question; when it fails, the failure certificate converts into
a feasible descent direction, which is returned instead.

Smooth inequality constraints are admitted after two gates: their supplied
slopes must agree with finite differences, and the constraint system must
admit a linearized interior point at the base point.  Without the second
gate the multiplier question is undecidable at this level and the outcome
is reported as not applicable rather than as a negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cones
from .cones import Multipliers
from .errors import InvalidGradientError, PreconditionError
from .model import (
    DEFAULT_TOL,
    Problem,
    _as_vector,
    _constraint_slope,
    _partition,
    _require_member,
    check_feasible,
    conjugate_exponent,
    lp_norm,
    pairing,
    regions,
)
from .slater import SlaterReport, _linearized_search
from .tolerances import RESIDUAL, SIGN, within

__all__ = [
    "Multipliers",
    "KktOutcome",
    "StationarityReport",
    "split_zeta",
    "recover_multipliers_linear",
    "recover_multipliers_nonlinear",
    "validate_gradients",
    "verify_stationarity",
]

FOUND = "found"
NO_MULTIPLIERS = "no_multipliers"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class KktOutcome:
    """Result of a multiplier search: found, refuted, or not applicable.

    On refutation ``direction`` is a feasible direction along which the
    objective's first-order model strictly decreases.
    """

    status: str
    multipliers: Multipliers | None = field(default=None, repr=False)
    direction: np.ndarray | None = field(default=None, repr=False)
    slater_report: SlaterReport | None = field(default=None, repr=False)
    diagnostics: dict = field(default_factory=dict, repr=False)

    @property
    def found(self) -> bool:
        return self.status == FOUND


@dataclass(frozen=True)
class StationarityReport:
    """Residuals and sign checks for a candidate multiplier set."""

    residual: np.ndarray = field(repr=False)
    residual_max: float
    residual_dual_norm: float
    sign_violation: float
    complementarity_lower: float
    complementarity_upper: float
    complementarity_ineq: float
    ok: bool


def split_zeta(prob: Problem, x: np.ndarray, zeta: np.ndarray,
               tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split a bound multiplier density into lower and upper parts.

    The lower part is the negative piece on lower-active atoms, the upper
    part the positive piece on upper-active atoms; where both bounds are
    active the sign decides the side.  The input must obey the active-set
    sign pattern.

    Raises
    ------
    InfeasiblePointError
        If ``x`` is not feasible.
    PreconditionError
        If ``zeta`` is not finite, has the wrong sign somewhere or lives on
        inactive atoms.
    """
    zeta = _as_vector(zeta, prob.size, "zeta", nonfinite=PreconditionError)
    part = regions(prob, x, tol)
    if not within(cones._sign_residual(part, zeta), SIGN, float(np.max(np.abs(zeta))), tol):
        raise PreconditionError(
            "density violates the active-bound sign pattern; cannot split")
    _, za, zb = cones._split(part, zeta)
    return za, zb


def recover_multipliers_linear(prob: Problem, xbar: np.ndarray,
                               grad_f: np.ndarray,
                               tol: float = DEFAULT_TOL) -> KktOutcome:
    """Find multipliers at ``xbar`` for a problem with linear constraints.

    ``grad_f`` is the objective slope density at ``xbar``.  Returns
    ``found`` with a multiplier set, or ``no_multipliers`` with a feasible
    direction along which ``grad_f`` strictly decreases.

    Raises
    ------
    InfeasiblePointError
        If ``xbar`` is not feasible.
    InvalidGradientError
        If ``grad_f`` has a NaN or infinite entry.
    PreconditionError
        If the problem carries smooth constraints (use the nonlinear entry
        point for those).
    """
    if prob.nonlinear:
        raise PreconditionError(
            "problem has smooth constraints; use recover_multipliers_nonlinear")
    return _recover(prob, xbar, grad_f, tol, fd_rel_tol=None)


def _recover(prob: Problem, xbar, grad_f, tol: float,
             fd_rel_tol: float | None) -> KktOutcome:
    """One feasibility check and one activity pass at ``xbar``; with
    ``fd_rel_tol``, the smooth constraints' validated slopes there and the
    linearized interior-point gate; then the split of ``-grad_f`` over the
    active slopes."""
    xbar = _as_vector(xbar, prob.size, "base point")
    grad_f = _as_vector(grad_f, prob.size, "objective slope", nonfinite=InvalidGradientError)
    _require_member(check_feasible(prob, xbar, tol).violations, "base point")
    part = _partition(prob, xbar, tol)
    slopes = None if fd_rel_tol is None else validate_gradients(prob, xbar, fd_rel_tol)
    diagnostics = {"active_ineq": list(part.lin_active)}
    slater, extra = None, [slopes[i] for i in part.nl_active] if slopes else []
    if slopes is not None:
        slater = _linearized_search(prob, xbar, extra, tol)
        if not slater.found:
            return KktOutcome(status=NOT_APPLICABLE, slater_report=slater,
                              diagnostics={"reason": "no linearized interior point"})
        diagnostics["active_smooth"] = list(part.nl_active)
    mult, d = cones.decompose_into_normal_sum(prob, part, -grad_f, extra, tol)
    if mult is not None:
        return KktOutcome(status=FOUND, multipliers=mult, slater_report=slater,
                          diagnostics=diagnostics)
    diagnostics["descent_rate"] = pairing(prob.space, grad_f, d)
    return KktOutcome(status=NO_MULTIPLIERS, direction=d, slater_report=slater,
                      diagnostics=diagnostics)


def validate_gradients(prob: Problem, xbar: np.ndarray,
                       rel_tol: float = 1e-5) -> list[np.ndarray]:
    """Check every smooth constraint's slope against finite differences and
    return the slopes, one per constraint.

    Each coordinate of the supplied slope, weighted by the atom's measure,
    must match a central difference of the constraint value to relative
    accuracy ``rel_tol`` (scaled by the largest entry seen).

    Raises
    ------
    PreconditionError
        If ``xbar`` is not finite.
    InvalidGradientError
        If a returned slope has the wrong length or is not finite, or
        naming the first constraint and atom that disagree.
    """
    xbar = _as_vector(xbar, prob.size, "base point", nonfinite=PreconditionError)
    slopes = []
    for i, con in enumerate(prob.nonlinear):
        grad = _constraint_slope(prob, i, xbar)
        slopes.append(grad)
        expected = grad * prob.space.weights
        scale = max(1.0, float(np.max(np.abs(expected))))
        for k in range(prob.size):
            h = 1e-6 * max(1.0, abs(xbar[k]))
            e = np.zeros(prob.size)
            e[k] = h
            fd = (con.value(xbar + e) - con.value(xbar - e)) / (2 * h)
            if abs(fd - expected[k]) > rel_tol * max(scale, abs(fd)):
                raise InvalidGradientError(
                    f"smooth constraint {i} slope disagrees with finite "
                    f"differences at atom {k}: reported {expected[k]:.6g}, "
                    f"measured {fd:.6g}")
    return slopes


def recover_multipliers_nonlinear(prob: Problem, xbar: np.ndarray,
                                  grad_f: np.ndarray,
                                  tol: float = DEFAULT_TOL,
                                  fd_rel_tol: float = 1e-5) -> KktOutcome:
    """Multiplier search admitting smooth inequality constraints.

    Supplied slopes are first validated against finite differences.  The
    search then requires a linearized interior point at ``xbar``; without
    one the question is out of scope and the outcome is ``not_applicable``
    (with the failed interior search attached), never a claimed negative.

    Raises
    ------
    InfeasiblePointError
        If ``xbar`` is not feasible (checked before the slopes).
    InvalidGradientError
        If ``grad_f`` or a constraint's slope is not finite, or a slope
        disagrees with finite differences.
    """
    return _recover(prob, xbar, grad_f, tol, fd_rel_tol)


def verify_stationarity(prob: Problem, xbar: np.ndarray, grad_f: np.ndarray,
                        mult: Multipliers,
                        tol: float = DEFAULT_TOL) -> StationarityReport:
    """Residuals of the first-order identity for a candidate multiplier set.

    The identity asks the objective slope plus the bound density plus the
    weighted constraint slopes to vanish atom by atom.  Also reported:
    the worst multiplier sign violation and the complementarity pairings
    between multipliers and their slacks.  The bound sign pattern and the
    smooth constraints' slopes are read from what a recovered set carries,
    which belongs to the point it was recovered at; a set built by hand is
    tested at ``xbar``.  ``ok`` holds the residual and complementarity to
    ``RESIDUAL`` scaled by ``max |grad_f|`` and the signs to ``SIGN``, a
    bound-density breach scaled by ``max |zeta|`` (README, "Tolerances").

    Raises
    ------
    PreconditionError, InvalidGradientError
        If ``xbar``, respectively ``grad_f``, is not finite.
    InfeasiblePointError
        If a hand-built set is tested at an ``xbar`` outside the box.
    """
    xbar = _as_vector(xbar, prob.size, "base point", nonfinite=PreconditionError)
    grad_f = _as_vector(grad_f, prob.size, "objective slope", nonfinite=InvalidGradientError)
    r = grad_f + mult.zeta
    for i, w in mult.alpha.items():
        r = r + w * prob.ineq[i][0]
    for j in range(prob.n_eq):
        r = r + mult.beta[j] * prob.eq[j][0]
    slopes = mult._slopes or {}
    for i, w in mult.gamma.items():
        r = r + w * (slopes[i] if i in slopes else _constraint_slope(prob, i, xbar))
    q = conjugate_exponent(prob.p)
    residual_max = float(np.max(np.abs(r))) if r.size else 0.0
    residual_dual = lp_norm(prob.space, r, q)

    sign_viol = max([0.0, *(-w for w in mult.alpha.values()), *(-w for w in mult.gamma.values()),
                     float(np.max(-mult.zeta_lower, initial=0.0)),
                     float(np.max(-mult.zeta_upper, initial=0.0))])
    # a breach of the bound sign pattern within the density's own rounding
    # scale is not reported
    part = mult._partition
    if part is None:
        part = cones._box_partition(prob, xbar, tol)
    zeta_res = cones._sign_residual(part, mult.zeta)
    if not within(zeta_res, SIGN, float(np.max(np.abs(mult.zeta), initial=0.0)), tol):
        sign_viol = max(sign_viol, zeta_res)

    fin_lo, fin_hi = np.isfinite(prob.lower), np.isfinite(prob.upper)
    comp_lo = float(np.sum(mult.zeta_lower[fin_lo] * (xbar - prob.lower)[fin_lo]
                           * prob.space.weights[fin_lo]))
    comp_hi = float(np.sum(mult.zeta_upper[fin_hi] * (prob.upper - xbar)[fin_hi]
                           * prob.space.weights[fin_hi]))
    idx = np.array(list(mult.alpha), dtype=int)
    slack = prob.a[idx] - prob.G_w[idx] @ xbar
    comp_ineq = float(np.max(np.abs(np.fromiter(mult.alpha.values(), float) * slack),
                             initial=0.0))
    for i, w in mult.gamma.items():
        comp_ineq = max(comp_ineq, abs(w * prob.nonlinear[i].value(xbar)))

    scale = float(np.max(np.abs(grad_f), initial=0.0))
    ok = (within(residual_max, RESIDUAL, scale, tol) and within(sign_viol, SIGN, 1.0, tol)
          and within(max(abs(comp_lo), abs(comp_hi), comp_ineq), RESIDUAL, scale, tol))
    return StationarityReport(
        residual=r, residual_max=residual_max, residual_dual_norm=residual_dual,
        sign_violation=sign_viol, complementarity_lower=comp_lo,
        complementarity_upper=comp_hi, complementarity_ineq=comp_ineq, ok=ok)
