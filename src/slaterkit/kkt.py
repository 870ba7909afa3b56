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
from .errors import InfeasiblePointError, InvalidGradientError, PreconditionError
from .model import (
    DEFAULT_TOL,
    Problem,
    _as_vector,
    _partition,
    check_feasible,
    conjugate_exponent,
    lp_norm,
    pairing,
    regions,
)
from .slater import SlaterReport, _linearized_search

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
    PreconditionError
        If ``zeta`` has the wrong sign somewhere or lives on inactive atoms.
    """
    zeta = cones._vec(prob, zeta, "zeta")
    part = regions(prob, x, tol)
    if not cones._sign_residual(part, zeta) <= tol * max(1.0, float(np.max(np.abs(zeta)))):
        raise PreconditionError(
            "density violates the active-bound sign pattern; cannot split")
    _, za, zb = cones._split(part, zeta)
    return za, zb


def _point_and_slope(prob: Problem, xbar, grad_f):
    """``xbar`` and ``grad_f`` as float vectors of the problem's length,
    with a finite slope."""
    xbar = _as_vector(xbar, prob.size, "base point")
    grad_f = _as_vector(grad_f, prob.size, "objective slope")
    if not np.all(np.isfinite(grad_f)):
        raise InvalidGradientError("objective slope must be finite")
    return xbar, grad_f


def recover_multipliers_linear(prob: Problem, xbar: np.ndarray,
                               grad_f: np.ndarray,
                               tol: float = DEFAULT_TOL) -> KktOutcome:
    """Find multipliers at ``xbar`` for a problem with linear constraints.

    ``grad_f`` is the objective slope density at ``xbar``.  Returns
    ``found`` with a multiplier set, or ``no_multipliers`` with a feasible
    direction along which ``grad_f`` strictly decreases.

    Raises
    ------
    DimensionMismatchError
        If ``xbar`` or ``grad_f`` does not have one entry per atom.
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
    xbar, grad_f = _point_and_slope(prob, xbar, grad_f)
    return _recover(prob, xbar, grad_f, tol, slopes=None)


def _recover(prob: Problem, xbar: np.ndarray, grad_f: np.ndarray, tol: float,
             slopes: list | None) -> KktOutcome:
    """One feasibility check and one activity pass at ``xbar``, the
    linearized interior-point gate if ``slopes`` (every smooth constraint's
    slope at ``xbar``) are given, then the split of ``-grad_f`` over the
    active slopes."""
    rep = check_feasible(prob, xbar, tol)
    if not rep.feasible:
        worst = rep.violations[0]
        raise InfeasiblePointError(
            f"base point violates {worst.kind}[{worst.index}] "
            f"by {worst.residual:.3g}")
    part = _partition(prob, xbar, tol)
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
    InvalidGradientError
        Naming the first constraint and atom that disagree.
    """
    xbar, slopes = np.asarray(xbar, dtype=float), []
    for i, con in enumerate(prob.nonlinear):
        grad = np.asarray(con.grad(xbar), dtype=float)
        slopes.append(grad)
        if grad.shape != (prob.size,):
            raise InvalidGradientError(
                f"smooth constraint {i} returned a slope of length {grad.size}, "
                f"expected {prob.size}")
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
    DimensionMismatchError, InvalidGradientError, InfeasiblePointError
    """
    xbar, grad_f = _point_and_slope(prob, xbar, grad_f)
    return _recover(prob, xbar, grad_f, tol, validate_gradients(prob, xbar, fd_rel_tol))


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
    tested at ``xbar``.
    """
    xbar = np.asarray(xbar, dtype=float)
    grad_f = np.asarray(grad_f, dtype=float)
    r = grad_f + mult.zeta
    for i, w in mult.alpha.items():
        g, _ = prob.ineq[i]
        r = r + w * np.asarray(g, dtype=float)
    for j in range(prob.n_eq):
        h, _ = prob.eq[j]
        r = r + mult.beta[j] * np.asarray(h, dtype=float)
    slopes = mult._slopes or {}
    for i, w in mult.gamma.items():
        r = r + w * (slopes[i] if i in slopes else
                     np.asarray(prob.nonlinear[i].grad(xbar), dtype=float))
    q = conjugate_exponent(prob.p)
    residual_max = float(np.max(np.abs(r))) if r.size else 0.0
    residual_dual = lp_norm(prob.space, r, q)

    sign_viol = 0.0
    if mult.alpha:
        sign_viol = max(sign_viol, max(-w for w in mult.alpha.values()))
    if mult.gamma:
        sign_viol = max(sign_viol, max(-w for w in mult.gamma.values()))
    sign_viol = max(sign_viol, float(np.max(-mult.zeta_lower, initial=0.0)))
    sign_viol = max(sign_viol, float(np.max(-mult.zeta_upper, initial=0.0)))
    # a breach of the bound sign pattern within the density's own rounding
    # scale is not reported
    part = mult._partition
    if part is None:
        part = cones._box_partition(prob, xbar, tol)
    zeta_res = cones._sign_residual(part, mult.zeta)
    if not zeta_res <= tol * max(1.0, float(np.max(np.abs(mult.zeta), initial=0.0))):
        sign_viol = max(sign_viol, zeta_res)

    fin_lo = np.isfinite(prob.lower)
    fin_hi = np.isfinite(prob.upper)
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

    scale = max(1.0, float(np.max(np.abs(grad_f), initial=0.0)))
    ok = (residual_max <= 100 * tol * scale and sign_viol <= tol
          and max(abs(comp_lo), abs(comp_hi), comp_ineq) <= 100 * tol * scale)
    return StationarityReport(
        residual=r, residual_max=residual_max, residual_dual_norm=residual_dual,
        sign_violation=sign_viol, complementarity_lower=comp_lo,
        complementarity_upper=comp_hi, complementarity_ineq=comp_ineq, ok=ok)
