"""Dual certificates explaining the absence of interior feasible points.

When the feasible set touches the box boundary everywhere, that fact has a
finite witness: a nonzero density built from the constraint slopes whose
sign pattern pins every feasible point to the active bounds.  This module
finds such a witness with one LP over per-atom sign rows, turns it into an
objective slope for which multipliers must degenerate, and measures how the
minimal multiplier size grows as the discretization is refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import (
    CertificateNotFoundError,
    InfeasiblePointError,
    NumericalFailureError,
    PreconditionError,
)
from .model import (
    DEFAULT_TOL,
    MeasureSpace,
    Problem,
    bound_activity,
    check_feasible,
    row_activity,
)
from .preprocess import MfcqSystem, build_mfcq_system
from .slater import find_slater
from .kkt import recover_multipliers_linear, verify_stationarity

__all__ = [
    "NoSlaterCertificate",
    "RefinementReport",
    "build_no_slater_certificate",
    "build_bad_functional",
    "refinement_study",
    "MODELS",
    "log_counterexample_model",
    "constant_control_model",
]


@dataclass(frozen=True)
class NoSlaterCertificate:
    """A nonzero density certifying that no interior feasible point exists.

    ``zeta`` combines rewritten-system slopes, ``zeta = sum(lam[i] * g_i)
    + sum(mu[j] * h_j)``, with ``lam`` nonnegative and supported on
    inequalities active at ``base_point``.  Its sign pattern (nonnegative
    where the lower bound is active, nonpositive where the upper bound is,
    zero elsewhere) forces every feasible point to keep the same active
    bounds, so none can be interior.  Normalized so ``max |zeta| = 1``.
    """

    zeta: np.ndarray = field(repr=False)
    lam: dict[int, float]
    mu: np.ndarray = field(repr=False)
    system: MfcqSystem = field(repr=False)
    base_point: np.ndarray = field(repr=False)
    sign_residual: float
    combination_residual: float
    support_positive: tuple[int, ...] = field(repr=False)
    support_negative: tuple[int, ...] = field(repr=False)
    peak_atom: int

    @property
    def max_residual(self) -> float:
        return max(self.sign_residual, self.combination_residual)


def build_no_slater_certificate(prob: Problem, xbar: np.ndarray | None = None,
                                tol: float = DEFAULT_TOL,
                                slater_report=None) -> NoSlaterCertificate:
    """Search for a density certifying that no interior point exists.

    The interior-point search must already have come up empty; this
    routine re-runs it and refuses to certify otherwise.  After the
    rewrite (:func:`slaterkit.preprocess.build_mfcq_system`, one LP) the
    certificate comes from a single LP over the sign rows, which also finds
    certificates made of equality slopes alone.

    Parameters
    ----------
    xbar:
        Feasible base point whose active bounds anchor the sign pattern.
        Defaults to the feasible point produced by the interior search.
    slater_report:
        A report from :func:`slaterkit.slater.find_slater` on this very
        problem and tolerance, to avoid re-running the search.

    Raises
    ------
    PreconditionError
        If an interior point exists, bounds pinch, or no feasible point
        exists at all.
    InfeasiblePointError
        If the supplied base point is not feasible.
    CertificateNotFoundError
        If no candidate clears the tolerance.  This is a numerical report;
        it does not assert that an interior point exists.
    """
    if (prob.upper - prob.lower <= 2 * tol).any():
        raise PreconditionError(
            "bounds pinch some atom; certificates require a box with volume")
    report = slater_report if slater_report is not None else find_slater(prob, tol)
    if report.found:
        raise PreconditionError(
            "an interior feasible point exists; there is nothing to certify")
    if report.feasible_point is None:
        raise PreconditionError(
            "no feasible point exists; emptiness needs no density certificate")
    if xbar is None:
        xbar = report.feasible_point
    xbar = np.asarray(xbar, dtype=float)
    feas = check_feasible(
        Problem(prob.space, prob.p, prob.lower, prob.upper, prob.ineq, prob.eq),
        xbar, max(tol, 1e2 * tol))
    if not feas:
        worst = feas.violations[0]
        raise InfeasiblePointError(
            f"base point is infeasible: {worst.kind}[{worst.index}] off by "
            f"{worst.residual:.3g}")

    system = build_mfcq_system(prob, tol)
    active = np.nonzero(row_activity(system.G_w, system.a, xbar, tol))[0]
    n_lam = active.size
    # the density is a combination of the unweighted slopes; the sign rows
    # use the weighted ones, which have the same signs
    slopes = [system.ineq[i][0] for i in active] + [h for h, _ in system.eq]
    cols = np.array(slopes, dtype=float).reshape(-1, prob.size).T
    wcols = np.vstack([system.G_w[active], system.H_w]).T
    both, lo_only, hi_only, interior = bound_activity(prob, xbar, tol)

    v = _certificate_lp(cols, wcols, both, lo_only, hi_only, n_lam, tol)
    if v is None:
        raise CertificateNotFoundError(
            "no certificate cleared the working tolerance; this reports a "
            "numerical limit, not the existence of an interior point")
    zeta = cols @ v
    norm = float(np.max(np.abs(zeta)))
    if norm <= tol:
        raise CertificateNotFoundError(
            "candidate density vanished under normalization")
    zeta /= norm
    lam_vec = v[:n_lam] / norm
    mu_vec = v[n_lam:] / norm

    sign_res = max(
        float(np.max(-zeta[lo_only], initial=0.0)),
        float(np.max(zeta[hi_only], initial=0.0)),
        float(np.max(np.abs(zeta[interior]), initial=0.0)),
        max((-v for v in lam_vec), default=0.0),
    )
    comb = zeta - cols @ np.concatenate([lam_vec, mu_vec])
    comb_res = float(np.max(np.abs(comb), initial=0.0))
    support_pos = tuple(int(i) for i in np.nonzero(zeta > tol)[0])
    support_neg = tuple(int(i) for i in np.nonzero(zeta < -tol)[0])
    cert = NoSlaterCertificate(
        zeta=zeta, lam={int(i): float(v) for i, v in zip(active, lam_vec)},
        mu=mu_vec, system=system, base_point=xbar,
        sign_residual=sign_res, combination_residual=comb_res,
        support_positive=support_pos, support_negative=support_neg,
        peak_atom=int(np.argmax(np.abs(zeta))))
    if cert.max_residual > 100 * tol:
        raise CertificateNotFoundError(
            f"certificate residual {cert.max_residual:.3g} exceeds the "
            f"acceptable multiple of the tolerance {tol:g}")
    return cert


def _certificate_lp(cols, wcols, both, lo_only, hi_only, n_lam, tol):
    """One LP for the weights ``v = (lam, mu)`` of the density ``cols @ v``.

    Sign rows, one per atom not squeezed onto both bounds, ask the density
    to be nonnegative where only the lower bound is active, nonpositive
    where only the upper bound is, and zero elsewhere; ``lam`` lies in
    ``[0, 1]`` and ``mu`` in ``[-1, 1]``.  The LP maximizes the sum of the
    density over lower-active atoms minus its sum over upper-active atoms.
    Under the sign rows every term is nonnegative, so the optimum is
    positive exactly when some certificate exists (any certificate scales
    into the box).  Returns ``v``, or None when the optimum is not above
    ``tol``.
    """
    nv = wcols.shape[1]
    if nv == 0:
        return None
    atoms = np.nonzero(~both)[0]
    rel = np.where(lo_only, ">=", np.where(hi_only, "<=", "=="))[atoms]
    c = (lo_only.astype(float) - hi_only) @ cols
    lo = np.concatenate([np.zeros(n_lam), -np.ones(nv - n_lam)])
    out = lpmod.solve(lpmod.LinearProgram(
        c, wcols[atoms], tuple(rel.tolist()), np.zeros(atoms.size), lo, np.ones(nv)),
        tol=tol)
    if out.status is not lpmod.LpStatus.OPTIMAL or out.value <= tol:
        return None
    return out.x


def build_bad_functional(prob: Problem, xbar: np.ndarray,
                         cert: NoSlaterCertificate,
                         profile="log") -> np.ndarray:
    """Objective slope designed to make multipliers degenerate.

    The slope lives on the certificate's support and follows ``profile``
    there, ordered by atom index: ``"log"`` places ``log((2r-1)/(2s))`` at
    the r-th of s support atoms, ``"constant"`` places -1, and a callable
    receives ``(r, s)`` and returns the value.  On a negative support the
    values flip sign.  Elsewhere the slope is zero, so any multiplier set
    must fight the certificate density head on.  ``xbar`` is the base
    point the certificate was anchored at; refining the discretization of
    the same family drives the minimal multiplier mass for this slope to
    infinity while ``xbar`` stays optimal.

    Raises
    ------
    PreconditionError
        If the certificate support is empty, the profile name is unknown,
        or ``xbar`` differs from the certificate's base point.
    """
    xbar = np.asarray(xbar, dtype=float)
    if xbar.shape != cert.base_point.shape or not np.allclose(
            xbar, cert.base_point, atol=1e-12, rtol=0.0):
        raise PreconditionError(
            "base point differs from the one the certificate was built at")
    if callable(profile):
        fn = profile
    elif profile == "log":
        fn = lambda r, s: math.log((2 * r - 1) / (2 * s))
    elif profile == "constant":
        fn = lambda r, s: -1.0
    else:
        raise PreconditionError(f"unknown profile {profile!r}")
    if cert.support_positive:
        atoms, sign = cert.support_positive, 1.0
    elif cert.support_negative:
        atoms, sign = cert.support_negative, -1.0
    else:
        raise PreconditionError("certificate has empty support")
    z = np.zeros(prob.size)
    s = len(atoms)
    for r, atom in enumerate(sorted(atoms), start=1):
        z[atom] = sign * fn(r, s)
    return z


# ---------------------------------------------------------------------------
# refinement studies

def log_counterexample_model(level: int):
    """Midpoint discretization of the unit interval with a log slope.

    Uniform weights 1/level, lower bound zero, no upper bound, and one
    inequality capping the total mass at zero, which pins the feasible set
    to the origin.  The slope samples ``log`` at the atom midpoints; the
    minimal multiplier mass for this family is exactly ``log(2 * level)``,
    so refining the discretization drives it to infinity.
    """
    m = int(level)
    space = MeasureSpace(np.full(m, 1.0 / m))
    prob = Problem(space, 2.0, np.zeros(m), np.full(m, math.inf),
                   ineq=((np.ones(m), 0.0),))
    xbar = np.zeros(m)
    grad = np.log((2 * np.arange(1, m + 1) - 1) / (2.0 * m))
    return prob, xbar, grad


def constant_control_model(level: int):
    """Same constraint family with a flat slope; multiplier mass stays 1."""
    m = int(level)
    space = MeasureSpace(np.full(m, 1.0 / m))
    prob = Problem(space, 2.0, np.zeros(m), np.full(m, math.inf),
                   ineq=((np.ones(m), 0.0),))
    xbar = np.zeros(m)
    grad = -np.ones(m)
    return prob, xbar, grad


MODELS = {
    "log-counterexample": log_counterexample_model,
    "constant-control": constant_control_model,
}


@dataclass(frozen=True)
class RefinementReport:
    """Minimal multiplier mass across refinement levels, with a fitted law.

    ``alpha`` holds the minimal total multiplier mass per level and
    ``residual`` the stationarity residual of the recovered multipliers.
    The fitted law regresses mass against the logarithm of the level.
    """

    model: str
    levels: tuple[int, ...]
    alpha: tuple[float, ...]
    residual: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    description: str


def _multiplier_mass(mult) -> float:
    return float(sum(mult.alpha.values()) + np.sum(np.abs(mult.beta))
                 + sum(mult.gamma.values()))


def refinement_study(model="log-counterexample", levels=(4, 16, 64, 256),
                     tol: float = DEFAULT_TOL) -> RefinementReport:
    """Recover multipliers across refinement levels and fit a growth law.

    ``model`` is a registry name or a callable mapping a level to
    ``(problem, point, slope)``.  Each level must admit multipliers; the
    minimal total mass is recorded and regressed against ``log(level)``.

    Raises
    ------
    NumericalFailureError
        If some level fails to produce multipliers.
    """
    if callable(model):
        factory, name = model, getattr(model, "__name__", "custom")
    else:
        try:
            factory = MODELS[model]
        except KeyError:
            raise PreconditionError(
                f"unknown model {model!r}; known: {sorted(MODELS)}") from None
        name = model
    levels = tuple(int(v) for v in levels)
    if not levels or any(v < 1 for v in levels):
        raise PreconditionError("levels must be positive integers")
    alphas, residuals = [], []
    for lv in levels:
        prob, xbar, grad = factory(lv)
        outcome = recover_multipliers_linear(prob, xbar, grad, tol)
        if not outcome.found:
            raise NumericalFailureError(
                f"level {lv}: no multipliers recovered ({outcome.status})")
        alphas.append(_multiplier_mass(outcome.multipliers))
        residuals.append(verify_stationarity(
            prob, xbar, grad, outcome.multipliers, tol).residual_max)
    logs = np.log(np.array(levels, dtype=float))
    if len(levels) >= 2 and float(np.ptp(logs)) > 0:
        slope, intercept = np.polyfit(logs, np.array(alphas), 1)
        fit = slope * logs + intercept
        ss_res = float(np.sum((np.array(alphas) - fit) ** 2))
        ss_tot = float(np.sum((np.array(alphas) - np.mean(alphas)) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    else:
        slope, intercept, r2 = 0.0, float(alphas[0]), 1.0
    if abs(slope) <= 1e-3 * max(1.0, abs(intercept)):
        desc = (f"minimal multiplier mass stays near {intercept:.6g} "
                f"across levels {levels}")
    else:
        desc = (f"minimal multiplier mass grows like {slope:.6g} * log(level) "
                f"+ {intercept:.6g} (r^2 = {r2:.6f}); unbounded under refinement")
    return RefinementReport(
        model=name, levels=levels, alpha=tuple(float(a) for a in alphas),
        residual=tuple(float(r) for r in residuals),
        slope=float(slope), intercept=float(intercept), r_squared=float(r2),
        description=desc)
