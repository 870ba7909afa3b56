"""Rewrite a linear system so every kept inequality admits interior slack.

An inequality is *implicit* when it holds with equality on the whole
polyhedron.  One LP finds every implicit inequality and a witness point at
once: the homogenised slack LP of Freund, Roundy and Todd (1985), which
gives each inequality its own slack variable capped at one and maximizes
their sum.  Converting implicit inequalities to equalities and then
thinning the equality list to a maximal linearly independent subset
produces an equivalent description whose kept inequalities the witness
satisfies strictly.  The witness is shipped with the rewritten system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import (
    EmptyPolyhedronError,
    InconsistentEqualitiesError,
    NumericalFailureError,
)
from .model import DEFAULT_TOL, MeasureSpace, Problem, _row_violations, weighted_rows

__all__ = [
    "EqReduction",
    "MfcqSystem",
    "detect_implicit_equalities",
    "reduce_equalities",
    "build_mfcq_system",
]

#: Relative threshold under which a residual row counts as dependent.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class EqReduction:
    """Outcome of thinning an equality list to independent rows.

    ``kept`` indexes the retained rows; ``dependencies`` expresses each
    dropped row as a combination of kept ones: ``(index, {kept_i: coeff})``.
    """

    kept: tuple[int, ...]
    dependencies: tuple[tuple[int, dict[int, float]], ...]


@dataclass(frozen=True)
class MfcqSystem:
    """Equivalent rewritten system with a strict-slack witness.

    ``ineq`` are the retained inequalities, ``eq`` the independent
    equalities (original ones first, then converted inequalities).
    ``provenance`` maps each original inequality index to ``"kept"``,
    ``"converted"`` or ``"dropped"`` (converted but linearly redundant).
    ``eq_sources`` tags every rewritten equality with its origin, either
    ``("eq", j)`` or ``("ineq", i)``.  The witness satisfies every equality
    and every kept inequality with slack at least ``witness_margin`` (which
    exceeds the working tolerance; infinite when no inequality is kept).
    ``G_w``, ``a``, ``H_w`` and ``b`` are the weighted rows of ``ineq`` and
    ``eq``, as on :class:`~slaterkit.model.Problem`.
    """

    space: MeasureSpace = field(repr=False)
    ineq: tuple = field(repr=False)
    eq: tuple = field(repr=False)
    witness: np.ndarray = field(repr=False)
    witness_margin: float
    provenance: dict[int, str]
    eq_sources: tuple[tuple[str, int], ...]
    dependencies: tuple[tuple[int, dict[int, float]], ...]
    G_w: np.ndarray = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)
    H_w: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        G_w, a = weighted_rows(self.space, self.ineq)
        H_w, b = weighted_rows(self.space, self.eq)
        object.__setattr__(self, "G_w", G_w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "H_w", H_w)
        object.__setattr__(self, "b", b)

    def is_member(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Membership of ``x`` in the rewritten polyhedron within ``tol``."""
        return not _row_violations(self, np.asarray(x, dtype=float), tol)


def _slack_lp(prob: Problem, tol: float):
    """The homogenised slack LP over ``(x, tau, s)``.

    maximize ``sum(s)`` subject to ``G_w x - a tau + s <= 0``,
    ``H_w x - b tau = 0``, ``tau >= 1`` and ``0 <= s <= 1``.  For any
    feasible ``(x, tau, s)`` the point ``x / tau`` lies in the polyhedron
    with slack at least ``s_i / tau`` on inequality ``i``, and scaling a
    point with slack on a row into ``(x, tau)`` lets ``s_i`` reach one
    without lowering any other ``s_j``.  So every optimum has ``s_i = 1``
    on each inequality with slack somewhere on the polyhedron and
    ``s_i = 0`` on each implicit one, and the LP is infeasible exactly when
    the polyhedron is empty.  ``tau`` has no upper bound: a finite cap
    becomes a tableau row whose right-hand side sets the scale of the
    solver's acceptance checks.

    Returns the implicit set (see :func:`detect_implicit_equalities`), the
    witness ``x / tau`` and the slack of every inequality at it.
    """
    m, k, e = prob.size, prob.n_ineq, prob.n_eq
    A = np.zeros((k + e, m + 1 + k))
    A[:k, :m] = prob.G_w
    A[:k, m] = -prob.a
    A[:k, m + 1:] = np.eye(k)
    A[k:, :m] = prob.H_w
    A[k:, m] = -prob.b
    c = np.concatenate([np.zeros(m + 1), np.ones(k)])
    lo = np.concatenate([np.full(m, -math.inf), [1.0], np.zeros(k)])
    hi = np.concatenate([np.full(m + 1, math.inf), np.ones(k)])
    out = lpmod.solve(lpmod.LinearProgram(
        c, A, ("<=",) * k + ("==",) * e, np.zeros(k + e), lo, hi), tol=tol)
    if out.status is lpmod.LpStatus.INFEASIBLE:
        raise EmptyPolyhedronError("the linear constraint system has no solution")
    if out.status is not lpmod.LpStatus.OPTIMAL:
        raise NumericalFailureError(f"slack maximization failed: {out.message}")
    witness = out.x[:m] / out.x[m]
    slack = prob.a - prob.G_w @ witness
    return {int(i) for i in np.nonzero(slack <= tol)[0]}, witness, slack


def detect_implicit_equalities(prob: Problem, tol: float = DEFAULT_TOL) -> set[int]:
    """Indices of inequalities that hold with equality on the whole polyhedron.

    Implicitness is relative to the linear system alone; the box plays no
    part.  One LP (the homogenised slack LP) decides every inequality at
    once.  Inequality ``i`` counts as implicit when its slack at the LP's
    witness is at most ``tol``.  The witness lies in the polyhedron, so
    every inequality whose largest slack is at most ``tol`` is implicit.
    Every other inequality gets ``s_i = 1``, so its slack at the witness
    is at least ``1 / tau``: the rule agrees with "largest slack at most
    ``tol``" whenever the optimum has ``tau < 1 / tol``.

    Raises
    ------
    EmptyPolyhedronError
        If the linear system has no solution.
    """
    return _slack_lp(prob, tol)[0]


def reduce_equalities(space: MeasureSpace, eq, tol: float = DEFAULT_TOL,
                      rank_tol: float = RANK_TOL) -> EqReduction:
    """Thin an equality list to a maximal independent subset, front first.

    Rows are compared through the weighted pairing.  A row whose residual
    against the kept rows falls below ``rank_tol`` times the largest row
    norm is dependent; its right-hand side must match the induced
    combination or the system is unsolvable.

    Raises
    ------
    InconsistentEqualitiesError
        With a combination certificate when a dependent row's right-hand
        side contradicts the kept rows.
    """
    rows, rhs = weighted_rows(space, eq)
    max_norm = max((float(np.linalg.norm(r)) for r in rows), default=0.0)
    threshold = rank_tol * max(max_norm, 1.0)
    kept: list[int] = []
    ortho: list[np.ndarray] = []  # orthonormal spans of kept rows
    deps: list[tuple[int, dict[int, float]]] = []
    for j, row in enumerate(rows):
        v = row.copy()
        for q in ortho:
            v -= (q @ v) * q
        # re-orthogonalize once; plain Gram-Schmidt loses accuracy otherwise
        for q in ortho:
            v -= (q @ v) * q
        nrm = float(np.linalg.norm(v))
        if nrm > threshold:
            kept.append(j)
            ortho.append(v / nrm)
            continue
        if kept:
            K = np.array([rows[k] for k in kept]).T
            coeff, *_ = np.linalg.lstsq(K, row, rcond=None)
        else:
            coeff = np.zeros(0)
        combo_rhs = float(coeff @ [rhs[k] for k in kept]) if kept else 0.0
        if abs(rhs[j] - combo_rhs) > tol * max(1.0, abs(rhs[j])):
            cert = np.zeros(len(eq))
            for t, k in enumerate(kept):
                cert[k] = coeff[t]
            cert[j] = -1.0
            cert /= float(np.max(np.abs(cert)))
            raise InconsistentEqualitiesError(
                f"equality {j} contradicts the rows before it "
                f"({rhs[j]:.6g} vs {combo_rhs:.6g})", certificate=cert)
        deps.append((j, {k: float(c) for k, c in zip(kept, coeff)}))
    return EqReduction(tuple(kept), tuple(deps))


def build_mfcq_system(prob: Problem, tol: float = DEFAULT_TOL) -> MfcqSystem:
    """Rewrite the linear system and produce a strict-slack witness.

    Implicit inequalities (see :func:`detect_implicit_equalities`) become
    equalities and the combined equality list is thinned to independent
    rows.  The witness is the same LP's point, which leaves every kept
    inequality a slack above ``tol``; one LP does all of it.

    Raises
    ------
    EmptyPolyhedronError, InconsistentEqualitiesError, NumericalFailureError
    """
    implicit, witness, slack = _slack_lp(prob, tol)
    combined = list(prob.eq) + [(g, a) for i, (g, a) in enumerate(prob.ineq)
                                if i in implicit]
    sources: list[tuple[str, int]] = [("eq", j) for j in range(prob.n_eq)]
    sources += [("ineq", i) for i in sorted(implicit)]
    red = reduce_equalities(prob.space, combined, tol)
    eq_tilde = tuple(combined[k] for k in red.kept)
    src_tilde = tuple(sources[k] for k in red.kept)
    ineq_tilde = tuple((g, a) for i, (g, a) in enumerate(prob.ineq)
                       if i not in implicit)

    provenance: dict[int, str] = {}
    kept_sources = set(src_tilde)
    for i in range(prob.n_ineq):
        if i not in implicit:
            provenance[i] = "kept"
        elif ("ineq", i) in kept_sources:
            provenance[i] = "converted"
        else:
            provenance[i] = "dropped"

    kept_slack = np.delete(slack, sorted(implicit))
    return MfcqSystem(
        space=prob.space,
        ineq=ineq_tilde,
        eq=eq_tilde,
        witness=witness,
        witness_margin=float(np.min(kept_slack, initial=math.inf)),
        provenance=provenance,
        eq_sources=src_tilde,
        dependencies=red.dependencies,
    )
