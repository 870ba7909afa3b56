"""Search for and construct interior feasible points.

The central routine maximizes a uniform margin variable: a point counts as
interior when it keeps a positive scaled distance to every finite bound
while satisfying the linear constraints.  That LP is posed in variables
shifted by the margin, so a finite box side is a bound on a variable and
only an atom with two finite sides keeps a row; the answer is mapped back
and re-checked on the unshifted constraints.  Companion routines build
interior points directly (nudging a feasible point off its active bounds)
and blend an interior box point with a strictly slack polyhedron point into
a single point that is interior for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import (
    ConstructionFailedError,
    NumericalFailureError,
    PreconditionError,
)
from .model import (
    DEFAULT_TOL,
    Problem,
    _box_violations,
    _pinched,
    _require_member,
    _row_violations,
    _smooth_active,
    bound_activity,
    check_feasible,
    conjugate_exponent,
    lp_norm,
    pairing,
    weighted_rows,
)
from .tolerances import RESIDUAL, threshold

__all__ = [
    "SlaterReport",
    "find_slater",
    "find_linearized_slater",
    "density_construction",
    "combine_slater",
]

FOUND = "found"
NOT_FOUND = "not_found"

#: Smallest blend weight tried by :func:`combine_slater`.
_MIN_BLEND = 2.0 ** -40
#: Fewest two-sided atoms whose margin rows are declared as the LP's
#: variable-upper-bound block: below it, tableau rows cost less per iteration.
_MIN_BLOCK = 100


@dataclass(frozen=True)
class SlaterReport:
    """Outcome of an interior-point search.

    ``point`` is the interior point when ``status`` is ``"found"``;
    otherwise ``feasible_point`` still carries a (non-interior) feasible
    point whenever one exists.  ``optimal_t`` is the best margin the search
    achieved and ``margin`` the scaled bound distance of the returned point.

    From :func:`find_linearized_slater`, "interior" and "feasible" refer to
    the problem with its active smooth constraints replaced by their
    linearization at the base point: ``point`` and ``feasible_point`` need
    not satisfy the smooth constraints themselves.
    """

    status: str
    point: np.ndarray | None = field(default=None, repr=False)
    margin: float | None = None
    optimal_t: float | None = None
    feasible_point: np.ndarray | None = field(default=None, repr=False)
    message: str = ""
    diagnostics: dict = field(default_factory=dict, repr=False)

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def __bool__(self) -> bool:
        return self.found


def _bound_scales(prob: Problem) -> np.ndarray:
    """Per-atom margin scale: half the gap when both bounds are finite."""
    lo, hi = prob.lower, prob.upper
    scale = np.ones(prob.size)
    both = np.isfinite(lo) & np.isfinite(hi)
    scale[both] = np.minimum(1.0, (hi[both] - lo[both]) / 2.0)
    return scale


def _report_scales(prob: Problem) -> np.ndarray:
    """Per-atom divisor for reported margins: half-gaps below 2 count raw."""
    lo, hi = prob.lower, prob.upper
    scale = np.ones(prob.size)
    both = np.isfinite(lo) & np.isfinite(hi)
    scale[both] = np.maximum(1.0, (hi[both] - lo[both]) / 2.0)
    return scale


def _scaled_gap(prob: Problem, x: np.ndarray, scale: np.ndarray) -> float:
    """Least distance of ``x`` to a bound, per atom divided by ``scale``: inf
    when no bound is finite, NaN when ``x`` has a NaN."""
    return float(np.min(np.concatenate([x - prob.lower, prob.upper - x]) / np.tile(scale, 2)))


def interior_margin(prob: Problem, x: np.ndarray) -> float:
    """Scaled distance of ``x`` to the nearest finite bound (inf if none)."""
    return _scaled_gap(prob, np.asarray(x, dtype=float), _report_scales(prob))


@dataclass(frozen=True)
class _MarginLp:
    """The margin LP over ``(u, t)`` and what maps its answers back to ``x``.

    ``x = u + shift * t``; ``scale`` is :func:`_bound_scales`; ``two``
    lists the two-sided atoms, whose rows come first; ``C``, ``sv`` and
    ``r`` are the caller-supplied rows ``C x + sv t <= r`` with ``C``
    weighted.
    """

    lp: lpmod.LinearProgram
    shift: np.ndarray
    scale: np.ndarray
    two: np.ndarray
    C: np.ndarray
    sv: np.ndarray
    r: np.ndarray


def _margin_lp(prob: Problem, extra_rows) -> _MarginLp:
    """Maximize t subject to scaled interiority and the linear rows.

    In ``(x, t)`` the LP reads ``lo_i + s_i t <= x_i <= hi_i - s_i t`` on the
    finite sides, the linear rows, caller-supplied rows ``row.x + s t <= rhs``
    given as ``(row, s, rhs)`` with ``row`` unweighted, and ``0 <= t <= 1``.
    It is posed in ``u = x - d t``, with ``d_i = s_i`` where ``lo_i`` is
    finite, ``-s_i`` where only ``hi_i`` is, and 0 on free atoms.  Each finite
    side then becomes a bound on ``u_i`` (``u_i >= lo_i`` or ``u_i <= hi_i``)
    and only a two-sided atom keeps a row, ``u_i + 2 s_i t <= hi_i``.  A row
    ``g.x`` turns into ``g.u + (g.d) t``.  So the LP has one row per
    two-sided atom, inequality, equality and extra row, and m + 1 columns.
    From ``_MIN_BLOCK`` two-sided atoms on, their rows are declared as the
    program's variable-upper-bound block (key column t), after the linear
    rows; below that they are the first rows of ``A``.
    """
    m = prob.size
    scale = _bound_scales(prob)
    fin_lo, fin_hi = np.isfinite(prob.lower), np.isfinite(prob.upper)
    d = np.where(fin_lo, scale, np.where(fin_hi, -scale, 0.0))
    two = np.flatnonzero(fin_lo & fin_hi)
    C, r = weighted_rows(prob.space, [(row, rhs) for row, _, rhs in extra_rows])
    sv = np.array([s for _, s, _ in extra_rows], dtype=float)
    n2, k, e = two.size, prob.n_ineq, prob.n_eq
    block = n2 >= _MIN_BLOCK
    top = 0 if block else n2
    A = np.zeros((top + k + e + r.size, m + 1))
    if not block:
        A[np.arange(n2), two] = 1.0
        A[:n2, m] = 2.0 * scale[two]
    for start, rows, t_coef in ((top, prob.G_w, 0.0), (top + k, prob.H_w, 0.0),
                                (top + k + e, C, sv)):
        if rows.shape[0]:
            A[start:start + rows.shape[0], :m] = rows
            A[start:start + rows.shape[0], m] = rows @ d + t_coef
    rel = ("<=",) * (top + k) + ("==",) * e + ("<=",) * r.size
    rhs = np.concatenate([prob.upper[two[:top]], prob.a, prob.b, r])
    c = np.zeros(m + 1)
    c[m] = 1.0
    lo = np.concatenate([np.where(fin_lo, prob.lower, -math.inf), [0.0]])
    hi = np.concatenate([np.where(fin_lo, math.inf, prob.upper), [1.0]])
    vub = lpmod.VubRows(m, two, np.ones(n2), 2.0 * scale[two], prob.upper[two]) if block else None
    return _MarginLp(lpmod.LinearProgram(c, A, rel, rhs, lo, hi, vub), d, scale, two, C, sv, r)


def _split_rows(ml: _MarginLp, v: np.ndarray):
    """A vector over the margin LP's rows as its two-sided atoms' part and
    the linear and extra rows' part."""
    n2, k = ml.two.size, ml.lp.A.shape[0]
    return (v[k:], v[:k]) if ml.lp.vub is not None else (v[:n2], v[n2:])


def _margin_threshold(prob: Problem, ml: _MarginLp, tol: float) -> float:
    """The LP kernel's ``RESIDUAL`` threshold for the LP in ``(x, t)``, whose
    scale is its largest coefficient or right-hand side."""
    parts = (prob.G_w, prob.H_w, ml.C, ml.sv, prob.a, prob.b, ml.r,
             prob.lower[np.isfinite(prob.lower)], prob.upper[np.isfinite(prob.upper)])
    scale = max([1.0] + [float(np.max(np.abs(v))) for v in parts if v.size])
    return threshold(RESIDUAL, scale, tol)


def _margin_violation(prob: Problem, ml: _MarginLp, x: np.ndarray, t: float) -> float:
    """Worst violation of the ``(x, t)`` LP's constraints (NaN if any is)."""
    return float(np.max(np.concatenate([
        [-t, t - 1.0],
        (prob.lower + ml.scale * t - x)[np.isfinite(prob.lower)],
        (x + ml.scale * t - prob.upper)[np.isfinite(prob.upper)],
        prob.G_w @ x - prob.a,
        np.abs(prob.H_w @ x - prob.b),
        ml.C @ x + ml.sv * t - ml.r,
    ])))


def _box_sides(prob: Problem, lower_side: np.ndarray, upper_side: np.ndarray) -> np.ndarray:
    """Per-atom values on the finite sides, interleaved lower then upper per
    atom: the order of the box rows of the LP in ``(x, t)``."""
    finite = np.stack([np.isfinite(prob.lower), np.isfinite(prob.upper)], axis=1).ravel()
    return np.stack([lower_side, upper_side], axis=1).ravel()[finite]


def _pinning_duals(prob: Problem, ml: _MarginLp, out: lpmod.LpOutcome, vt: float) -> list:
    """Row duals of the ``(x, t)`` LP: the bound multiplier of ``u_i`` on a
    lower side, the row dual (two-sided atom) or the bound multiplier
    (upper-only atom) on an upper side, then the linear and extra rows.  An
    entry within the acceptance threshold ``vt`` of zero is a rounding
    residue of the kernel's duals and reads 0."""
    m = prob.size
    y_two, y_rows = _split_rows(ml, out.y)
    upper = np.maximum(out.reduced_costs[:m], 0.0)
    upper[ml.two] = y_two
    lower = np.maximum(-out.reduced_costs[:m], 0.0)
    y = np.concatenate([_box_sides(prob, lower, upper), y_rows])
    return np.where((np.abs(y) <= vt) & (y != 0.0), 0.0, y).tolist()  # an exact -0.0 stays


def _infeasibility_certificate(prob: Problem, ml: _MarginLp,
                               cert: lpmod.FarkasCertificate, vt: float, tol: float) -> dict:
    """Farkas multipliers of the ``(x, t)`` LP, re-checked on that LP.

    The lower side of atom i takes the multiplier of ``u_i``'s lower bound,
    the upper side the two-sided row's or ``u_i``'s upper bound multiplier;
    the linear, extra and ``t`` bound multipliers carry over.

    Raises
    ------
    NumericalFailureError
        If the mapped multipliers fail the Farkas conditions at ``vt``.
    """
    m, k, e = prob.size, prob.n_ineq, prob.n_eq
    fin_lo, fin_hi = np.isfinite(prob.lower), np.isfinite(prob.upper)
    y_two, y_rows = _split_rows(ml, cert.row_mult)
    y_lo = np.where(fin_lo, cert.lower_mult[:m], 0.0)
    y_hi = np.where(fin_hi, cert.upper_mult[:m], 0.0)
    y_hi[ml.two] = y_two
    y_g, y_h, y_c = np.split(y_rows, [k, k + e])
    w_lo, w_hi = cert.lower_mult[m], cert.upper_mult[m]
    # A'y - wL + wU, column x then column t, and the combined right-hand side
    res_x = y_hi - y_lo + prob.G_w.T @ y_g + prob.H_w.T @ y_h + ml.C.T @ y_c
    res_t = ml.scale @ (y_lo + y_hi) + ml.sv @ y_c - w_lo + w_hi
    rhs = (y_hi[fin_hi] @ prob.upper[fin_hi] - y_lo[fin_lo] @ prob.lower[fin_lo]
           + y_g @ prob.a + y_h @ prob.b + y_c @ ml.r + w_hi)
    nonneg = np.concatenate([y_lo, y_hi, y_g, y_c, [w_lo, w_hi]])
    if not (np.max(np.abs(np.append(res_x, res_t))) <= vt and rhs <= -tol
            and np.min(nonneg) >= -vt):
        raise NumericalFailureError(
            "margin search: the infeasibility certificate fails its checks")
    lower_mult = np.zeros(m + 1)
    upper_mult = np.zeros(m + 1)
    lower_mult[m], upper_mult[m] = w_lo, w_hi
    return {"row_mult": np.concatenate([_box_sides(prob, y_lo, y_hi),
                                        y_g, y_h, y_c]).tolist(),
            "lower_mult": lower_mult.tolist(),
            "upper_mult": upper_mult.tolist()}


def _run_margin_search(prob: Problem, extra_rows, tol: float,
                       kind: str) -> SlaterReport:
    pinched = _pinched(prob, tol)
    if pinched.any():
        idx = int(np.argmax(pinched))
        return SlaterReport(
            status=NOT_FOUND, optimal_t=0.0,
            message=f"bounds pinch atom {idx}; no interior point can exist",
            diagnostics={"pinched_atoms": np.nonzero(pinched)[0].tolist()})
    ml = _margin_lp(prob, extra_rows)
    out = lpmod.solve(ml.lp, tol=tol)
    vt = _margin_threshold(prob, ml, tol)
    if out.status is lpmod.LpStatus.INFEASIBLE:
        return SlaterReport(
            status=NOT_FOUND, optimal_t=None,
            message=f"no feasible point exists for the {kind} system",
            diagnostics={"lp_status": out.status.value,
                         "infeasibility_certificate": _infeasibility_certificate(
                             prob, ml, out.farkas, vt, tol)})
    if out.status is not lpmod.LpStatus.OPTIMAL:
        raise NumericalFailureError(f"margin search failed: {out.message}")
    t = float(out.value)
    x = out.x[:prob.size] + ml.shift * t
    if not _margin_violation(prob, ml, x, t) <= vt:
        raise NumericalFailureError(
            "margin search: the recovered point violates a constraint beyond tolerance")
    if t > tol:
        return SlaterReport(status=FOUND, point=x, margin=interior_margin(prob, x),
                            optimal_t=t, feasible_point=x,
                            diagnostics={"lp_iterations": out.iterations})
    # the dual weights witness which rows pin the margin variable at zero
    return SlaterReport(
        status=NOT_FOUND, optimal_t=t, feasible_point=x,
        message=f"best achievable margin {t:.3g} is within tolerance of zero",
        diagnostics={"lp_iterations": out.iterations,
                     "pinning_duals": _pinning_duals(prob, ml, out, vt)})


def find_slater(prob: Problem, tol: float = DEFAULT_TOL) -> SlaterReport:
    """Search for a point strictly inside the box satisfying the linear rows.

    Interiority is scaled: at atoms where both bounds are finite the
    required clearance is proportional to half the gap, so narrow boxes are
    not penalized.  The search is exhaustive in the sense that a point with
    positive scaled margin exists if and only if the report says ``found``
    (up to the working tolerance).
    """
    return _run_margin_search(prob, [], tol, "box-and-linear")


def find_linearized_slater(prob: Problem, xbar: np.ndarray,
                           tol: float = DEFAULT_TOL) -> SlaterReport:
    """Interior-point search with active smooth constraints linearized.

    Each smooth inequality active at ``xbar`` contributes a row requiring
    its first-order model to decrease proportionally to the margin; the
    proportionality constant is the dual norm of the constraint slope, so
    steep and shallow constraints are treated alike.

    The returned ``point`` and ``feasible_point`` are interior (feasible)
    for that linearized system and need not satisfy the smooth constraints
    themselves: for x² + y² ≤ 1 on the box [-2, 2]² with y ≤ 1, linearized
    at (1, 0), the search may report (-1, -1).

    Raises
    ------
    InfeasiblePointError
        If ``xbar`` is not feasible for the full problem.
    """
    xbar = np.asarray(xbar, dtype=float)
    _require_member(check_feasible(prob, xbar, tol).violations, "linearization point")
    return _linearized_search(prob, xbar, [np.asarray(prob.nonlinear[i].grad(xbar), dtype=float)
                                           for i in _smooth_active(prob, xbar, tol)], tol)


def _linearized_search(prob: Problem, xbar: np.ndarray, slopes, tol: float) -> SlaterReport:
    """:func:`find_linearized_slater` at a checked point, given the slopes
    there of the active smooth constraints; inactive ones impose no local
    restriction."""
    q = conjugate_exponent(prob.p)
    extra = [(grad, max(1.0, lp_norm(prob.space, grad, q)), pairing(prob.space, grad, xbar))
             for grad in slopes]
    return _run_margin_search(prob, extra, tol, "linearized")


def density_construction(prob: Problem, xbar: np.ndarray,
                         w: np.ndarray | None = None,
                         tol: float = DEFAULT_TOL) -> np.ndarray:
    """Push a box point off its active bounds, atom by atom.

    At an atom resting on one bound the point moves toward the other bound:
    half-way when that bound is finite, by ``w`` when it is infinite.
    ``w`` must be positive everywhere (default: all ones).  Only the box is
    consulted; linear constraints are the business of
    :func:`combine_slater`.

    Raises
    ------
    PreconditionError
        If some atom has equal (or indistinguishable) bounds, or ``w`` is
        not strictly positive.
    InfeasiblePointError
        If ``xbar`` lies outside the box by more than ``tol``.
    """
    m = prob.size
    xbar = np.asarray(xbar, dtype=float)
    if xbar.shape != (m,):
        raise PreconditionError(f"point has {xbar.size} atoms, expected {m}")
    if w is None:
        w = np.ones(m)
    else:
        w = np.asarray(w, dtype=float)
        if w.shape != (m,):
            raise PreconditionError(f"step profile has {w.size} atoms, expected {m}")
        if not (w > 0).all():
            raise PreconditionError("step profile must be strictly positive")
    pinched = _pinched(prob, tol)
    if pinched.any():
        idx = int(np.argmax(pinched))
        raise PreconditionError(
            f"bounds pinch atom {idx}; no interior point can exist")
    _require_member(_box_violations(prob, xbar, tol), "point")
    x = np.clip(xbar, prob.lower, prob.upper)

    both, lower_only, upper_only, _ = bound_activity(prob, x, tol)
    at_lower, at_upper = lower_only | both, upper_only | both
    step_up = np.where(np.isfinite(prob.upper), (prob.upper - x) / 2.0, w)
    step_dn = np.where(np.isfinite(prob.lower), (x - prob.lower) / 2.0, w)
    out = x + np.where(at_lower, step_up, 0.0) - np.where(at_upper, step_dn, 0.0)

    inside = (out > prob.lower) & (out < prob.upper)
    if not inside.all():
        idx = int(np.argmax(~inside))
        raise NumericalFailureError(
            f"constructed point failed to clear the bounds at atom {idx}")
    return out


def combine_slater(prob: Problem, ring: np.ndarray, tilde: np.ndarray,
                   strict_ineq, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Blend a strictly-slack point with a box-interior point.

    ``ring`` must satisfy the inequalities in ``strict_ineq`` strictly and
    everything else within tolerance; ``tilde`` must be strictly inside the
    box and satisfy the remaining constraints.  Convexity then guarantees
    some blend ``(1-eps) * ring + eps * tilde`` is interior for the box and
    keeps every inequality; the first dyadic ``eps`` that verifies is
    returned along with the point.

    Raises
    ------
    PreconditionError
        If either input point fails its side of the contract.
    ConstructionFailedError
        If no dyadic blend down to 2**-40 verifies (a tolerance report, not
        a mathematical claim).
    """
    ring = np.asarray(ring, dtype=float)
    tilde = np.asarray(tilde, dtype=float)
    strict = set(int(i) for i in strict_ineq)
    bad = [i for i in strict if not 0 <= i < prob.n_ineq]
    if bad:
        raise PreconditionError(f"strict inequality index {bad[0]} out of range")
    if _box_violations(prob, ring, tol):
        raise PreconditionError("slack point leaves the box")
    is_strict = np.isin(np.arange(prob.n_ineq), list(strict))
    loose = np.flatnonzero(is_strict & ~(prob.G_w @ ring <= prob.a - tol))
    if loose.size:
        raise PreconditionError(f"slack point is not strictly inside inequality {loose[0]}")
    # the interior point need not keep the strict inequalities
    for who, pt in (("slack", ring), ("interior", tilde)):
        for v in _row_violations(prob, pt, tol):
            if v.kind == "eq" or not is_strict[v.index]:
                what = "misses equality" if v.kind == "eq" else "violates inequality"
                raise PreconditionError(f"{who} point {what} {v.index}")
    if not _scaled_gap(prob, tilde, _bound_scales(prob)) > tol:  # NaN fails too
        raise PreconditionError("interior point is not strictly inside the box")

    eps = 0.5
    while eps >= _MIN_BLEND:
        x = (1.0 - eps) * ring + eps * tilde
        if interior_margin(prob, x) > tol and not _row_violations(prob, x, tol):
            return x, eps
        eps /= 2.0
    raise ConstructionFailedError(
        "no blend weight down to 2**-40 produced a verifiable interior "
        "point at the working tolerance")
