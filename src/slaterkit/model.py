"""Problem data model: weighted grids, box bounds, linear and smooth constraints.

The ambient space is the set of real-valued functions on a finite grid of
atoms, each atom carrying a positive weight.  All inner products are taken
against those weights, so a vector ``g`` acts on a vector ``x`` through
``sum_i g[i] * x[i] * w[i]``.  Feasible sets are intersections of

* a box ``lower <= x <= upper`` read pointwise (bounds may be infinite),
* finitely many weighted linear inequalities and equalities,
* optionally finitely many smooth scalar inequality constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasiblePointError,
    VoidProblemError,
)
from .tolerances import PINCH, within

__all__ = [
    "MeasureSpace",
    "QuadraticConstraint",
    "SmoothConstraint",
    "Problem",
    "FeasibilityReport",
    "Violation",
    "RegionPartition",
    "conjugate_exponent",
    "pairing",
    "lp_norm",
    "check_feasible",
    "regions",
    "weighted_rows",
    "bound_activity",
    "row_activity",
]

#: Default tolerance used by feasibility and activity classification.
DEFAULT_TOL = 1e-9


def _as_vector(values, size: int | None = None, name: str = "vector") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0 and size is not None:
        arr = np.full(size, float(arr))
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise DimensionMismatchError(
            f"{name} has length {arr.shape[0]}, expected {size}"
        )
    return arr


def weighted_rows(space: "MeasureSpace", rows) -> tuple[np.ndarray, np.ndarray]:
    """Stack ``(vector, rhs)`` rows into read-only ``(V * w, rhs)`` arrays.

    Row ``k`` of the matrix is ``rows[k][0] * weights``, so the matrix times
    a point gives every weighted pairing at once.  This is the only place
    the package multiplies constraint rows by the atom weights.
    """
    if rows:
        V = np.array([g for g, _ in rows], dtype=float) * space.weights
    else:
        V = np.zeros((0, space.size))
    rhs = np.array([float(r) for _, r in rows])
    V.setflags(write=False)
    rhs.setflags(write=False)
    return V, rhs


@dataclass(frozen=True)
class MeasureSpace:
    """A finite grid of atoms with strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_vector(self.weights, name="weights")
        if w.size == 0:
            raise DimensionMismatchError("a space needs at least one atom")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise VoidProblemError("atom weights must be finite and strictly positive")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    @property
    def total(self) -> float:
        return float(self.weights.sum())


@runtime_checkable
class SmoothConstraint(Protocol):
    """A scalar constraint ``value(x) <= 0`` with a weighted-gradient callable.

    ``grad(x)`` must return the vector ``g`` whose weighted pairing with a
    direction ``d`` equals the directional derivative of ``value`` at ``x``.
    """

    def value(self, x: np.ndarray) -> float: ...

    def grad(self, x: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class QuadraticConstraint:
    """Constraint ``0.5 * (x*w)' Q (x*w) + <q, x> + c <= 0`` on a weighted grid.

    ``Q`` is symmetrized on construction.  The gradient returned by
    :meth:`grad` is the weighted-pairing representer ``Q (x*w) + q``.
    """

    space: MeasureSpace
    Q: np.ndarray
    q: np.ndarray
    c: float

    def __post_init__(self):
        m = self.space.size
        mat = np.asarray(self.Q, dtype=float)
        if mat.shape != (m, m):
            raise DimensionMismatchError(f"Q must be {m}x{m}, got {mat.shape}")
        mat = 0.5 * (mat + mat.T)
        mat.setflags(write=False)
        vec = _as_vector(self.q, m, "q").copy()
        vec.setflags(write=False)
        object.__setattr__(self, "Q", mat)
        object.__setattr__(self, "q", vec)
        object.__setattr__(self, "c", float(self.c))

    def value(self, x: np.ndarray) -> float:
        w = self.space.weights
        xw = np.asarray(x, dtype=float) * w
        return float(0.5 * xw @ self.Q @ xw + self.q @ xw + self.c)

    def grad(self, x: np.ndarray) -> np.ndarray:
        w = self.space.weights
        return self.Q @ (np.asarray(x, dtype=float) * w) + self.q


@dataclass(frozen=True)
class Problem:
    """Box plus linear (and optionally smooth) constraints on a weighted grid.

    Parameters
    ----------
    space : MeasureSpace
        The weighted grid.
    p : float
        Norm exponent in ``[1, inf]``; used for norms and report scaling only.
    lower, upper : array_like
        Pointwise bounds; entries may be ``-inf``/``+inf``.  Scalars broadcast.
    ineq : sequence of (vector, float)
        Weighted linear inequalities ``<g, x> <= a``.
    eq : sequence of (vector, float)
        Weighted linear equalities ``<h, x> = b``.
    nonlinear : sequence of SmoothConstraint
        Smooth scalar constraints ``G(x) <= 0``.
    """

    space: MeasureSpace
    p: float
    lower: np.ndarray
    upper: np.ndarray
    ineq: tuple = ()
    eq: tuple = ()
    nonlinear: tuple = ()
    #: Weighted inequality rows ``g * w`` (one per row, read-only) and their
    #: right-hand sides, so that ``G_w @ x`` gives every pairing ``<g, x>``.
    G_w: np.ndarray = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)
    #: Weighted equality rows ``h * w`` and their right-hand sides.
    H_w: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.space.size
        p = float(self.p)
        if not (p >= 1.0):
            raise VoidProblemError(f"norm exponent must lie in [1, inf], got {p}")
        lo = _as_vector(self.lower, m, "lower").copy()
        hi = _as_vector(self.upper, m, "upper").copy()
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise VoidProblemError("bounds must not contain NaN")
        # The box must contain a real-valued function: lower <= upper with
        # lower < +inf and upper > -inf at every atom.
        if np.any(lo > hi):
            raise VoidProblemError("lower bound exceeds upper bound at some atom")
        if np.any(lo == math.inf) or np.any(hi == -math.inf):
            raise VoidProblemError("no real value fits a +inf lower or -inf upper bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        ineq = tuple(
            (self._frozen(g, m, f"ineq[{i}].g"), float(a))
            for i, (g, a) in enumerate(self.ineq)
        )
        eq = tuple(
            (self._frozen(h, m, f"eq[{j}].h"), float(b))
            for j, (h, b) in enumerate(self.eq)
        )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "ineq", ineq)
        object.__setattr__(self, "eq", eq)
        object.__setattr__(self, "nonlinear", tuple(self.nonlinear))
        G_w, a = weighted_rows(self.space, ineq)
        H_w, b = weighted_rows(self.space, eq)
        object.__setattr__(self, "G_w", G_w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "H_w", H_w)
        object.__setattr__(self, "b", b)

    @staticmethod
    def _frozen(values, size, name) -> np.ndarray:
        arr = _as_vector(values, size, name).copy()
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatchError(f"{name} must be finite")
        arr.setflags(write=False)
        return arr

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def n_ineq(self) -> int:
        return len(self.ineq)

    @property
    def n_eq(self) -> int:
        return len(self.eq)


def conjugate_exponent(p: float) -> float:
    """Return the exponent q with 1/p + 1/q = 1 (with the obvious limits)."""
    p = float(p)
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def pairing(space: MeasureSpace, g, x) -> float:
    """Weighted pairing ``sum_i g[i] * x[i] * w[i]``."""
    m = space.size
    gv = _as_vector(g, m, "g")
    xv = _as_vector(x, m, "x")
    return float(np.sum(gv * xv * space.weights))


def lp_norm(space: MeasureSpace, x, p: float) -> float:
    """Weighted p-norm; for ``p = inf`` the plain maximum of ``|x|``.

    Every atom has positive weight, so the essential supremum over the grid
    is the maximum.
    """
    m = space.size
    xv = _as_vector(x, m, "x")
    p = float(p)
    if p == math.inf:
        return float(np.max(np.abs(xv)))
    if p < 1.0:
        raise ValueError(f"norm exponent must lie in [1, inf], got {p}")
    return float(np.sum(np.abs(xv) ** p * space.weights) ** (1.0 / p))


@dataclass(frozen=True)
class Violation:
    """One violated constraint: its kind, index, and violation magnitude."""

    kind: str  # "lower" | "upper" | "ineq" | "eq" | "nonlinear"
    index: int
    residual: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.feasible


def check_feasible(prob: Problem, x, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Check membership of ``x`` in the full feasible set within ``tol``.

    A point passes when ``lower - tol <= x <= upper + tol`` pointwise, every
    inequality holds up to ``tol``, every equality holds within ``tol``, and
    every smooth constraint value is ``<= tol``.  The report lists every
    violated constraint together with its residual.  A NaN coordinate
    passes no comparison, so it shows up as a violation.
    """
    xv = _as_vector(x, prob.size, "x")
    bad = _box_violations(prob, xv, tol) + _row_violations(prob, xv, tol)
    for i, con in enumerate(prob.nonlinear):
        val = con.value(xv)
        if not val <= tol:
            bad.append(Violation("nonlinear", i, float(val)))
    return FeasibilityReport(not bad, tuple(bad))


def _require_member(bad: Sequence[Violation], what: str) -> None:
    """Raise :class:`InfeasiblePointError` naming the first of ``bad``, if any."""
    if bad:
        v = bad[0]
        raise InfeasiblePointError(f"{what} violates {v.kind}[{v.index}] by {v.residual:.3g}")


def _box_violations(prob: Problem, xv: np.ndarray, tol: float) -> list[Violation]:
    """The box part of :func:`check_feasible`: every atom below or above
    its bound by more than ``tol``, or NaN."""
    lo, hi = prob.lower, prob.upper
    bad = [Violation("lower", int(i), float(lo[i] - xv[i]))
           for i in np.nonzero(~(xv >= lo - tol))[0]]
    return bad + [Violation("upper", int(i), float(xv[i] - hi[i]))
                  for i in np.nonzero(~(xv <= hi + tol))[0]]


def _row_violations(rows, xv: np.ndarray, tol: float) -> list[Violation]:
    """The row part of :func:`check_feasible`, inequalities first, for any
    holder of weighted rows ``G_w, a, H_w, b``; NaN counts as violated."""
    val = rows.G_w @ xv
    bad = [Violation("ineq", int(i), float(val[i] - rows.a[i]))
           for i in np.nonzero(~(val <= rows.a + tol))[0]]
    miss = np.abs(rows.H_w @ xv - rows.b)
    return bad + [Violation("eq", int(j), float(miss[j]))
                  for j in np.nonzero(~(miss <= tol))[0]]


def bound_activity(prob: Problem, x: np.ndarray, tol: float = DEFAULT_TOL):
    """Boolean masks ``(both, lower_only, upper_only, free)`` of bound activity.

    The bound at atom ``i`` is active when it is finite and
    ``x[i] - lower[i] <= tol * max(1, |x[i]|)`` (for the upper bound
    ``upper[i] - x[i] <= ...``).  The rule is one-sided, so a point slightly
    outside the box counts as sitting on the bound it crossed; callers check
    box membership first, at ``tol`` or a looser multiple of it.
    """
    scale = tol * np.maximum(1.0, np.abs(x))
    at_lower = np.isfinite(prob.lower) & (x - prob.lower <= scale)
    at_upper = np.isfinite(prob.upper) & (prob.upper - x <= scale)
    both = at_lower & at_upper
    return both, at_lower & ~both, at_upper & ~both, ~(at_lower | at_upper)


def _pinched(prob: Problem, tol: float) -> np.ndarray:
    """Atoms whose bounds pinch: ``upper - lower`` within ``PINCH`` tol."""
    return within(prob.upper - prob.lower, PINCH, 1.0, tol)


def row_activity(G_w: np.ndarray, a: np.ndarray, x: np.ndarray,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """Mask of weighted rows active at ``x``: ``|G_w x - a| <= tol * max(1, |a|)``."""
    return np.abs(G_w @ x - a) <= tol * np.maximum(1.0, np.abs(a))


def _smooth_active(prob: Problem, x: np.ndarray, tol: float) -> tuple[int, ...]:
    """Smooth constraints active at ``x``: value within ``tol`` of zero."""
    return tuple(i for i, con in enumerate(prob.nonlinear) if abs(con.value(x)) <= tol)


@dataclass(frozen=True)
class RegionPartition:
    """Partition of the atoms by bound activity, plus active constraint sets.

    The four boolean masks over the atoms are disjoint and cover every
    atom; ``idx_*`` list the same sets as indices.  An infinite bound is
    never active.  Bound activity follows :func:`bound_activity` and
    linear-row activity :func:`row_activity`; a smooth constraint is active
    when its value is within ``tol`` of zero.  A partition of the box alone
    leaves both constraint sets empty.
    """

    both: np.ndarray = field(repr=False)
    lower_only: np.ndarray = field(repr=False)
    upper_only: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)
    lin_active: tuple[int, ...] = ()
    nl_active: tuple[int, ...] = ()

    idx_both_active = property(lambda self: np.flatnonzero(self.both))
    idx_lower_active = property(lambda self: np.flatnonzero(self.lower_only))
    idx_upper_active = property(lambda self: np.flatnonzero(self.upper_only))
    idx_free = property(lambda self: np.flatnonzero(self.free))


def regions(prob: Problem, x, tol: float = DEFAULT_TOL) -> RegionPartition:
    """Classify atoms by bound activity and list active constraints at ``x``.

    Raises
    ------
    InfeasiblePointError
        If ``x`` fails :func:`check_feasible` at the same tolerance.
    """
    xv = _as_vector(x, prob.size, "x")
    _require_member(check_feasible(prob, xv, tol).violations, "point")
    return _partition(prob, xv, tol)


def _partition(prob: Problem, xv: np.ndarray, tol: float) -> RegionPartition:
    """:func:`regions` at a point the caller has already checked."""
    return RegionPartition(
        *bound_activity(prob, xv, tol),
        lin_active=tuple(np.flatnonzero(row_activity(prob.G_w, prob.a, xv, tol)).tolist()),
        nl_active=_smooth_active(prob, xv, tol))
