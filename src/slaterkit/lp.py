"""Self-contained dense linear-programming kernel.

Solves ``maximize c.x`` subject to tagged rows (``<=``, ``==``, ``>=``) and
pointwise variable bounds that may be infinite.  The solver is a two-phase
tableau simplex:

* variables are shifted or split so the working variables are nonnegative,
  finite shifted upper bounds become extra rows;
* rows get slacks, equality rows get artificial columns, and a single extra
  artificial column repairs negative right-hand sides among the inequality
  rows in one pivot, so phase one starts from the slack basis;
* pivots use the largest-coefficient rule with a deterministic first-index
  tie-break, switching permanently to Bland's smallest-index rule after a
  stretch of stalled pivots, which guarantees termination;
* a pivot entry must exceed both an absolute threshold and a small fraction
  of the largest entry in its column (or row, when driving artificials out
  of the basis).

Outcomes carry dual vectors and certificates: row duals and reduced costs at
optimality, a Farkas ray (row plus bound multipliers) on infeasibility, and a
feasible point plus improving ray on unboundedness.  Every outcome is
verified post hoc; a certificate that fails its residual checks downgrades
the status to ``NUMERICAL_FAILURE`` rather than ever returning a wrong
certificate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "LpStatus",
    "LinearProgram",
    "FarkasCertificate",
    "LpOutcome",
    "solve",
    "feasibility",
    "DEFAULT_FEAS_TOL",
    "DEFAULT_PIVOT_TOL",
]

LE, EQ, GE = "<=", "==", ">="

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-11

_STALL_LIMIT = 60  # stalled pivots before switching to Bland's rule
#: A pivot entry must also exceed this fraction of the largest entry in its
#: column (ratio test) or row (driving out artificials): a smaller one is a
#: cancellation residue, and pivoting on it leaves a near-singular basis.
_REL_PIVOT = 1e-9


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class LinearProgram:
    """``maximize c.x`` s.t. tagged rows and variable bounds.

    Attributes
    ----------
    c : (n,) objective, always maximized.
    A : (k, n) row coefficients.
    rel : k row tags, each one of ``"<="``, ``"=="``, ``">="``.
    b : (k,) right-hand sides.
    lower, upper : (n,) variable bounds, entries may be infinite.
    """

    c: np.ndarray
    A: np.ndarray
    rel: tuple[str, ...]
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            A = A.reshape(-1, c.shape[0]) if A.size else np.zeros((0, c.shape[0]))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        rel = tuple(self.rel)
        n = c.shape[0]
        if A.shape != (b.shape[0], n):
            raise DimensionMismatchError(f"A has shape {A.shape}, expected ({b.shape[0]}, {n})")
        if lo.shape != (n,) or hi.shape != (n,):
            raise DimensionMismatchError("bound vectors must match the variable count")
        if len(rel) != b.shape[0]:
            raise DimensionMismatchError("one relation tag per row required")
        for t in rel:
            if t not in (LE, EQ, GE):
                raise ValueError(f"unknown row tag {t!r}")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective must be finite")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise ValueError("row data must be finite")
        for name, arr in (("c", c), ("A", A), ("b", b), ("lower", lo), ("upper", hi)):
            arr.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility.

    ``row_mult`` combines the constraint rows (nonnegative on ``<=`` rows,
    nonpositive on ``>=`` rows, free on equalities), ``lower_mult`` and
    ``upper_mult`` are nonnegative weights on the finite variable bounds.
    The aggregate satisfies ``A'y - wL + wU = 0`` while the combined
    right-hand side ``y.b - wL.lower + wU.upper`` is negative.  Normalized
    so the largest multiplier magnitude is one.
    """

    row_mult: np.ndarray
    lower_mult: np.ndarray
    upper_mult: np.ndarray

    def combination_residual(self, lp: LinearProgram) -> np.ndarray:
        return lp.A.T @ self.row_mult - self.lower_mult + self.upper_mult

    def combined_rhs(self, lp: LinearProgram) -> float:
        val = float(self.row_mult @ lp.b)
        lo_fin = np.isfinite(lp.lower)
        hi_fin = np.isfinite(lp.upper)
        val -= float(self.lower_mult[lo_fin] @ lp.lower[lo_fin])
        val += float(self.upper_mult[hi_fin] @ lp.upper[hi_fin])
        return val


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    y: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    farkas: FarkasCertificate | None = None
    ray: np.ndarray | None = None
    message: str = ""
    iterations: int = 0


# ---------------------------------------------------------------------------
# variable and row transformation


class _Transform:
    """Bookkeeping for the shift/flip/split to nonnegative variables.

    Working column ``k`` is ``sign[k]`` times original variable ``var[k]``
    minus its offset, so ``x = offsets + sum_k sign[k] x'_k e_var[k]``.  A
    variable with a finite lower bound is shifted, one with only a finite
    upper bound is flipped, and a free one is split into two columns.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        lo, hi = lp.lower, lp.upper
        has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
        self.free = ~has_lo & ~has_hi
        self.offsets = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
        reps = np.where(self.free, 2, 1)
        first = np.cumsum(reps) - reps  # first working column of each variable
        self.var = np.repeat(np.arange(lp.n_vars), reps)
        self.sign = np.ones(self.var.size)
        self.sign[first[~has_lo & has_hi]] = -1.0
        self.sign[first[self.free] + 1] = -1.0
        # upper bound of the shifted variable
        self.col_upper = np.full(self.var.size, math.inf)
        self.col_upper[first[has_lo]] = hi[has_lo] - lo[has_lo]

    def shift_columns(self, A: np.ndarray) -> np.ndarray:
        """Columns of ``A`` in working variables; adding 0.0 turns -0.0 into
        0.0, as a product with the sign matrix would."""
        return A[:, self.var] * self.sign + 0.0

    def ray_to_original(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(self.lp.n_vars)
        np.add.at(out, self.var, self.sign * xs)
        return out

    def to_original(self, xs: np.ndarray) -> np.ndarray:
        return self.offsets + self.ray_to_original(xs)


class _Tableau:
    def __init__(self, lp: LinearProgram, pivot_tol: float):
        self.lp = lp
        self.pivot_tol = pivot_tol
        tr = _Transform(lp)
        self.tr = tr
        ncols = tr.var.size

        rows: list[np.ndarray] = []
        rhs: list[float] = []
        tags: list[str] = []
        orient: list[float] = []
        origin: list[tuple] = []  # ("row", i) | ("bound", col, which)
        A_shift = tr.shift_columns(lp.A)
        b_shift = lp.b - lp.A @ tr.offsets
        for i in range(lp.n_rows):
            t = lp.rel[i]
            if t == GE:
                rows.append(-A_shift[i])
                rhs.append(-b_shift[i])
                tags.append(LE)
                orient.append(-1.0)
            elif t == LE:
                rows.append(A_shift[i].copy())
                rhs.append(b_shift[i])
                tags.append(LE)
                orient.append(1.0)
            else:
                r, v, o = A_shift[i].copy(), b_shift[i], 1.0
                if v < 0:  # equality rows are flipped so the artificial is +1
                    r, v, o = -r, -v, -1.0
                rows.append(r)
                rhs.append(v)
                tags.append(EQ)
                orient.append(o)
            origin.append(("row", i))
        for k, ub in enumerate(tr.col_upper):
            if ub < math.inf:
                row = np.zeros(ncols)
                row[k] = 1.0
                rows.append(row)
                rhs.append(ub)
                tags.append(LE)
                orient.append(1.0)
                origin.append(("bound", tr.var[k], "upper" if tr.sign[k] > 0 else "lower"))

        k_rows = len(rows)
        self.tags = tags
        self.orient = np.array(orient)
        self.origin = origin
        self.n_struct = ncols

        le_rows = [i for i, t in enumerate(tags) if t == LE]
        eq_rows = [i for i, t in enumerate(tags) if t == EQ]
        self.slack_col = {}
        self.art_col = {}
        n_total = ncols + len(le_rows) + len(eq_rows) + 1
        T = np.zeros((k_rows, n_total))
        if k_rows:
            T[:, :ncols] = np.vstack(rows)
        nxt = ncols
        for i in le_rows:
            T[i, nxt] = 1.0
            self.slack_col[i] = nxt
            nxt += 1
        for i in eq_rows:
            T[i, nxt] = 1.0
            self.art_col[i] = nxt
            nxt += 1
        self.q_col = nxt
        bv = np.array(rhs, dtype=float)
        neg_le = [i for i in le_rows if bv[i] < 0]
        for i in neg_le:
            T[i, self.q_col] = -1.0

        self.T = T
        self.bv = bv
        self.basis = np.empty(k_rows, dtype=int)
        for i in le_rows:
            self.basis[i] = self.slack_col[i]
        for i in eq_rows:
            self.basis[i] = self.art_col[i]
        self.artificials = set(self.art_col.values())
        self.artificials.add(self.q_col)
        self.banned = np.zeros(n_total, dtype=bool)
        self.neg_le = neg_le
        self.n_total = n_total
        self.iterations = 0

        # phase costs over all tableau columns
        self.c1 = np.zeros(n_total)
        for c in self.artificials:
            self.c1[c] = -1.0
        self.c2 = np.zeros(n_total)
        self.c2[:ncols] = tr.sign * lp.c[tr.var]

        cb1 = self.c1[self.basis] if k_rows else np.zeros(0)
        cb2 = self.c2[self.basis] if k_rows else np.zeros(0)
        self.z1 = self.c1 - (cb1 @ T if k_rows else 0.0)
        self.z2 = self.c2 - (cb2 @ T if k_rows else 0.0)
        self.v1 = float(cb1 @ bv) if k_rows else 0.0
        self.v2 = float(cb2 @ bv) if k_rows else 0.0

    # -- pivoting -----------------------------------------------------------

    def pivot(self, r: int, j: int):
        T, bv = self.T, self.bv
        piv = T[r, j]
        T[r] /= piv
        bv[r] /= piv
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        bv -= col * bv[r]
        T[:, j] = 0.0
        T[r, j] = 1.0
        for zname, vname in (("z1", "v1"), ("z2", "v2")):
            z = getattr(self, zname)
            f = z[j]
            if f != 0.0:
                setattr(self, vname, getattr(self, vname) + f * bv[r])
                z -= f * T[r]
            z[j] = 0.0
        leaving = self.basis[r]
        if leaving in self.artificials:
            self.banned[leaving] = True
        self.basis[r] = j
        self.iterations += 1

    def pivot_floor(self, v: np.ndarray) -> float:
        """Smallest magnitude accepted as a pivot among the entries ``v``."""
        return max(self.pivot_tol, _REL_PIVOT * float(np.max(np.abs(v), initial=0.0)))

    def ratio_row(self, j: int) -> int | None:
        col = self.T[:, j]
        ok = col > self.pivot_floor(col)
        if not ok.any():
            return None
        ratios = np.full(col.shape, math.inf)
        ratios[ok] = self.bv[ok] / col[ok]
        best = ratios.min()
        cand = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        if cand.size == 1:
            return int(cand[0])
        return int(cand[np.argmin(self.basis[cand])])

    def run_phase(self, z: np.ndarray, eligible: np.ndarray, dual_tol: float,
                  max_iter: int) -> str:
        """Pivot until no eligible column improves; return a stop reason."""
        bland = False
        stall = 0
        vname = "v1" if z is self.z1 else "v2"
        last = getattr(self, vname)
        while True:
            zz = np.where(eligible & ~self.banned, z, -math.inf)
            if bland:
                idx = np.nonzero(zz > dual_tol)[0]
                if idx.size == 0:
                    return "optimal"
                j = int(idx[0])
            else:
                j = int(np.argmax(zz))
                if zz[j] <= dual_tol:
                    return "optimal"
            r = self.ratio_row(j)
            if r is None:
                self.unbounded_col = j
                return "unbounded"
            self.pivot(r, j)
            if self.iterations > max_iter:
                return "iteration_limit"
            now = getattr(self, vname)
            if now <= last + 1e-12 * (1.0 + abs(last)):
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last = now


# ---------------------------------------------------------------------------
# solver


def solve(lp: LinearProgram, tol: float = DEFAULT_FEAS_TOL,
          pivot_tol: float = DEFAULT_PIVOT_TOL, max_iter: int | None = None) -> LpOutcome:
    """Solve the program; statuses are optimal / infeasible / unbounded.

    All certificates are re-verified on the original data before being
    returned; irrecoverable loss of precision yields a
    ``NUMERICAL_FAILURE`` outcome instead of an unverified answer.
    """
    out = _solve_once(lp, tol, pivot_tol, max_iter)
    if out.status is LpStatus.NUMERICAL_FAILURE and "iteration" not in out.message:
        # one deterministic retry with a stricter pivot threshold
        out2 = _solve_once(lp, tol, pivot_tol * 1e-2, max_iter)
        if out2.status is not LpStatus.NUMERICAL_FAILURE:
            return out2
    return out


def feasibility(A, rel, b, lower, upper, tol: float = DEFAULT_FEAS_TOL) -> LpOutcome:
    """Decide solvability of a system of linear relations with bounds.

    Returns an outcome whose status is OPTIMAL with a point when the system
    is solvable and INFEASIBLE with a Farkas certificate otherwise.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[1] if A.ndim == 2 else np.atleast_1d(lower).shape[0]
    lp = LinearProgram(np.zeros(n), A, tuple(rel), b, lower, upper)
    return solve(lp, tol=tol)


def _solve_once(lp: LinearProgram, tol: float, pivot_tol: float,
                max_iter: int | None) -> LpOutcome:
    tb = _Tableau(lp, pivot_tol)
    if max_iter is None:
        max_iter = 2000 + 20 * (len(tb.tags) + tb.n_total)
    scale = max(
        1.0,
        float(np.max(np.abs(lp.b))) if lp.n_rows else 0.0,
        float(np.max(np.abs(tb.bv))) if tb.bv.size else 0.0,
    )

    eligible = np.ones(tb.n_total, dtype=bool)
    need_phase1 = bool(tb.art_col) or bool(tb.neg_le)
    if need_phase1:
        if tb.neg_le:
            r = min(tb.neg_le, key=lambda i: tb.bv[i])
            tb.pivot(r, tb.q_col)
        stop = tb.run_phase(tb.z1, eligible, tol, max_iter)
        if stop == "iteration_limit":
            return LpOutcome(LpStatus.NUMERICAL_FAILURE,
                             message="iteration limit reached in phase one",
                             iterations=tb.iterations)
        if stop == "unbounded":
            return LpOutcome(LpStatus.NUMERICAL_FAILURE,
                             message="phase one reported an unbounded direction",
                             iterations=tb.iterations)
        if tb.v1 < -tol * scale:
            return _extract_infeasible(lp, tb, tol, scale)
        _drive_out_artificials(tb)

    for c in tb.artificials:
        eligible[c] = False
    stop = tb.run_phase(tb.z2, eligible, tol, max_iter)
    if stop == "iteration_limit":
        return LpOutcome(LpStatus.NUMERICAL_FAILURE,
                         message="iteration limit reached in phase two",
                         iterations=tb.iterations)
    if stop == "unbounded":
        return _extract_unbounded(lp, tb, tol, scale)
    return _extract_optimal(lp, tb, tol, scale)


def _drive_out_artificials(tb: _Tableau):
    for r in range(len(tb.tags)):
        if tb.basis[r] in tb.artificials:
            row = tb.T[r, : tb.n_struct + len(tb.slack_col)]
            cand = np.nonzero(np.abs(row) > tb.pivot_floor(row))[0]
            if cand.size:
                tb.pivot(r, int(cand[0]))
            # else: redundant row, the artificial stays basic at level zero


def _row_duals(lp: LinearProgram, tb: _Tableau, z: np.ndarray,
               art_cost: float) -> np.ndarray:
    """Duals of the tableau rows read off the unit columns of ``z``."""
    k = len(tb.tags)
    y = np.zeros(k)
    for i in range(k):
        if tb.tags[i] == LE:
            y[i] = -z[tb.slack_col[i]]
        else:
            y[i] = art_cost - z[tb.art_col[i]]
    return y


def _split_duals(lp: LinearProgram, tb: _Tableau, yhat: np.ndarray):
    """Map tableau-row duals to original rows and bound multipliers."""
    y = np.zeros(lp.n_rows)
    wL = np.zeros(lp.n_vars)
    wU = np.zeros(lp.n_vars)
    for i, org in enumerate(tb.origin):
        if org[0] == "row":
            y[org[1]] = tb.orient[i] * yhat[i]
        else:
            _, j, which = org
            val = max(yhat[i], 0.0)
            if which == "upper":
                wU[j] += val
            else:
                wL[j] += val
    return y, wL, wU


def _extract_optimal(lp: LinearProgram, tb: _Tableau, tol: float, scale: float) -> LpOutcome:
    # a basic artificial at a genuinely nonzero level means phase one lied
    for r in range(len(tb.tags)):
        if tb.basis[r] in tb.artificials and abs(tb.bv[r]) > tol * scale:
            return LpOutcome(LpStatus.NUMERICAL_FAILURE,
                             message="artificial variable stuck at a nonzero level",
                             iterations=tb.iterations)
    xs = np.zeros(tb.n_total)
    for r, col in enumerate(tb.basis):
        xs[col] = tb.bv[r]
    x = tb.tr.to_original(xs[: tb.n_struct])
    value = float(lp.c @ x)
    yhat = _row_duals(lp, tb, tb.z2, 0.0)
    y, wL, wU = _split_duals(lp, tb, yhat)
    reduced = lp.c - lp.A.T @ y
    err = _check_optimal(lp, x, y, reduced, value, tol, scale)
    if err:
        return LpOutcome(LpStatus.NUMERICAL_FAILURE, message=err,
                         iterations=tb.iterations)
    return LpOutcome(LpStatus.OPTIMAL, x=x, value=value, y=y,
                     reduced_costs=reduced, iterations=tb.iterations)


def _extract_unbounded(lp: LinearProgram, tb: _Tableau, tol: float, scale: float) -> LpOutcome:
    # the direction raises the entering column by one and moves every basic
    # variable by minus its tableau column entry
    j = tb.unbounded_col
    d = np.zeros(tb.n_struct)
    if j < tb.n_struct:
        d[j] = 1.0
    for r, col in enumerate(tb.basis):
        if col < tb.n_struct:
            d[col] = -tb.T[r, j]
    ray = tb.tr.ray_to_original(d)
    xs = np.zeros(tb.n_total)
    for r, col in enumerate(tb.basis):
        xs[col] = tb.bv[r]
    x = tb.tr.to_original(xs[: tb.n_struct])
    nrm = float(np.max(np.abs(ray)))
    if nrm > 0:
        ray = ray / nrm
    err = _check_unbounded(lp, x, ray, tol, scale)
    if err:
        return LpOutcome(LpStatus.NUMERICAL_FAILURE, message=err,
                         iterations=tb.iterations)
    return LpOutcome(LpStatus.UNBOUNDED, x=x, ray=ray,
                     iterations=tb.iterations)


def _extract_infeasible(lp: LinearProgram, tb: _Tableau, tol: float, scale: float) -> LpOutcome:
    yhat = _row_duals(lp, tb, tb.z1, -1.0)
    y, wL, wU = _split_duals(lp, tb, yhat)
    # nonnegative residuals of the shifted variables fold into bound weights
    for k in range(tb.n_struct):
        val = -tb.z1[k]
        if val <= 0.0:
            continue
        j = tb.tr.var[k]
        if tb.tr.free[j]:
            continue  # split columns of a free variable carry no bound
        if tb.tr.sign[k] > 0:
            wL[j] += val
        else:
            wU[j] += val
    kappa = max(
        float(np.max(np.abs(y))) if y.size else 0.0,
        float(np.max(wL)) if wL.size else 0.0,
        float(np.max(wU)) if wU.size else 0.0,
    )
    if kappa <= 0.0:
        return LpOutcome(LpStatus.NUMERICAL_FAILURE,
                         message="empty infeasibility certificate",
                         iterations=tb.iterations)
    cert = FarkasCertificate(y / kappa, wL / kappa, wU / kappa)
    err = _check_farkas(lp, cert, tol, scale)
    if err:
        return LpOutcome(LpStatus.NUMERICAL_FAILURE, message=err,
                         iterations=tb.iterations)
    return LpOutcome(LpStatus.INFEASIBLE, farkas=cert, iterations=tb.iterations)


# ---------------------------------------------------------------------------
# post-hoc verification


def _data_scale(lp: LinearProgram) -> float:
    vals = [1.0]
    if lp.A.size:
        vals.append(float(np.max(np.abs(lp.A))))
    if lp.b.size:
        vals.append(float(np.max(np.abs(lp.b))))
    if lp.c.size:
        vals.append(float(np.max(np.abs(lp.c))))
    return max(vals)


def _primal_violation(lp: LinearProgram, x: np.ndarray) -> float:
    worst = 0.0
    if lp.n_rows:
        vals = lp.A @ x
        for i, t in enumerate(lp.rel):
            if t == LE:
                worst = max(worst, vals[i] - lp.b[i])
            elif t == GE:
                worst = max(worst, lp.b[i] - vals[i])
            else:
                worst = max(worst, abs(vals[i] - lp.b[i]))
    lo_fin = np.isfinite(lp.lower)
    hi_fin = np.isfinite(lp.upper)
    if lo_fin.any():
        worst = max(worst, float(np.max(lp.lower[lo_fin] - x[lo_fin])))
    if hi_fin.any():
        worst = max(worst, float(np.max(x[hi_fin] - lp.upper[hi_fin])))
    return worst


def _check_optimal(lp: LinearProgram, x, y, reduced, value, tol, scale) -> str:
    vt = 50.0 * tol * max(scale, _data_scale(lp))
    if _primal_violation(lp, x) > vt:
        return "optimal point violates a constraint beyond tolerance"
    for i, t in enumerate(lp.rel):
        if t == LE and y[i] < -vt:
            return "dual sign violated on a <= row"
        if t == GE and y[i] > vt:
            return "dual sign violated on a >= row"
    wL = np.zeros(lp.n_vars)
    wU = np.zeros(lp.n_vars)
    band = vt * np.maximum(1.0, np.abs(x))
    for j in range(lp.n_vars):
        at_lo = np.isfinite(lp.lower[j]) and x[j] - lp.lower[j] <= band[j]
        at_hi = np.isfinite(lp.upper[j]) and lp.upper[j] - x[j] <= band[j]
        r = reduced[j]
        if at_lo and at_hi:
            wL[j], wU[j] = max(-r, 0.0), max(r, 0.0)
        elif at_lo:
            if r > vt:
                return "reduced cost has the wrong sign at a lower bound"
            wL[j] = max(-r, 0.0)
        elif at_hi:
            if r < -vt:
                return "reduced cost has the wrong sign at an upper bound"
            wU[j] = max(r, 0.0)
        else:
            if abs(r) > vt:
                return "nonzero reduced cost on an interior variable"
    dual_value = float(y @ lp.b) if lp.n_rows else 0.0
    lo_fin = np.isfinite(lp.lower)
    hi_fin = np.isfinite(lp.upper)
    dual_value -= float(wL[lo_fin] @ lp.lower[lo_fin])
    dual_value += float(wU[hi_fin] @ lp.upper[hi_fin])
    if abs(dual_value - value) > vt * (1.0 + abs(value)):
        return "primal and dual objective values disagree"
    return ""


def _check_unbounded(lp: LinearProgram, x, ray, tol, scale) -> str:
    vt = 50.0 * tol * max(scale, _data_scale(lp))
    if _primal_violation(lp, x) > vt:
        return "unbounded case: the feasible point is not feasible"
    if lp.n_rows:
        vals = lp.A @ ray
        for i, t in enumerate(lp.rel):
            if t == LE and vals[i] > vt:
                return "ray leaves a <= row"
            if t == GE and vals[i] < -vt:
                return "ray leaves a >= row"
            if t == EQ and abs(vals[i]) > vt:
                return "ray leaves an equality row"
    for j in range(lp.n_vars):
        if np.isfinite(lp.lower[j]) and ray[j] < -vt:
            return "ray leaves a lower bound"
        if np.isfinite(lp.upper[j]) and ray[j] > vt:
            return "ray leaves an upper bound"
    if float(lp.c @ ray) <= tol:
        return "ray does not improve the objective"
    return ""


def _check_farkas(lp: LinearProgram, cert: FarkasCertificate, tol, scale) -> str:
    vt = 50.0 * tol * max(scale, _data_scale(lp))
    for i, t in enumerate(lp.rel):
        if t == LE and cert.row_mult[i] < -vt:
            return "Farkas multiplier negative on a <= row"
        if t == GE and cert.row_mult[i] > vt:
            return "Farkas multiplier positive on a >= row"
    if np.any(cert.lower_mult < -vt) or np.any(cert.upper_mult < -vt):
        return "negative bound multiplier in Farkas certificate"
    if np.any(cert.lower_mult[~np.isfinite(lp.lower)] > vt):
        return "Farkas certificate uses an infinite lower bound"
    if np.any(cert.upper_mult[~np.isfinite(lp.upper)] > vt):
        return "Farkas certificate uses an infinite upper bound"
    res = cert.combination_residual(lp)
    if res.size and float(np.max(np.abs(res))) > vt:
        return "Farkas combination does not cancel the variables"
    if cert.combined_rhs(lp) > -tol:
        return "Farkas combined right-hand side is not negative"
    return ""
