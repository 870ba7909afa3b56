"""Self-contained dense linear-programming kernel.

Solves ``maximize c.x`` subject to tagged rows (``<=``, ``==``, ``>=``) and
variable bounds that may be infinite, with a two-phase bounded-variable
tableau simplex (Dantzig's upper-bounding technique):

* a bound is never a row: a nonbasic column rests at a bound (a free one at
  zero, as one column) and flips to its opposite bound without a pivot;
* ``<=`` rows ``a x_p + g x_key <= h`` (``a > 0``, a column ``x_p`` of their
  own, one key column shared by all) that the program declares as its
  ``vub`` block are implicit variable upper bounds (Schrage's technique):
  they stay out of the tableau, and their basic representative (the slack,
  or ``x_p`` while tight) is read off the row;
* a crash start sets block rows tight before phase one: greedily the row
  whose ``x_p``, moved from its lower bound to the row's bound, most lowers
  the other rows' total violation (Bixby 1992; Maros 2003, ch. 9);
* every other row gets a slack (a ``>=`` row is negated) or, on an
  equality, an artificial; one shared artificial repairs the violated
  inequality rows in one pivot, so phase one starts from the logical basis;
* the entering column has the largest reduced cost (first index on ties),
  switching for good to Bland's rule after a stretch of stalled iterations,
  and a pivot entry must exceed an absolute threshold and a small fraction
  of the largest entry in its column.

``LpOutcome.iterations`` counts pivots and bound flips alike.  A working
tableau above a fixed memory cap is refused (``NumericalFailureError``)
before it is allocated.  Every outcome is re-checked on the original rows
and bounds at the ``RESIDUAL`` threshold (README, "Tolerances"), scaled by
the largest coefficient, right-hand side or objective entry (bounds take no
part); a failed check gives ``NUMERICAL_FAILURE``, never a wrong certificate.

An iteration is a pricing pass, a ratio test of about fifteen vector
operations on the entering column and a rank-one update in row blocks: on a
few dozen rows the cost of each numpy call, not the arithmetic, sets its
time.  A block row adds no tableau row: an iteration adds a few scalar steps
per loose row whose ``x_p`` is basic, one pass over the block's precomputed
key limits and, when a row changes which variable holds its column, a column
substitution.  On 128 block rows and 8 general rows an iteration costs about
twice one of the same rows over 128 bounded columns (about 50 vs 28 us on
the 2-vCPU machine of BENCH_21.json).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError
from .tolerances import RESIDUAL, threshold

__all__ = ["LpStatus", "LinearProgram", "VubRows", "FarkasCertificate", "LpOutcome", "solve",
           "feasibility", "DEFAULT_FEAS_TOL", "DEFAULT_PIVOT_TOL"]

LE, EQ, GE = "<=", "==", ">="

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-11

_STALL_LIMIT = 60  # stalled iterations before switching to Bland's rule
#: A pivot entry must also exceed this fraction of the largest entry in its
#: column: a smaller one is a cancellation residue, and pivoting on it leaves
#: a near-singular basis.
_REL_PIVOT = 1e-9
#: Largest working tableau, in bytes, that the dense kernel allocates.
_MAX_TABLEAU_BYTES = 2 ** 29
#: Largest temporary of one block of a pivot's rank-one update, in bytes.
_BLOCK_BYTES = 2 ** 21


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class VubRows:
    """Variable-upper-bound rows ``a[i] x[col[i]] + g[i] x[key] <= h[i]``: one
    key column, per row a column of its own (distinct, not the key), ``a > 0``
    and ``g != 0``.  On a :class:`LinearProgram` they follow ``A``'s rows."""

    key: int
    col: np.ndarray
    a: np.ndarray
    g: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class LinearProgram:
    """``maximize c.x`` s.t. tagged rows and variable bounds.

    Attributes
    ----------
    c : (n,) objective, always maximized.
    A : (k, n) coefficients of the general rows.
    rel : k row tags, each one of ``"<="``, ``"=="``, ``">="``.
    b : (k,) right-hand sides.
    lower, upper : (n,) variable bounds, entries may be infinite.
    vub : optional :class:`VubRows`, ``<=`` rows after ``A``'s.

    The program keeps read-only copies of the caller's arrays.
    """

    c: np.ndarray
    A: np.ndarray
    rel: tuple[str, ...]
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    vub: VubRows | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.c, dtype=float))
        A = np.array(self.A, dtype=float)
        if A.ndim != 2:
            A = A.reshape(-1, c.shape[0]) if A.size else np.zeros((0, c.shape[0]))
        b, lo, hi = (np.atleast_1d(np.array(v, dtype=float))
                     for v in (self.b, self.lower, self.upper))
        rel = tuple(self.rel)
        n = c.shape[0]
        if A.shape != (b.shape[0], n):
            raise DimensionMismatchError(f"A has shape {A.shape}, expected ({b.shape[0]}, {n})")
        if lo.shape != (n,) or hi.shape != (n,):
            raise DimensionMismatchError("bound vectors must match the variable count")
        if len(rel) != b.shape[0]:
            raise DimensionMismatchError("one relation tag per row required")
        if bad := [t for t in rel if t not in (LE, EQ, GE)]:
            raise ValueError(f"unknown row tag {bad[0]!r}")
        if not np.isfinite(c).all():
            raise ValueError("objective must be finite")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("row data must be finite")
        if (v := self.vub) is not None:
            col, (a, g, h) = np.atleast_1d(np.array(v.col)), (
                np.atleast_1d(np.array(w, dtype=float)) for w in (v.a, v.g, v.h))
            if col.ndim != 1 or not a.shape == g.shape == h.shape == col.shape:
                raise DimensionMismatchError("block rows need one column, a, g and h each")
            if not np.isfinite(np.concatenate([a, g, h])).all():
                raise ValueError("row data must be finite")
            seen = np.zeros(n + 1, dtype=bool)  # entry n: a column out of range
            seen[np.where((col >= 0) & (col < n), col, n).astype(np.intp)] = True
            key = int(v.key)
            if (col.size and (col.dtype.kind not in "iu" or np.minimum.reduce(a) <= 0.0
                              or np.minimum.reduce(np.abs(g)) == 0.0)) or not (
                    key == v.key and 0 <= key < n and not seen[key] and not seen[n]
                    and np.count_nonzero(seen) == col.size):
                raise ValueError("block rows need integer columns, distinct, in range and "
                                 "not the key, a > 0 and g != 0")
            v = VubRows(key, col.astype(np.intp), a, g, h)
            for arr in v.col, a, g, h:
                arr.setflags(write=False)
            object.__setattr__(self, "vub", v)
        for name, arr in (("c", c), ("A", A), ("b", b), ("lower", lo), ("upper", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rel", rel)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b.shape[0] + (0 if self.vub is None else self.vub.col.shape[0])

    @property
    def rhs(self) -> np.ndarray:  # of every row: ``b``, then the block's ``h``
        return self.b if self.vub is None else np.concatenate([self.b, self.vub.h])

    def row_values(self, x: np.ndarray) -> np.ndarray:  # every row's left-hand side
        v = self.vub
        return self.A @ x if v is None else np.concatenate(
            [self.A @ x, v.a * x[v.col] + v.g * x[v.key]])

    def combine_rows(self, y: np.ndarray) -> np.ndarray:  # ``A'y`` over every row
        if (v := self.vub) is None:
            return self.A.T @ y
        k = self.b.shape[0]
        out = self.A.T @ y[:k]
        out[v.col] += v.a * y[k:]
        out[v.key] += v.g @ y[k:]
        return out


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility.

    ``row_mult`` combines the constraint rows (nonnegative on ``<=`` rows,
    nonpositive on ``>=`` rows, free on equalities), ``lower_mult`` and
    ``upper_mult`` are nonnegative weights on the finite variable bounds.
    The aggregate satisfies ``A'y - wL + wU = 0`` while the combined
    right-hand side ``y.b - wL.lower + wU.upper`` is negative (``A``, ``b``
    and ``y`` over every row, a declared block's last).  Normalized
    so the largest multiplier magnitude is one.
    """

    row_mult: np.ndarray
    lower_mult: np.ndarray
    upper_mult: np.ndarray

    def combination_residual(self, lp: LinearProgram) -> np.ndarray:
        return lp.combine_rows(self.row_mult) - self.lower_mult + self.upper_mult

    def combined_rhs(self, lp: LinearProgram) -> float:
        lo, hi = np.isfinite(lp.lower), np.isfinite(lp.upper)
        return float(self.row_mult @ lp.rhs - self.lower_mult[lo] @ lp.lower[lo]
                     + self.upper_mult[hi] @ lp.upper[hi])


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
# the bounded-variable tableau


class _Tableau:
    """Working tableau over the explicit rows; the declared block stays out.

    Rows 0 and 1 of ``T`` hold the reduced costs of the two phases, so a
    pivot updates them too; working row ``r`` has basic column ``basis[r]``
    with value, bounds and Bland order ``bv``, ``bl``, ``bh``, ``bo``.
    Columns: structural variables, a logical per explicit row, the shared
    artificial, then zero columns kept in reserve (``nc`` are live).  Per
    column: ``x`` (value when nonbasic), ``lo``, ``hi``, ``row_of`` (-1:
    nonbasic), ``dirn`` (+1/-1: may only rise/fall, 0: may not move),
    ``free`` (nonbasic and free) and ``order``.

    Implicit row ``i`` shares ``x_p``'s column with its slack ``v_i``: it
    holds ``x_p`` while the row is loose and ``v_i`` while it is tight; the
    other one is the basic representative.  ``loose`` maps each working row
    whose basic column is a loose row's ``x_p`` to that row.  Otherwise the
    representative is ``c - kk[i] key``, reaching a bound at key ``up[i]``
    (rising) or ``down[i]`` (falling).  A row with only the key left to
    represent it joins ``T`` for good, ``v_i`` in column ``spare[i]``, and
    its ``x_p`` becomes an ordinary column (``own`` -1).

    Block rows start loose, except those :func:`_crash` makes tight: their
    ``x_p`` is substituted in ``T`` at once, as ``switch`` does row by row.
    """

    def __init__(self, lp: LinearProgram, pivot_tol: float):
        self.pivot_tol, self.iterations = pivot_tol, 0
        A, b, n, vub = lp.A, lp.b, lp.n_vars, lp.vub
        rel = np.array(lp.rel, dtype="<U2")
        le, ge = rel == LE, rel == GE
        fin_lo, fin_hi = np.isfinite(lp.lower), np.isfinite(lp.upper)
        x0 = np.where(fin_lo, lp.lower, np.where(fin_hi, lp.upper, 0.0))
        nv, R, reserve, self.le, self.ge = 0, None, 0, le, ge  # masks kept for the checks
        if vub is not None:
            key, vp, va, vg, vh, k = vub.key, vub.col, vub.a, vub.g, vub.h, b.shape[0]
            self.le = np.concatenate([le, np.ones(vp.shape[0], dtype=bool)])
            self.ge = np.concatenate([ge, np.zeros(vp.shape[0], dtype=bool)])
            c = vh - va * x0[vp]
            ok = c - vg * x0[key] >= 0.0
            if not ok.all():  # a row the starting point violates joins the tableau
                bad = np.flatnonzero(~ok)
                rows = np.zeros((bad.size, n))
                rows[np.arange(bad.size), vp[bad]], rows[:, key] = va[bad], vg[bad]
                A, b, R = np.vstack([A, rows]), np.concatenate([b, vh[bad]]), np.r_[:k, k + bad]
                le, ge = self.le[R], self.ge[R]
                vp, va, vg, vh, c = vp[ok], va[ok], vg[ok], vh[ok], c[ok]
            # the program's rows that stay implicit
            self.vrows = slice(k, k + vp.shape[0]) if R is None else k + np.flatnonzero(ok)
            nv, reserve = vp.shape[0], 2
        self.nv, nr = nv, b.shape[0]
        ncols, cap = n + nr + 1, nr + 4
        if 8 * cap * ncols > _MAX_TABLEAU_BYTES:
            raise NumericalFailureError(
                f"LP too large for the dense kernel: a {nr} x {ncols} working tableau "
                f"exceeds {_MAX_TABLEAU_BYTES // 2 ** 20} MiB")
        width, cap = ncols + reserve, cap + reserve
        if nv:  # the crash: rows that start tight, their x_p moved to the row's bound
            bound = (vh - vg * x0[key]) / va
            P = _crash(A, b, le, ge, x0, vp, bound, fin_lo[vp] & (bound > x0[vp])
                       & (bound <= lp.upper[vp]))
            x0[vp[P]] = bound[P]
        # explicit rows, oriented so the logical is +1 and at a feasible level
        eq = ~(le | ge)
        resid = b - A @ x0
        o = np.where(ge | (eq & (resid < 0.0)), -1.0, 1.0)
        rho = o * resid
        lcol, neg = n + np.arange(nr), ~eq & (rho < 0.0)
        self.art = np.zeros(width, dtype=bool)
        self.art[lcol[eq]] = self.art[ncols - 1] = True
        self.T = T = np.zeros((cap, width))
        T[2:nr + 2, :n] = A * o[:, None]
        T[np.arange(2, nr + 2), lcol] = 1.0
        T[2:nr + 2, ncols - 1] = -neg.astype(float)
        T[0] = T[2:nr + 2][eq].sum(axis=0) - self.art  # artificials cost -1 in phase one
        T[1, :n] = lp.c
        self.n, self.nr, self.nr0, self.nc, self.o = n, nr, nr, ncols, o
        self.R = slice(0, nr) if R is None else R  # the program's rows that T holds
        self.x, self.lo, self.hi = np.zeros(width), np.zeros(width), np.full(width, math.inf)
        self.x[:n], self.lo[:n], self.hi[:n] = x0, lp.lower, lp.upper
        self.dirn, self.free = np.zeros(width), np.zeros(width, dtype=bool)
        self.dirn[:n] = np.where(x0 < lp.upper, 1.0, -1.0 * (x0 > lp.lower))
        self.free[:n] = ~(fin_lo | fin_hi)
        self.nfree = int(np.count_nonzero(self.free))
        self.order, self.row_of = np.arange(width), np.full(width, -1)
        self.row_of[lcol] = np.arange(2, nr + 2)
        self.basis, self.bo = np.full(cap, -1), np.zeros(cap, dtype=int)
        self.bv, self.bl, self.bh = np.zeros(cap), np.zeros(cap), np.full(cap, math.inf)
        self.basis[2:nr + 2] = self.bo[2:nr + 2] = lcol
        self.bv[2:nr + 2] = rho
        # implicit rows, state only if there are any; v_i is vbase + i in Bland's order
        self.vbase = ncols
        if nv:
            self.key, self.vp, self.va, self.vg, self.vh = key, vp, va, vg, vh
            self.plo, self.phi = lp.lower[vp], lp.upper[vp]
            # per row (p, a, g, h, lo, hi) as Python scalars, for the scalar updates
            self.rp, self.ra, self.rg, self.rh, self.rlo, self.rhi = (
                v.tolist() for v in (vp, va, vg, vh, self.plo, self.phi))
            self.own = np.full(width, -1)
            self.own[vp] = np.arange(nv)
            self.tight, self.spare, self.kk = np.zeros(nv, dtype=bool), np.full(nv, -1), vg.copy()
            gk, ak = np.abs(vg), np.abs(vg / va)
            self.kmax = max(float(gk.max()), float(ak.max()))
            self.kmin = min(float(gk.min()), float(ak.min()))  # |kk| is g or g / a
            self.loose = {}
            # the slack c - g key (g != 0) reaches 0 at key c / g
            self.up = np.where(vg > 0, c / vg, math.inf)
            self.down = np.where(vg < 0, c / vg, -math.inf)
            if P.size:  # crashed rows hold v_i at zero: x_p = (h - g key - v_i) / a
                p, kk = vp[P], vg[P] / va[P]
                T[:nr + 2, key] -= T[:nr + 2, p] @ kk
                T[:nr + 2, p] /= -va[P]
                self.tight[P], self.kk[P], self.dirn[p], self.order[p] = True, kk, 1.0, ncols + P
                self.x[p], self.lo[p], self.hi[p] = 0.0, 0.0, math.inf
                for i in P.tolist():
                    self.refresh(i)
        if neg.any():
            r = int(np.flatnonzero(neg)[np.argmin(rho[neg])])
            self.bv[2:nr + 2][neg] -= rho[r]
            self.bv[r + 2], self.x[ncols - 1] = 0.0, -rho[r]
            self.pivot(r + 2, ncols - 1)

    def row(self, i: int):  # (p, a, g, h, lo, hi) of implicit row i
        return self.rp[i], self.ra[i], self.rg[i], self.rh[i], self.rlo[i], self.rhi[i]

    def value(self, j: int) -> float:
        return self.bv[self.row_of[j]] if self.row_of[j] >= 0 else self.x[j]

    def refresh(self, i: int):
        """Recompute the key values at which implicit row ``i`` blocks."""
        p, a, g, h, lo, hi = self.row(i)
        if self.tight[i]:  # x_p = (h - g key) / a within its bounds
            c, k = h / a, g / a
        elif self.row_of[p] < 0:  # v = h - a x_p - g key >= 0
            c, k, lo, hi = h - a * self.x[p], g, 0.0, math.inf
        else:  # not moved by the key alone
            self.up[i], self.down[i] = math.inf, -math.inf
            return
        self.up[i], self.down[i] = (c - (lo if k > 0 else hi)) / k, (c - (hi if k > 0 else lo)) / k

    # -- basis changes --------------------------------------------------------

    def eliminate(self, r: int, j: int):
        """Row operations making column ``j`` the unit column of row ``r``, in
        blocks of rows whose temporaries stay under ``_BLOCK_BYTES``."""
        T = self.T[: self.nr + 2]
        T[r] /= T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        every = np.count_nonzero(col) * 2 >= col.size  # else only the rows col reaches
        size = max(1, _BLOCK_BYTES // (8 * T.shape[1]))
        if size >= col.size:  # one block: the update is computed before T changes
            np.subtract(T, col[:, None] * T[r], out=T,
                        where=True if every else (col != 0.0)[:, None])
        else:
            rows, pivot_row = col.nonzero()[0], T[r].copy()
            for s in range(0, col.size if every else rows.size, size):
                block = slice(s, s + size) if every else rows[s:s + size]
                T[block] -= col[block, None] * pivot_row
        T[:, j], T[r, j] = 0.0, 1.0

    def pivot(self, r: int, j: int, leaving: bool = True):
        """Column ``j``, at value ``x[j]``, becomes basic in row ``r``; the
        column basic there (if ``leaving``) rests at the value ``bv[r]``."""
        if leaving:
            out = self.basis[r]
            self.row_of[out], self.x[out] = -1, self.bv[r]
            if not self.art[out]:  # an artificial never returns
                self.release(out)
        self.eliminate(r, j)
        self.basis[r], self.row_of[j], self.dirn[j] = j, r, 0.0
        self.bv[r], self.bl[r] = self.x[j], self.lo[j]
        self.bh[r], self.bo[r] = self.hi[j], self.order[j]
        if self.nfree:
            self.nfree, self.free[j] = self.nfree - self.free[j], False
        if self.nv:  # an implicit row's shared column moved
            self.loose.pop(r, None)
            if (i := self.own[j]) >= 0:
                self.loose[r] = i
                self.refresh(i)
            if leaving and (i := self.own[out]) >= 0:
                self.refresh(i)
        self.iterations += 1

    def release(self, j: int):
        """Let nonbasic column ``j`` move off the bound it rests on."""
        self.dirn[j] = 1.0 if self.x[j] < self.hi[j] else -1.0 if self.x[j] > self.lo[j] else 0.0

    def switch(self, i: int, tight: bool, rest: float = 0.0):
        """Make implicit row ``i`` tight (``v_i`` takes the shared column,
        resting at zero) or loose (``x_p`` takes it back, resting at ``rest``),
        substituting ``x_p = (h - g key - v_i) / a`` in every row of ``T``.
        If the column is basic in row ``r`` of ``T``: tightening leaves ``r``
        without a basic column; loosening makes ``x_p`` basic there."""
        p, a, g, h, lo, hi = self.row(i)
        T, r, key = self.T[: self.nr + 2], self.row_of[p], self.key
        if r >= 0 and not tight:
            self.bv[r] = (h - g * self.value(key) - self.bv[r]) / a
        tau = T[:, p]
        T[:, key] -= (g / a if tight else g) * tau
        (np.divide if tight else np.multiply)(tau, -a, out=tau)
        if self.row_of[key] >= 0:
            self.eliminate(self.row_of[key], key)
        self.tight[i], self.kk[i] = tight, g / a if tight else g
        if tight:
            self.x[p], self.lo[p], self.hi[p], self.order[p] = 0.0, 0.0, math.inf, self.vbase + i
            if r >= 0:
                self.row_of[p] = -1
                del self.loose[r]
            self.dirn[p] = 1.0
            if self.nfree:
                self.nfree, self.free[p] = self.nfree - self.free[p], False
        else:
            self.lo[p], self.hi[p], self.order[p] = lo, hi, p
            if r >= 0:
                T[r] /= T[r, p]
                self.bl[r], self.bh[r], self.bo[r] = lo, hi, p
            else:
                self.x[p] = rest
                self.release(p)
        self.refresh(i)

    def make_explicit(self, i: int) -> int:
        """Move implicit row ``i`` into ``T`` for good, its slack in a new
        column and its representative basic; returns its row."""
        p, a, g, h, lo, hi = self.row(i)
        kv, key = self.value(self.key), self.key
        value = ((h - g * kv - self.x[p]) / a if self.tight[i]
                 else h - a * self.value(p) - g * kv)
        r, s = self.nr + 2, self.nc
        if r == self.T.shape[0] or s == self.T.shape[1]:
            self.grow(4)
        T = self.T
        T[:, s], self.nc, self.order[s], self.own[p] = 0.0, s + 1, self.vbase + i, -1
        if self.row_of[p] >= 0:
            self.loose.pop(self.row_of[p], None)
        rep = s
        if self.tight[i]:  # v_i moves to the new column, x_p takes its own back
            self.x[s], T[:, s], T[:, p] = self.x[p], T[:, p], 0.0
            self.release(s)
            self.lo[p], self.hi[p], self.order[p] = lo, hi, p
            self.dirn[p], rep = 0.0, p
        row = np.zeros(T.shape[1])
        row[p], row[key], row[s] = a, g, 1.0
        for j in (p, key):
            if self.row_of[j] >= 0:
                row -= row[j] * T[self.row_of[j]]
        T[r] = row / row[rep]
        self.basis[r], self.row_of[rep], self.nr, self.spare[i] = rep, r, self.nr + 1, s
        self.bv[r], self.bl[r] = value, self.lo[rep]
        self.bh[r], self.bo[r] = self.hi[rep], self.order[rep]
        self.up[i], self.down[i] = math.inf, -math.inf
        return r

    def grow(self, more: int):
        """Add ``more`` rows and columns of reserve to ``T`` and its arrays."""
        self.T = np.pad(self.T, ((0, more), (0, more)))
        for name, v in (("basis", -1), ("bo", 0), ("bv", 0.0), ("bl", 0.0), ("bh", math.inf),
                        ("x", 0.0), ("lo", 0.0), ("hi", math.inf), ("dirn", 0.0),
                        ("free", False), ("order", 0), ("row_of", -1), ("art", False),
                        ("own", -1)):
            arr = getattr(self, name)
            setattr(self, name, np.concatenate([arr, np.full(more, v, dtype=arr.dtype)]))

    # -- one iteration ----------------------------------------------------------

    def ratio(self, j: int, delta: float):
        """Step for column ``j`` moving in direction ``delta``, as ``(step,
        block, rb, rk)``: ``block`` is ``(kind, where, bound)`` for ``j``'s own
        bound ("flip"), row ``where`` of ``T`` ("row") or implicit row
        ``where`` ("imp"), or None; ``rb``, ``rk`` are the rates of the rows'
        basic columns and of the key.  Ties go to the first in Bland's order."""
        nr = self.nr
        rb = self.T[2:nr + 2, j] * -delta
        mag = np.abs(rb)
        floor = max(self.pivot_tol, _REL_PIVOT * float(np.maximum.reduce(mag, initial=0.0)))
        rk, best = 0.0, math.inf
        if self.nv:  # (order, rate, value, lo, hi, row) of the representatives that move
            # with more than the key: v = h - a x_p - g key of the loose rows whose x_p is
            # basic, then the row sharing j's column (mine)
            key, vbase, bv, mine = self.key, self.vbase, self.bv, self.own[j]
            rk = delta if key == j else rb[self.row_of[key] - 2] if self.row_of[key] >= 0 else 0.0
            kv = self.value(key)
            picks = [(vbase + i, -(self.ra[i] * rb[t - 2] + self.rg[i] * rk),
                      self.rh[i] - self.ra[i] * bv[t] - self.rg[i] * kv, 0.0, math.inf, i)
                     for t, i in self.loose.items()]
            if mine >= 0:
                p, a, g, h, lo, hi = self.row(mine)
                picks.append((p, -(g * rk + delta) / a, (h - g * kv - self.x[j]) / a, lo, hi, mine)
                             if self.tight[mine] else
                             (vbase + mine, -(a * delta + g * rk), h - a * self.x[j] - g * kv,
                              0.0, math.inf, mine))
            floor = max(floor, _REL_PIVOT * max([self.kmax * abs(rk)] + [abs(t[1]) for t in picks]))
            # (order, step, block) of the rows whose representative moves with more than the key
            picks = [(o, (e - v) / r, ("imp", i, e)) for o, r, v, lo, hi, i in picks
                     if abs(r) > floor for e in (hi if r > 0 else lo,)]
            best = min([best] + [t[1] for t in picks])
            if rk != 0.0:  # rows moved by the key alone stop at fixed key values
                drive = self.up if rk > 0 else self.down
                if self.kmin <= floor / abs(rk):
                    drive = np.where(np.abs(self.kk) > floor / abs(rk), drive, math.inf * rk)
                elif mine >= 0:
                    drive = drive.copy()
                if mine >= 0:
                    drive[mine] = math.inf * rk
                dk = float(np.minimum.reduce(drive) if rk > 0 else np.maximum.reduce(drive))
                best = min(best, (dk - kv) / rk)
        lim = np.where(rb > 0.0, self.bh[2:nr + 2], self.bl[2:nr + 2])
        room = np.empty(nr)
        room.fill(math.inf)
        np.divide(lim - self.bv[2:nr + 2], rb, out=room, where=mag > floor)
        edge = self.hi[j] if delta > 0.0 else self.lo[j]
        flip = (edge - self.x[j]) / delta
        best = min(float(np.minimum.reduce(room, initial=math.inf)), flip, best)
        if best == math.inf:
            return best, None, rb, rk
        tie = max(best, 0.0) + 1e-12 * (1.0 + abs(best))
        o, step, block = (self.order[j], flip, ("flip", j, edge)) if flip <= tie else (
            math.inf, 0.0, None)
        if (cand := (room <= tie).nonzero()[0]).size:
            c = int(cand[0] if cand.size == 1 else cand[self.bo[cand + 2].argmin()])
            if self.bo[c + 2] < o:
                o, step, block = self.bo[c + 2], room[c], ("row", c + 2, lim[c])
        if self.nv:
            for t in picks:
                if t[1] <= tie and t[0] < o:
                    o, step, block = t
            reach = kv + tie * rk
            if rk != 0.0 and (dk <= reach if rk > 0 else dk >= reach):
                # the row first in Bland's order that the key alone blocks
                cand = np.flatnonzero(drive <= reach if rk > 0 else drive >= reach)
                order = np.where(self.tight[cand], self.vp[cand], self.vbase + cand)
                if order[k := int(np.argmin(order))] < o:
                    c = int(cand[k])
                    lo, hi = (self.plo[c], self.phi[c]) if self.tight[c] else (0.0, math.inf)
                    o, step = order[k], (drive[c] - kv) / rk
                    block = ("imp", c, lo if self.kk[c] * rk > 0 else hi)
        return max(step, 0.0), block, rb, rk

    def run_phase(self, phase: int, dual_tol: float, max_iter: int) -> str:
        """Iterate on the reduced costs in row ``phase`` of ``T`` until no
        column improves; return a stop reason."""
        bland, stall, value = False, 0, 0.0
        while True:
            z = self.T[phase]
            gain = z * self.dirn
            if self.nfree:
                gain[self.free] = np.abs(z[self.free])
            idx = (gain > dual_tol).nonzero()[0] if bland else (int(gain.argmax()),)
            if not len(idx) or gain[idx[0]] <= dual_tol:
                return "optimal"
            j = int(idx[self.order[idx].argmin()]) if bland else idx[0]
            delta = 1.0 if z[j] > 0.0 else -1.0
            step, block, rb, rk = self.ratio(j, delta)
            if block is None:
                self.unbounded = (j, delta, rb, rk)
                return "unbounded"
            gained = step * gain[j]
            self.x[j] += delta * step
            self.bv[2:self.nr + 2] += step * rb
            i, (kind, where, hit) = self.own[j] if self.nv else -1, block
            mine = i >= 0
            if kind == "flip":
                self.x[j] = hit
                self.release(j)
                if mine:
                    self.refresh(i)
                self.iterations += 1
            elif kind == "imp" and mine and where == i:  # the two sharing j's column swap
                self.switch(i, not self.tight[i], hit)
                self.iterations += 1
            elif kind == "row" or not (self.tight[where] or self.row_of[self.vp[where]] < 0):
                r = where if kind == "row" else self.row_of[self.vp[where]]
                if kind == "row":
                    self.bv[r] = hit
                else:  # v reaches zero while x_p is basic in row r: x_p leaves T
                    self.switch(where, True)
                self.pivot(r, j, leaving=kind == "row")
                if mine and self.tight[i]:  # v entered T: x_p takes its row
                    self.switch(i, False)
            else:  # the key alone is left to represent the blocked row
                if mine and self.tight[i]:
                    self.make_explicit(i)
                    j = self.spare[i]
                r = self.make_explicit(where)
                self.bv[r] = hit
                self.pivot(r, j)
            if self.iterations > max_iter:
                return "iteration_limit"
            stall = stall + 1 if gained <= 1e-12 * (1.0 + abs(value)) else 0
            bland, value = bland or stall >= _STALL_LIMIT, value + gained

    # -- answers ----------------------------------------------------------------

    def values(self) -> np.ndarray:
        """Value of every column's variable; the shared column of a tight
        implicit row reads ``x_p``."""
        x = self.x.copy()
        x[self.basis[2:self.nr + 2]] = self.bv[2:self.nr + 2]
        if self.nv:
            p = self.vp[t := self.tight & (self.spare < 0)]
            x[p] = (self.vh[t] - self.vg[t] * self.value(self.key) - x[p]) / self.va[t]
        return x

    def duals(self, phase: int, lp: LinearProgram) -> np.ndarray:
        """Duals of the program's rows, read off their logical columns."""
        z, y, lcol = self.T[phase], np.zeros(lp.n_rows), slice(self.n, self.n + self.nr0)
        y[self.R] = self.o * ((-1.0 * self.art[lcol] if phase == 0 else 0.0) - z[lcol])
        if self.nv:
            vcol = np.where(self.spare >= 0, self.spare, self.vp)
            y[self.vrows] = np.where(self.tight | (self.spare >= 0), -z[vcol], 0.0)
        return y

    def ray(self) -> np.ndarray:
        """Improving direction of the structural variables, unbounded case."""
        j, delta, rb, rk = self.unbounded
        d = np.zeros(self.x.size)
        d[j] = delta
        d[self.basis[2:self.nr + 2]] = rb
        if self.nv:
            t, i = self.tight & (self.spare < 0), self.own[j]
            d[self.vp[t]] = -self.kk[t] * rk
            if i >= 0 and self.tight[i]:
                d[j] = -(self.vg[i] * rk + delta) / self.va[i]
        return d[: self.n]


def _crash(A, b, le, ge, x0, vp, bound, ok) -> np.ndarray:
    """Implicit rows to start tight: greedily the row, among ``ok``, whose
    ``x_p`` moving from ``x0`` to ``bound`` most lowers the total violation of
    the explicit rows (``|residual|`` on an equality), until no move lowers it."""
    cand = np.flatnonzero(ok)
    if not cand.size:
        return cand
    # the explicit rows as rows "<= 0", an equality twice (r and -r), so each
    # row's violation is max(r, 0); column j of D is candidate j - 1's change
    # of r, column 0 no move (first on a tie), and column j of S is r after it
    eq = np.flatnonzero(~(le | ge))
    rows = np.concatenate([np.arange(b.size), eq])
    s = np.concatenate([np.where(ge, -1.0, 1.0), np.full(eq.size, -1.0)])
    D = np.zeros((rows.size, cand.size + 1))
    D[:, 1:] = s[:, None] * A[rows[:, None], vp[cand]] * (bound - x0[vp])[cand]
    S, one, taken = (s * (A @ x0 - b)[rows])[:, None] + D, np.ones(rows.size), []
    while (j := int((one @ np.maximum(S, 0.0)).argmin())) > 0:
        taken.append(j - 1)
        S += D[:, j, None]
        S[:, j] = math.inf  # taken
    return cand[taken]


# ---------------------------------------------------------------------------
# solver


def solve(lp: LinearProgram, tol: float = DEFAULT_FEAS_TOL,
          pivot_tol: float = DEFAULT_PIVOT_TOL, max_iter: int | None = None) -> LpOutcome:
    """Solve the program; statuses are optimal / infeasible / unbounded.

    All certificates are re-verified on the original data before being
    returned; irrecoverable loss of precision yields a
    ``NUMERICAL_FAILURE`` outcome instead of an unverified answer.  A
    program too large for the kernel raises ``NumericalFailureError``.
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
    return solve(LinearProgram(np.zeros(n), A, tuple(rel), b, lower, upper), tol=tol)


def _solve_once(lp: LinearProgram, tol: float, pivot_tol: float,
                max_iter: int | None) -> LpOutcome:
    tb, scale = _Tableau(lp, pivot_tol), _data_scale(lp)
    vt = threshold(RESIDUAL, scale, tol)  # the acceptance threshold of every post-hoc check
    max_iter = 2000 + 20 * (tb.nr + tb.nc) if max_iter is None else max_iter

    def failure(message: str) -> LpOutcome:
        return LpOutcome(LpStatus.NUMERICAL_FAILURE, message=message, iterations=tb.iterations)

    if (tb.row_of[tb.art] >= 0).any():
        stop = tb.run_phase(0, tol, max_iter)
        if stop != "optimal":
            return failure("iteration limit reached in phase one" if stop == "iteration_limit"
                           else "phase one reported an unbounded direction")
        if float(np.sum(tb.values()[tb.art])) > tol * scale:
            y = tb.duals(0, lp)
            # phase one's reduced costs of the structural variables (x_p of a
            # tight row is basic) are -A'y: weights on the bounds they rest on
            z = tb.T[0, : tb.n].copy()
            if tb.nv:
                z[tb.vp[tb.tight & (tb.spare < 0)]] = 0.0
            wL = np.where(np.isfinite(lp.lower), np.maximum(-z, 0.0), 0.0)
            wU = np.where(np.isfinite(lp.upper), np.maximum(z, 0.0), 0.0)
            kappa = float(np.max(np.abs(np.concatenate([y, wL, wU])), initial=0.0))
            if kappa <= 0.0:
                return failure("empty infeasibility certificate")
            cert = FarkasCertificate(y / kappa, wL / kappa, wU / kappa)
            err = _check_farkas(lp, tb.le, tb.ge, cert, tol, vt)
            return failure(err) if err else LpOutcome(LpStatus.INFEASIBLE, farkas=cert,
                                                      iterations=tb.iterations)
    tb.hi[tb.art] = tb.bh[tb.row_of[tb.art & (tb.row_of >= 0)]] = 0.0  # artificials stay at 0
    stop = tb.run_phase(1, tol, max_iter)
    if stop == "iteration_limit":
        return failure("iteration limit reached in phase two")
    values = tb.values()
    x = values[: tb.n]
    if stop == "unbounded":
        ray = tb.ray()
        ray = ray / max(float(np.max(np.abs(ray))), 1e-300)
        err = _check_unbounded(lp, tb.le, tb.ge, x, ray, tol, vt)
        return failure(err) if err else LpOutcome(LpStatus.UNBOUNDED, x=x, ray=ray,
                                                  iterations=tb.iterations)
    # a basic artificial at a genuinely nonzero level means phase one lied
    if (np.abs(values[tb.art]) > tol * scale).any():
        return failure("artificial variable stuck at a nonzero level")
    value = float(lp.c @ x)
    y = tb.duals(1, lp)
    reduced = lp.c - lp.combine_rows(y)
    err = _check_optimal(lp, tb.le, tb.ge, x, y, reduced, value, vt)
    return failure(err) if err else LpOutcome(LpStatus.OPTIMAL, x=x, value=value, y=y,
                                              reduced_costs=reduced, iterations=tb.iterations)


# ---------------------------------------------------------------------------
# post-hoc verification


def _data_scale(lp: LinearProgram) -> float:
    """Largest coefficient, right-hand side or objective entry (at least 1):
    the scale of every acceptance threshold.  Variable bounds take no part,
    so a large bound loosens no check."""
    blk = lp.vub
    return max([1.0] + [max(np.maximum.reduce(v, axis=None), -np.minimum.reduce(v, axis=None))
                        for v in (lp.A, lp.b, lp.c) + (() if blk is None else (blk.a, blk.g, blk.h))
                        if v.size])


def _residuals(lp: LinearProgram, le, ge, x: np.ndarray, rhs: np.ndarray):
    """Largest row or bound violation at ``x`` (NaN if any), ``x - lower``, ``upper - x``."""
    d = lp.row_values(x) - rhs
    lo_gap, hi_gap = x - lp.lower, lp.upper - x
    rows = np.where(le, d, np.where(ge, -d, np.abs(d)))
    return float(np.concatenate([rows, -lo_gap, -hi_gap]).max(initial=0.0)), lo_gap, hi_gap


def _first(checks) -> str:
    """Message of the first failed ``(ok, message)`` check, or ""."""
    return next((message for ok, message in checks if not ok), "")


def _check_optimal(lp: LinearProgram, le, ge, x, y, r, value, vt) -> str:
    rhs = lp.rhs
    violation, lo_gap, hi_gap = _residuals(lp, le, ge, x, rhs)
    band = vt * np.maximum(1.0, np.abs(x))
    at_lo, at_hi = lo_gap <= band, hi_gap <= band
    wL = np.where(at_lo, np.maximum(-r, 0.0), 0.0)
    wU = np.where(at_hi, np.maximum(r, 0.0), 0.0)
    dual_value = (float(y @ rhs) - float(wL @ np.where(at_lo, lp.lower, 0.0))
                  + float(wU @ np.where(at_hi, lp.upper, 0.0)))
    least, most = (lambda v, where: np.minimum.reduce(v, where=where, initial=math.inf),
                   lambda v, where: np.maximum.reduce(v, where=where, initial=-math.inf))
    return _first([  # a NaN fails every check
        (violation <= vt, "optimal point violates a constraint beyond tolerance"),
        (least(y, le) >= -vt, "dual sign violated on a <= row"),
        (most(y, ge) <= vt, "dual sign violated on a >= row"),
        (most(r, at_lo & ~at_hi) <= vt, "reduced cost has the wrong sign at a lower bound"),
        (least(r, at_hi & ~at_lo) >= -vt, "reduced cost has the wrong sign at an upper bound"),
        (most(np.abs(r), ~(at_lo | at_hi)) <= vt, "nonzero reduced cost on an interior variable"),
        (abs(dual_value - value) <= vt * (1.0 + abs(value)),
         "primal and dual objective values disagree")])


def _check_unbounded(lp: LinearProgram, le, ge, x, ray, tol, vt) -> str:
    vals = lp.row_values(ray)
    return _first([
        (_residuals(lp, le, ge, x, lp.rhs)[0] <= vt, "unbounded case: the feasible point is not feasible"),
        (np.all(vals[le] <= vt), "ray leaves a <= row"),
        (np.all(vals[ge] >= -vt), "ray leaves a >= row"),
        (np.all(np.abs(vals[~(le | ge)]) <= vt), "ray leaves an equality row"),
        (np.all(ray[np.isfinite(lp.lower)] >= -vt), "ray leaves a lower bound"),
        (np.all(ray[np.isfinite(lp.upper)] <= vt), "ray leaves an upper bound"),
        (float(lp.c @ ray) > tol, "ray does not improve the objective")])


def _check_farkas(lp: LinearProgram, le, ge, cert: FarkasCertificate, tol, vt) -> str:
    res = cert.combination_residual(lp)
    return _first([
        (np.all(cert.row_mult[le] >= -vt), "Farkas multiplier negative on a <= row"),
        (np.all(cert.row_mult[ge] <= vt), "Farkas multiplier positive on a >= row"),
        (np.all(cert.lower_mult >= -vt) and np.all(cert.upper_mult >= -vt),
         "negative bound multiplier in Farkas certificate"),
        (np.all(cert.lower_mult[~np.isfinite(lp.lower)] <= vt),
         "Farkas certificate uses an infinite lower bound"),
        (np.all(cert.upper_mult[~np.isfinite(lp.upper)] <= vt),
         "Farkas certificate uses an infinite upper bound"),
        (float(np.max(np.abs(res), initial=0.0)) <= vt,
         "Farkas combination does not cancel the variables"),
        (cert.combined_rhs(lp) < -tol, "Farkas combined right-hand side is not negative")])
