"""Tangent and normal cones of the box, the polyhedron, and their sum.

Membership tests work atom by atom.  For the box ``K`` the decisive data is
which bound is active at each atom; for the polyhedron ``P`` it is the set
of tight inequalities.  Membership of a functional in ``N_K + N_P`` is an
LP-feasibility question over the cone coefficients; its failure produces a
separating tangent direction out of the LP's infeasibility certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import InfeasiblePointError, NumericalFailureError, PreconditionError
from .model import DEFAULT_TOL, Problem, bound_activity, pairing, regions, row_activity

__all__ = [
    "Decomposition",
    "SumMembership",
    "tangent_K_contains",
    "radial_K_witness",
    "normal_K_contains",
    "tangent_P_contains",
    "sum_NK_NP_contains",
    "closure_sequence",
]


def _vec(prob: Problem, v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (prob.size,):
        raise PreconditionError(f"{name} must have length {prob.size}")
    return arr


def _require_in_box(prob: Problem, x: np.ndarray, tol: float):
    # written so that a NaN coordinate counts as outside
    if np.any(~(x >= prob.lower - tol) | ~(x <= prob.upper + tol)):
        raise InfeasiblePointError("point lies outside the box")


def _require_in_poly(prob: Problem, x: np.ndarray, tol: float):
    bad = np.nonzero(~(prob.G_w @ x <= prob.a + tol))[0]
    if bad.size:
        raise InfeasiblePointError(f"inequality {bad[0]} violated")
    bad = np.nonzero(~(np.abs(prob.H_w @ x - prob.b) <= tol))[0]
    if bad.size:
        raise InfeasiblePointError(f"equality {bad[0]} violated")


def tangent_K_contains(prob: Problem, x, h, tol: float = DEFAULT_TOL) -> bool:
    """Direction test for the box: h >= 0 where the lower bound is active,
    h <= 0 where the upper bound is active (within tol)."""
    x = _vec(prob, x, "x")
    h = _vec(prob, h, "h")
    _require_in_box(prob, x, tol)
    both, lower_only, upper_only, _ = bound_activity(prob, x, tol)
    if np.any(h[lower_only | both] < -tol):
        return False
    if np.any(h[upper_only | both] > tol):
        return False
    return True


def radial_K_witness(prob: Problem, x, h) -> float | None:
    """Largest t0 (possibly inf) with ``x + t h`` in the box for t in (0, t0].

    Returns None when no positive step stays inside.  The test is exact:
    an atom sitting on a bound with the step pointing outward fails.
    """
    x = _vec(prob, x, "x")
    h = _vec(prob, h, "h")
    _require_in_box(prob, x, DEFAULT_TOL)
    t0 = math.inf
    for i in range(prob.size):
        if h[i] > 0.0:
            gap = prob.upper[i] - x[i]
            if gap == math.inf:
                continue
            if gap <= 0.0:
                return None
            t0 = min(t0, gap / h[i])
        elif h[i] < 0.0:
            gap = x[i] - prob.lower[i]
            if gap == math.inf:
                continue
            if gap <= 0.0:
                return None
            t0 = min(t0, gap / (-h[i]))
    return t0


def normal_K_contains(prob: Problem, x, zeta, tol: float = DEFAULT_TOL) -> bool:
    """Sign test for the box normal cone: zeta <= 0 where only the lower
    bound is active, zeta = 0 on inactive atoms, zeta >= 0 where only the
    upper bound is active; atoms pinched by equal bounds are unconstrained."""
    x = _vec(prob, x, "x")
    zeta = _vec(prob, zeta, "zeta")
    _require_in_box(prob, x, tol)
    _, lower_only, upper_only, free = bound_activity(prob, x, tol)
    if np.any(zeta[lower_only] > tol):
        return False
    if np.any(zeta[upper_only] < -tol):
        return False
    if np.any(np.abs(zeta[free]) > tol):
        return False
    return True


def tangent_P_contains(prob: Problem, x, y, tol: float = DEFAULT_TOL) -> bool:
    """Direction test for the polyhedron: nonpositive pairing with every
    tight inequality, zero pairing with every equality (within tol)."""
    x = _vec(prob, x, "x")
    y = _vec(prob, y, "y")
    _require_in_poly(prob, x, tol)
    active = row_activity(prob.G_w, prob.a, x, tol)
    if np.any(prob.G_w[active] @ y > tol):
        return False
    return not np.any(np.abs(prob.H_w @ y) > tol)


@dataclass(frozen=True)
class Decomposition:
    """A functional split as ``zeta + sum alpha_i g_i + sum beta_j h_j``
    (plus optional smooth-gradient terms) with zeta in the box normal cone."""

    zeta: np.ndarray = field(repr=False)
    alpha: dict[int, float]
    beta: np.ndarray = field(repr=False)
    gamma: dict[int, float] | None = None


@dataclass(frozen=True)
class SumMembership:
    member: bool
    decomposition: Decomposition | None = None
    direction: np.ndarray | None = field(default=None, repr=False)


def _clamp_zeta(zeta: np.ndarray, masks) -> np.ndarray:
    """Force the exact sign pattern onto a numerically computed zeta."""
    both, lower_only, upper_only, free = masks
    out = zeta.copy()
    out[lower_only] = np.minimum(out[lower_only], 0.0)
    out[upper_only] = np.maximum(out[upper_only], 0.0)
    out[free] = 0.0
    return out


def decompose_into_normal_sum(prob: Problem, x: np.ndarray, xi: np.ndarray,
                              active_ineq, extra: list[np.ndarray] | None = None,
                              tol: float = DEFAULT_TOL):
    """Try to write ``xi = zeta + sum alpha g + sum beta h (+ sum gamma e)``.

    ``zeta`` must obey the box sign pattern at ``x``; alphas (over
    ``active_ineq``) and gammas (over ``extra``) are nonnegative, betas are
    free.  Among all representations the one minimizing the total
    multiplier mass ``sum alpha + sum |beta| + sum gamma`` is returned, which
    makes the output canonical.  On failure returns ``(None, d)`` where
    ``d`` is a separating direction built from the LP's Farkas ray: it is
    tangent to box and polyhedron and pairs positively with ``xi``.
    """
    extra = extra or []
    masks = bound_activity(prob, x, tol)
    both, lower_only, upper_only, free = masks
    active = sorted(active_ineq)
    m_eq = prob.n_eq
    n_alpha, n_gamma = len(active), len(extra)
    nv = n_alpha + 2 * m_eq + n_gamma

    gens = ([prob.ineq[k][0] for k in active] + [h for h, _ in prob.eq]
            + [-h for h, _ in prob.eq] + [np.asarray(e, dtype=float) for e in extra])
    G = np.array(gens).T if gens else np.zeros((prob.size, 0))  # atoms x vars

    # one row per atom not squeezed onto both bounds: zeta = xi - G v keeps
    # the box normal-cone sign
    atom_of_row = np.nonzero(~both)[0]
    rel = np.where(lower_only, ">=", np.where(upper_only, "<=", "=="))[atom_of_row]
    c = -np.ones(nv)  # maximize the negative total mass
    prog = lpmod.LinearProgram(c, G[atom_of_row], tuple(rel.tolist()), xi[atom_of_row],
                               np.zeros(nv), np.full(nv, math.inf))
    out = lpmod.solve(prog, tol=tol)
    if out.status is lpmod.LpStatus.OPTIMAL:
        v = out.x
        alpha = {k: float(v[t]) for t, k in enumerate(active)}
        beta = v[n_alpha:n_alpha + m_eq] - v[n_alpha + m_eq:n_alpha + 2 * m_eq]
        gamma = {t: float(v[n_alpha + 2 * m_eq + t]) for t in range(n_gamma)}
        zeta = _clamp_zeta(xi - (G @ v if nv else np.zeros(prob.size)), masks)
        return (alpha, beta, gamma, zeta), None
    if out.status is lpmod.LpStatus.INFEASIBLE:
        lam = out.farkas.row_mult
        d = np.zeros(prob.size)
        d[atom_of_row] = -lam / prob.space.weights[atom_of_row]
        nrm = float(np.max(np.abs(d)))
        if nrm <= 0.0:
            raise NumericalFailureError("empty separating direction")
        d = d / nrm
        if pairing(prob.space, xi, d) <= 0.0:
            raise NumericalFailureError("separating direction failed its pairing check")
        return None, d
    raise NumericalFailureError(f"membership LP ended with status {out.status.value}")


def sum_NK_NP_contains(prob: Problem, x, xi, tol: float = DEFAULT_TOL) -> SumMembership:
    """Decide membership of ``xi`` in ``N_K(x) + N_P(x)``.

    Returns a decomposition on success.  On failure the result carries a
    separating direction ``d`` with max-norm one that is tangent to both
    sets and pairs positively with ``xi``.
    """
    x = _vec(prob, x, "x")
    xi = _vec(prob, xi, "xi")
    reg = regions(prob, x, tol)
    got, d = decompose_into_normal_sum(prob, x, xi, reg.lin_active, None, tol)
    if got is None:
        return SumMembership(False, direction=d)
    alpha, beta, _, zeta = got
    return SumMembership(True, decomposition=Decomposition(zeta, alpha, beta))


def closure_sequence(prob: Problem, x, zeta_cert, xi, k: float,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """k-th member of the truncation sequence approximating ``xi``.

    Where the certificate is positive the result is ``min(xi, k * zeta)``,
    where negative ``max(xi, k * zeta)``, elsewhere zero.  Requires a
    certificate ``zeta_cert`` lying in ``N_P(x)`` with ``-zeta_cert`` in
    ``N_K(x)``, and ``xi`` vanishing wherever the certificate does.
    """
    x = _vec(prob, x, "x")
    zeta = _vec(prob, zeta_cert, "zeta_cert")
    xi = _vec(prob, xi, "xi")
    if not k >= 1:
        raise PreconditionError("the truncation index k must be at least 1")
    if not normal_K_contains(prob, x, -zeta, tol):
        raise PreconditionError("certificate is not the negative of a box normal")
    reg = regions(prob, x, tol)
    got, _ = _exact_poly_membership(prob, x, zeta, reg.lin_active, tol)
    if got is None:
        raise PreconditionError("certificate is not a polyhedron normal at x")
    zscale = tol * max(1.0, float(np.max(np.abs(zeta))))
    zero = np.abs(zeta) <= zscale
    if np.any(np.abs(xi[zero]) > tol * np.maximum(1.0, np.abs(xi[zero]))):
        raise PreconditionError("xi must vanish wherever the certificate does")
    out = np.zeros(prob.size)
    pos = zeta > zscale
    neg = zeta < -zscale
    out[pos] = np.minimum(xi[pos], k * zeta[pos])
    out[neg] = np.maximum(xi[neg], k * zeta[neg])
    return out


def _exact_poly_membership(prob: Problem, x, zeta, active_ineq, tol):
    """Feasibility of ``zeta = sum alpha g (active) + sum beta h`` exactly."""
    active = sorted(active_ineq)
    m_eq = prob.n_eq
    nv = len(active) + m_eq
    if nv == 0:
        ok = float(np.max(np.abs(zeta))) <= tol if zeta.size else True
        return (({}, np.zeros(0)), None) if ok else (None, None)
    cols = [prob.ineq[k][0] for k in active] + [prob.eq[j][0] for j in range(m_eq)]
    A = np.array(cols).T
    lo = np.concatenate([np.zeros(len(active)), np.full(m_eq, -math.inf)])
    hi = np.full(nv, math.inf)
    out = lpmod.feasibility(A, ("==",) * prob.size, zeta, lo, hi, tol=tol)
    if out.status is lpmod.LpStatus.OPTIMAL:
        alpha = {k: float(out.x[t]) for t, k in enumerate(active)}
        return ((alpha, out.x[len(active):]), None)
    return None, None
