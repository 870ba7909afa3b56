"""Tangent and normal cones of the box, the polyhedron, and their sum.

Membership tests work atom by atom.  For the box ``K`` the decisive data is
which bound is active at each atom; for the polyhedron ``P`` it is the set
of tight inequalities.  Membership of a functional in ``N_K + N_P`` is an
LP-feasibility question over the cone coefficients; its failure produces a
separating tangent direction out of the LP's infeasibility certificate.

A point outside the set it is tested in raises InfeasiblePointError, and a
non-finite direction, density or functional PreconditionError (README, "Inputs").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import (InfeasiblePointError, InvalidGradientError, NumericalFailureError,
                     PreconditionError)
from .model import (DEFAULT_TOL, Problem, RegionPartition, _as_vector, _box_violations,
                    _require_member, _row_violations, bound_activity, pairing, regions,
                    row_activity)
from .tolerances import SIGN, threshold, within

__all__ = [
    "Multipliers",
    "SumMembership",
    "tangent_K_contains",
    "radial_K_witness",
    "normal_K_contains",
    "tangent_P_contains",
    "sum_NK_NP_contains",
    "closure_sequence",
]


def _sign_residual(part: RegionPartition, zeta: np.ndarray) -> float:
    """Worst breach of the multiplier sign pattern: ``zeta <= 0`` where only
    the lower bound is active, ``>= 0`` where only the upper bound is, ``= 0``
    on free atoms, free on both bounds.  A certificate density has the
    opposite pattern: its residual is that of ``-zeta``.  NaN gives NaN."""
    return float(np.max(np.concatenate([
        zeta[part.lower_only], -zeta[part.upper_only], np.abs(zeta[part.free])]),
        initial=0.0))


def _sign_rows(part: RegionPartition) -> tuple[np.ndarray, tuple[str, ...]]:
    """The sign pattern as LP rows ``slopes . v  rel  rhs`` over the atoms not
    on both bounds: ``rhs - slopes . v`` is then a multiplier density, and
    ``slopes . v`` with ``rhs = 0`` a certificate density."""
    atoms = np.flatnonzero(~part.both)
    rel = np.where(part.lower_only, ">=", np.where(part.upper_only, "<=", "=="))[atoms]
    return atoms, tuple(rel.tolist())


def _split(part: RegionPartition, zeta: np.ndarray):
    """``zeta`` forced onto the multiplier sign pattern, and its nonnegative
    lower and upper parts (on both bounds the sign picks the side)."""
    out = zeta.copy()
    out[part.lower_only] = np.minimum(out[part.lower_only], 0.0)
    out[part.upper_only] = np.maximum(out[part.upper_only], 0.0)
    out[part.free] = 0.0
    lower = np.where(part.lower_only | part.both, np.maximum(-out, 0.0), 0.0)
    upper = np.where(part.upper_only | part.both, np.maximum(out, 0.0), 0.0)
    return out, lower, upper


def _box_partition(prob: Problem, x: np.ndarray, tol: float) -> RegionPartition:
    """Bound activity at a box point, with no constraint sets."""
    _require_member(_box_violations(prob, x, tol), "point")
    return RegionPartition(*bound_activity(prob, x, tol))


def tangent_K_contains(prob: Problem, x, h, tol: float = DEFAULT_TOL) -> bool:
    """Direction test for the box: h >= 0 where the lower bound is active,
    h <= 0 where the upper bound is active (within tol)."""
    x = _as_vector(x, prob.size, "x")
    h = _as_vector(h, prob.size, "h", nonfinite=PreconditionError)
    part = _box_partition(prob, x, tol)
    if np.any(h[part.lower_only | part.both] < -tol):
        return False
    return not np.any(h[part.upper_only | part.both] > tol)


def radial_K_witness(prob: Problem, x, h) -> float | None:
    """Largest t0 (possibly inf) with ``x + t h`` in the box for t in (0, t0].

    Returns None when no positive step stays inside.  The test is exact:
    an atom sitting on a bound with the step pointing outward fails.
    """
    x = _as_vector(x, prob.size, "x")
    h = _as_vector(h, prob.size, "h", nonfinite=PreconditionError)
    _require_member(_box_violations(prob, x, DEFAULT_TOL), "point")
    gap = np.where(h > 0.0, prob.upper - x, np.where(h < 0.0, x - prob.lower, math.inf))
    moving = gap < math.inf
    if np.any(gap[moving] <= 0.0):
        return None
    return float(np.min(gap[moving] / np.abs(h[moving]), initial=math.inf))


def normal_K_contains(prob: Problem, x, zeta, tol: float = DEFAULT_TOL) -> bool:
    """Sign test for the box normal cone: zeta <= 0 where only the lower
    bound is active, zeta = 0 on inactive atoms, zeta >= 0 where only the
    upper bound is active; atoms pinched by equal bounds are unconstrained.
    Activity is read at ``tol``, a sign breach at ``SIGN`` with scale
    ``max |zeta|`` (README, "Tolerances"), as in ``kkt.split_zeta``."""
    x = _as_vector(x, prob.size, "x")
    zeta = _as_vector(zeta, prob.size, "zeta", nonfinite=PreconditionError)
    return within(_sign_residual(_box_partition(prob, x, tol), zeta), SIGN,
                  float(np.max(np.abs(zeta))), tol)


def tangent_P_contains(prob: Problem, x, y, tol: float = DEFAULT_TOL) -> bool:
    """Direction test for the polyhedron: nonpositive pairing with every
    tight inequality, zero pairing with every equality (within tol).  The
    box is not tested, so a non-finite ``x`` is refused directly."""
    x = _as_vector(x, prob.size, "x", nonfinite=InfeasiblePointError)
    y = _as_vector(y, prob.size, "y", nonfinite=PreconditionError)
    _require_member(_row_violations(prob, x, tol), "point")
    active = row_activity(prob.G_w, prob.a, x, tol)
    if np.any(prob.G_w[active] @ y > tol):
        return False
    return not np.any(np.abs(prob.H_w @ y) > tol)


@dataclass(frozen=True)
class Multipliers:
    """A multiplier set: ``-grad f = zeta + sum alpha_i g_i + sum beta_j h_j
    + sum gamma_k e_k`` at one feasible point.

    ``zeta`` is the bound multiplier density (nonpositive where only the
    lower bound is active, nonnegative where only the upper bound is
    active, zero where neither is).  ``zeta_lower``/``zeta_upper`` split it
    into the two one-sided nonnegative densities.  ``alpha`` maps active
    inequality indices to nonnegative weights, ``beta`` carries one
    unrestricted weight per equality, and ``gamma`` maps active smooth
    constraint indices to nonnegative weights.  A recovered set keeps the
    partition of its point and the slopes there of the constraints in
    ``gamma``, which :func:`verify_stationarity` reads.
    """

    zeta: np.ndarray = field(repr=False)
    zeta_lower: np.ndarray = field(repr=False)
    zeta_upper: np.ndarray = field(repr=False)
    alpha: dict[int, float]
    beta: np.ndarray = field(repr=False)
    gamma: dict[int, float] = field(default_factory=dict)
    _partition: RegionPartition | None = field(default=None, repr=False, compare=False)
    _slopes: dict | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SumMembership:
    member: bool
    decomposition: Multipliers | None = None
    direction: np.ndarray | None = field(default=None, repr=False)


def decompose_into_normal_sum(prob: Problem, part: RegionPartition, xi: np.ndarray,
                              extra: list[np.ndarray] | None = None,
                              tol: float = DEFAULT_TOL):
    """Try to write ``xi = zeta + sum alpha g + sum beta h (+ sum gamma e)``.

    ``zeta`` must obey the box sign pattern of ``part``; alphas (over
    ``part.lin_active``) and gammas (over ``extra``, the slopes of the
    constraints ``part.nl_active`` in that order) are nonnegative, betas
    are free.  Among all representations the one minimizing the total
    multiplier mass ``sum alpha + sum |beta| + sum gamma`` is returned as
    ``(Multipliers, None)``, which makes the output canonical.  On failure
    returns ``(None, d)`` where ``d`` is a separating direction built from
    the LP's Farkas ray: it is tangent to box and polyhedron and pairs
    positively with ``xi``.  ``xi`` must be finite (PreconditionError), and
    so must each slope in ``extra`` (InvalidGradientError).
    """
    xi = _as_vector(xi, prob.size, "xi", nonfinite=PreconditionError)
    extra = [_as_vector(e, prob.size, f"extra[{i}]", nonfinite=InvalidGradientError)
             for i, e in enumerate(extra or [])]
    active = part.lin_active
    m_eq = prob.n_eq
    n_alpha, n_gamma = len(active), len(extra)
    nv = n_alpha + 2 * m_eq + n_gamma

    gens = ([prob.ineq[k][0] for k in active] + [h for h, _ in prob.eq]
            + [-h for h, _ in prob.eq] + extra)
    G = np.array(gens).T if gens else np.zeros((prob.size, 0))  # atoms x vars

    atoms, rel = _sign_rows(part)
    c = -np.ones(nv)  # maximize the negative total mass
    prog = lpmod.LinearProgram(c, G[atoms], rel, xi[atoms],
                               np.zeros(nv), np.full(nv, math.inf))
    out = lpmod.solve(prog, tol=tol)
    if out.status is lpmod.LpStatus.OPTIMAL:
        v = out.x
        zeta, lower, upper = _split(part, xi - (G @ v if nv else np.zeros(prob.size)))
        return Multipliers(
            zeta=zeta, zeta_lower=lower, zeta_upper=upper,
            alpha={k: float(v[t]) for t, k in enumerate(active)},
            beta=v[n_alpha:n_alpha + m_eq] - v[n_alpha + m_eq:n_alpha + 2 * m_eq],
            gamma={k: float(g) for k, g in zip(part.nl_active, v[n_alpha + 2 * m_eq:])},
            _partition=part, _slopes=dict(zip(part.nl_active, gens[n_alpha + 2 * m_eq:]))), None
    if out.status is lpmod.LpStatus.INFEASIBLE:
        lam = out.farkas.row_mult
        d = np.zeros(prob.size)
        d[atoms] = -lam / prob.space.weights[atoms]
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
    mult, d = decompose_into_normal_sum(prob, regions(prob, x, tol), xi, None, tol)
    if mult is None:
        return SumMembership(False, direction=d)
    return SumMembership(True, decomposition=mult)


def closure_sequence(prob: Problem, x, zeta_cert, xi, k: float,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """k-th member of the truncation sequence approximating ``xi``.

    Where the certificate is positive the result is ``min(xi, k * zeta)``,
    where negative ``max(xi, k * zeta)``, elsewhere zero.  Requires a
    certificate ``zeta_cert`` lying in ``N_P(x)`` with ``-zeta_cert`` in
    ``N_K(x)``, and ``xi`` vanishing wherever the certificate does; both
    must be finite.
    """
    zeta = _as_vector(zeta_cert, prob.size, "zeta_cert", nonfinite=PreconditionError)
    xi = _as_vector(xi, prob.size, "xi", nonfinite=PreconditionError)
    if not k >= 1:
        raise PreconditionError("the truncation index k must be at least 1")
    reg = regions(prob, x, tol)
    if not within(_sign_residual(reg, -zeta), SIGN, 1.0, tol):
        raise PreconditionError("certificate is not the negative of a box normal")
    if not _in_poly_normal(prob, zeta, reg.lin_active, tol):
        raise PreconditionError("certificate is not a polyhedron normal at x")
    zscale = threshold(SIGN, float(np.max(np.abs(zeta))), tol)
    zero = np.abs(zeta) <= zscale
    if np.any(np.abs(xi[zero]) > tol * np.maximum(1.0, np.abs(xi[zero]))):
        raise PreconditionError("xi must vanish wherever the certificate does")
    out = np.zeros(prob.size)
    pos = zeta > zscale
    neg = zeta < -zscale
    out[pos] = np.minimum(xi[pos], k * zeta[pos])
    out[neg] = np.maximum(xi[neg], k * zeta[neg])
    return out


def _in_poly_normal(prob: Problem, zeta, active, tol) -> bool:
    """Whether ``zeta = sum alpha g + sum beta h`` exactly, with ``alpha >= 0``
    over the ``active`` inequalities and ``beta`` free."""
    cols = [prob.ineq[k][0] for k in active] + [h for h, _ in prob.eq]
    if not cols:
        return float(np.max(np.abs(zeta))) <= tol
    lo = np.concatenate([np.zeros(len(active)), np.full(prob.n_eq, -math.inf)])
    out = lpmod.feasibility(np.array(cols).T, ("==",) * prob.size, zeta, lo,
                            np.full(len(cols), math.inf), tol=tol)
    return out.status is lpmod.LpStatus.OPTIMAL
