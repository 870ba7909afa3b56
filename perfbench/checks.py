"""Answer checks made apart from the program.

Every check reads only the fields an answer returns (arrays, dicts,
report JSON) and recomputes what it needs from the instance's original
rows with plain numpy.  No function of the package is called here, so a
fault in the package cannot vouch for itself.  A failed check raises
:class:`CheckError` with a one-line reason.
"""

from __future__ import annotations

import math

import numpy as np

from instances import Instance, wpair

#: Residual allowed on a row, relative to the size of the row's terms.
ROW_RTOL = 1e-9
#: Allowed slip in a sign or identity of a density normalized to max 1.
DENSITY_TOL = 1e-7
#: Activity band for a bound or row at the base point.
ACTIVE_TOL = 1e-9


class CheckError(Exception):
    """An answer failed an independent check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _vector(values, m: int, name: str) -> np.ndarray:
    require(values is not None, f"{name} is missing")
    arr = np.asarray(values, dtype=float)
    require(arr.shape == (m,), f"{name} has shape {arr.shape}, expected ({m},)")
    require(bool(np.all(np.isfinite(arr))), f"{name} has non-finite entries")
    return arr


def row_residual(inst: Instance, g, a, x) -> float:
    """Row residual ``<g, x> - a`` divided by the size of its terms."""
    terms = np.asarray(g) * np.asarray(x) * inst.weights
    scale = float(np.sum(np.abs(terms))) + abs(a)
    resid = float(np.sum(terms)) - a
    return resid / scale if scale > 0 else resid


def _row_active(inst: Instance, g, a, x) -> bool:
    return abs(row_residual(inst, g, a, x)) <= ACTIVE_TOL


def satisfies_rows(inst: Instance, x, what: str) -> None:
    for i, (g, a) in enumerate(inst.ineq):
        r = row_residual(inst, g, a, x)
        require(r <= ROW_RTOL, f"{what} violates inequality {i} (relative {r:.3g})")
    for j, (h, b) in enumerate(inst.eq):
        r = row_residual(inst, h, b, x)
        require(abs(r) <= ROW_RTOL, f"{what} misses equality {j} (relative {r:.3g})")


def in_box(inst: Instance, x, what: str) -> None:
    band = ACTIVE_TOL * np.maximum(1.0, np.abs(x))
    require(bool(np.all(x >= inst.lower - band)) and bool(np.all(x <= inst.upper + band)),
            f"{what} leaves the box")


def bound_masks(inst: Instance, x):
    """(lower-only, upper-only, free) activity masks at ``x``."""
    band = ACTIVE_TOL * np.maximum(1.0, np.abs(x))
    at_lo = np.isfinite(inst.lower) & (np.abs(x - inst.lower) <= band)
    at_hi = np.isfinite(inst.upper) & (np.abs(x - inst.upper) <= band)
    return at_lo & ~at_hi, at_hi & ~at_lo, ~(at_lo | at_hi)


def slater_point(inst: Instance, x) -> None:
    """A found point: strictly inside the box and on the right of every row."""
    x = _vector(x, inst.size, "interior point")
    require(inst.interior, "an interior point was reported where the planted truth has none")
    require(bool(np.all(x > inst.lower)) and bool(np.all(x < inst.upper)),
            "interior point is not strictly inside the box")
    satisfies_rows(inst, x, "interior point")


def _row_of(inst: Instance, source) -> tuple:
    kind, idx = source
    return inst.ineq[idx] if kind == "ineq" else inst.eq[idx]


def certificate(inst: Instance, zeta, lam, mu, base, provenance, eq_sources) -> None:
    """A no-interior certificate, recomputed from the original rows.

    ``lam`` maps positions in the rewritten inequality list (the original
    inequalities whose provenance is ``"kept"``, in order) to weights;
    ``mu`` gives one weight per rewritten equality, whose original row
    ``eq_sources`` names.
    """
    require(not inst.interior, "a certificate was built where the planted truth has an interior point")
    m = inst.size
    zeta = _vector(zeta, m, "zeta")
    base = _vector(base, m, "base point")
    in_box(inst, base, "base point")
    satisfies_rows(inst, base, "base point")
    require(abs(float(np.max(np.abs(zeta))) - 1.0) <= 1e-12, "max |zeta| is not 1")

    lo_only, hi_only, free = bound_masks(inst, base)
    require(float(np.max(-zeta[lo_only], initial=0.0)) <= DENSITY_TOL,
            "zeta is negative where the lower bound is active")
    require(float(np.max(zeta[hi_only], initial=0.0)) <= DENSITY_TOL,
            "zeta is positive where the upper bound is active")
    require(float(np.max(np.abs(zeta[free]), initial=0.0)) <= DENSITY_TOL,
            "zeta is nonzero where no bound is active")

    kept = [i for i in range(len(inst.ineq)) if provenance[i] == "kept"]
    combo = np.zeros(m)
    for k, weight in lam.items():
        require(0 <= k < len(kept), f"lam index {k} names no kept inequality")
        require(weight >= -DENSITY_TOL, f"lam[{k}] is negative")
        g, a = inst.ineq[kept[k]]
        require(_row_active(inst, g, a, base), f"lam[{k}] weights an inactive row")
        combo += weight * np.asarray(g)
    mu = np.asarray(mu, dtype=float)
    require(mu.shape == (len(eq_sources),), "mu does not match the rewritten equalities")
    for weight, source in zip(mu, eq_sources):
        h, b = _row_of(inst, source)
        require(_row_active(inst, h, b, base), f"mu weights {source}, inactive at the base")
        combo += weight * np.asarray(h)
    gap = float(np.max(np.abs(zeta - combo)))
    require(gap <= DENSITY_TOL * max(1.0, float(np.max(np.abs(combo)))),
            f"zeta differs from sum lam g + sum mu h by {gap:.3g}")


def rewrite(inst: Instance, witness, witness_margin, provenance, eq_sources) -> None:
    """A rewritten system: the witness and the provenance against the plant."""
    m = inst.size
    witness = _vector(witness, m, "witness")
    require(sorted(provenance) == list(range(len(inst.ineq))),
            "provenance does not cover every inequality")
    satisfies_rows(inst, witness, "witness")
    kept = [i for i in range(len(inst.ineq)) if provenance[i] == "kept"]
    if kept:
        require(witness_margin > 0, "rewrite reports no strict slack")
    for i in kept:
        g, a = inst.ineq[i]
        require(wpair(inst.weights, g, witness) < a, f"witness is not strictly inside kept row {i}")
    for i in inst.implicit:
        require(provenance[i] != "kept", f"implicit row {i} was kept as an inequality")
    for i in inst.slack:
        require(provenance[i] == "kept", f"row {i} has slack somewhere but was converted")
    for kind, idx in eq_sources:
        require((kind == "eq" and 0 <= idx < len(inst.eq))
                or (kind == "ineq" and provenance.get(idx) == "converted"),
                f"equality source {(kind, idx)} is not an original or converted row")


def multipliers(inst: Instance, zeta, alpha, beta) -> None:
    """Recovered multipliers: stationarity recomputed from the original rows."""
    require(inst.has_multipliers, "multipliers were reported where the planted truth has none")
    m = inst.size
    zeta = _vector(zeta, m, "zeta")
    beta = np.asarray(beta, dtype=float)
    require(beta.shape == (len(inst.eq),), "beta does not match the equalities")
    base, grad = inst.base, inst.grad
    r = grad + zeta
    for i, weight in alpha.items():
        require(0 <= i < len(inst.ineq), f"alpha names no inequality {i}")
        require(weight >= -ACTIVE_TOL, f"alpha[{i}] is negative")
        g, a = inst.ineq[i]
        require(_row_active(inst, g, a, base), f"alpha[{i}] weights an inactive row")
        r = r + weight * np.asarray(g)
    for j, (h, _) in enumerate(inst.eq):
        r = r + beta[j] * np.asarray(h)
    scale = max(1.0, float(np.max(np.abs(grad))))
    worst = float(np.max(np.abs(r)))
    require(worst <= 1e-7 * scale, f"stationarity residual {worst:.3g}")
    lo_only, hi_only, free = bound_masks(inst, base)
    require(float(np.max(zeta[lo_only], initial=0.0)) <= ACTIVE_TOL * scale,
            "bound density is positive where only the lower bound is active")
    require(float(np.max(-zeta[hi_only], initial=0.0)) <= ACTIVE_TOL * scale,
            "bound density is negative where only the upper bound is active")
    require(float(np.max(np.abs(zeta[free]), initial=0.0)) <= ACTIVE_TOL * scale,
            "bound density is nonzero on a free atom")


def _direction_rate(inst: Instance, g, d) -> float:
    """Pairing ``<g, d>`` relative to the row's scale ``sum |g w| * max |d|``."""
    scale = float(np.sum(np.abs(np.asarray(g) * inst.weights))) * float(np.max(np.abs(d)))
    pair = wpair(inst.weights, g, d)
    return pair / scale if scale > 0 else pair


def refutation(inst: Instance, direction) -> None:
    """A refutation: a direction tangent to box and active rows that descends."""
    require(inst.has_multipliers is False, "no multipliers reported where the planted truth has some")
    d = _vector(direction, inst.size, "direction")
    require(float(np.max(np.abs(d))) > 0, "direction is zero")
    base = inst.base
    lo_only, hi_only, free = bound_masks(inst, base)
    both = ~(lo_only | hi_only | free)
    require(float(np.max(-d[lo_only | both], initial=0.0)) <= ACTIVE_TOL,
            "direction leaves the box through a lower bound")
    require(float(np.max(d[hi_only | both], initial=0.0)) <= ACTIVE_TOL,
            "direction leaves the box through an upper bound")
    for i, (g, a) in enumerate(inst.ineq):
        if _row_active(inst, g, a, base):
            require(_direction_rate(inst, g, d) <= ROW_RTOL,
                    f"direction leaves active inequality {i}")
    for j, (h, _) in enumerate(inst.eq):
        require(abs(_direction_rate(inst, h, d)) <= ROW_RTOL, f"direction leaves equality {j}")
    rate = _direction_rate(inst, inst.grad, d)
    require(rate < -ROW_RTOL, f"direction does not descend (relative rate {rate:.3g})")


def log_density(zeta) -> None:
    """The log family's certificate is the constraint slope itself: zeta = 1."""
    zeta = np.asarray(zeta, dtype=float)
    require(float(np.max(np.abs(zeta - 1.0))) <= 1e-9, "log certificate differs from zeta = 1")


def refinement(model: str, levels, alpha, residual) -> None:
    """Minimal mass per level: log(2M) for the log family, 1 for the control."""
    require(list(levels) == sorted(levels) and len(alpha) == len(levels),
            "refinement report does not match its levels")
    for lv, a, r in zip(levels, alpha, residual):
        want = math.log(2 * lv) if model == "log-counterexample" else 1.0
        require(abs(a - want) <= 1e-9 * max(1.0, want),
                f"level {lv}: mass {a:.17g}, closed form {want:.17g}")
        require(0 <= r <= 1e-9 * max(1.0, want), f"level {lv}: residual {r:.3g}")
