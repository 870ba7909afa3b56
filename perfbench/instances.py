"""Seeded box-and-linear instances with planted answers.

Everything here is plain numpy: an instance is raw arrays plus the truth
the generator planted, so the checkers never need the program to know
what the right answer is.  Rows use integer (lattice) coefficients and
atom weights in {1, 2}; a few entries are adjusted to make a pairing
vanish exactly, which keeps every planted identity exact up to rounding.

The planted construction for one instance:

* ``base`` is a feasible point; some atoms sit on a bound, the rest sit at
  an interior point ``inner`` of the box.
* ``d`` is a direction that is tangent at ``base``: it points from ``base``
  towards ``inner``.  Every active inequality is built with a
  nonpositive pairing against ``d`` and every equality with a zero
  pairing, so ``base + d`` is feasible.
* For an interior instance ``base + d = inner`` lies strictly inside the
  box, so a Slater point exists.  For a pinned instance one extra row is
  supported on a set ``S`` of bound-active atoms with the sign that pins
  them: every feasible point keeps those atoms on their bounds, so no
  Slater point exists; ``d`` vanishes on ``S``.
* An objective slope ``grad`` is planted either as
  ``-(zeta + sum alpha g + sum beta h)`` with ``zeta`` in the box normal
  cone and ``alpha >= 0`` (multipliers exist), or as ``-d`` (its pairing
  with the tangent direction ``d`` is negative, so none exist).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """Raw problem data and the truth planted by its generator.

    Rows follow the program's convention: ``sum_i g[i] x[i] w[i] <= a``.
    ``implicit`` lists inequality indices planted as implicit equalities
    (one side of an opposite-row pair); ``slack`` lists inequality indices
    with positive slack at a feasible point, which therefore cannot be
    implicit.
    """

    name: str
    weights: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ineq: tuple
    eq: tuple
    interior: bool
    base: np.ndarray
    grad: np.ndarray | None = None
    has_multipliers: bool | None = None
    implicit: frozenset = frozenset()
    slack: frozenset = frozenset()

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])


def wpair(w, g, x) -> float:
    """Weighted pairing ``sum g * x * w`` as the checkers recompute it."""
    return float(np.sum(np.asarray(g) * np.asarray(x) * w))


def lattice_box(rng, m, one_sided_share=0.0):
    """Integer two-sided box that never touches 0, with gaps 1 to 4.

    A box side at 0 puts zero right-hand sides into the margin LP, whose
    degenerate pivots trip the solver's stall rule on some instances and
    not others; excluding 0 keeps the pivot counts of one size together.
    With gaps of 1 and 2 only, the best margin is reached only at the box
    midpoint, which costs interior instances twice the pivots of pinned
    ones; wider gaps keep both kinds in one cluster of question times.
    ``one_sided_share`` of the atoms lose one side to infinity.
    """
    lo = rng.integers(1, 4, size=m).astype(float)
    hi = lo + rng.integers(1, 5, size=m)
    neg = rng.random(m) < 0.5
    lower = np.where(neg, -hi, lo)
    upper = np.where(neg, -lo, hi)
    if one_sided_share > 0:
        cut = rng.random(m) < one_sided_share
        up_side = rng.random(m) < 0.5
        upper = np.where(cut & up_side, math.inf, upper)
        lower = np.where(cut & ~up_side, -math.inf, lower)
    return lower, upper


def _inner_point(lower, upper):
    mid = np.where(np.isfinite(lower) & np.isfinite(upper), (lower + upper) / 2, 0.0)
    mid = np.where(np.isfinite(lower) & ~np.isfinite(upper), lower + 1.0, mid)
    return np.where(~np.isfinite(lower) & np.isfinite(upper), upper - 1.0, mid)


def _orthogonal_row(rng, w, d, m):
    """Random integer row adjusted at one atom so its pairing with ``d`` is 0."""
    h = rng.integers(-2, 3, size=m).astype(float)
    moving = np.nonzero(d != 0)[0]
    if moving.size:
        k = int(rng.choice(moving))
        rest = wpair(w, h, d) - h[k] * d[k] * w[k]
        h[k] = -rest / (d[k] * w[k])
    return h


def planted(rng, m, *, n_active, n_slack, n_eq=0, pinned=False,
            pin_share=0.4, kkt=None, one_sided_share=0.0):
    """One planted instance; see the module docstring for the construction.

    ``kkt`` is ``None``, ``"multipliers"`` or ``"refute"`` and decides the
    planted objective slope.  Pinned instances get no equalities: on pinned
    systems with equalities the certificate LP ends in a numerical failure
    on about one instance in fifteen thousand, on some seeds and not others,
    so the failed count of a run would not repeat.
    """
    w = rng.integers(1, 3, size=m).astype(float)
    lower, upper = lattice_box(rng, m, one_sided_share)
    inner = _inner_point(lower, upper)
    on = rng.random(m) < 0.5
    on[rng.choice(m, size=2, replace=False)] = True
    at_upper = np.where(np.isfinite(lower) & np.isfinite(upper),
                        rng.random(m) < 0.5, np.isfinite(upper))
    base = np.where(on, np.where(at_upper, upper, lower), inner)
    d = inner - base
    if pinned:
        on_idx = np.nonzero(on)[0]
        n_pin = min(on_idx.size - 1, max(1, int(round(pin_share * on_idx.size))))
        pin_set = np.sort(rng.choice(on_idx, size=n_pin, replace=False))
        d[pin_set] = 0.0

    ineq, slack, active = [], [], []
    for _ in range(n_active):
        g = rng.integers(-2, 3, size=m).astype(float)
        if wpair(w, g, d) > 0:
            g = -g
        active.append(len(ineq))
        ineq.append((g, wpair(w, g, base)))
    for _ in range(n_slack):
        g = rng.integers(-2, 3, size=m).astype(float)
        top = max(wpair(w, g, base), wpair(w, g, base + d))
        slack.append(len(ineq))
        ineq.append((g, top + 1.0))
    if pinned:
        g0 = np.zeros(m)
        g0[pin_set] = (np.where(at_upper[pin_set], -1.0, 1.0)
                       * rng.integers(1, 3, size=pin_set.size))
        active.append(len(ineq))
        ineq.append((g0, wpair(w, g0, base)))
    eq = []
    for _ in range(0 if pinned else n_eq):
        h = _orthogonal_row(rng, w, d, m)
        eq.append((h, wpair(w, h, base)))

    grad, has_mult = None, None
    if kkt == "multipliers":
        zeta = np.zeros(m)
        zeta[on] = np.where(at_upper[on], 1.0, -1.0) * rng.integers(0, 3, size=int(on.sum()))
        combo = zeta.copy()
        for i in active:
            combo += float(rng.integers(0, 3)) * ineq[i][0]
        for h, _ in eq:
            combo += float(rng.integers(-2, 3)) * h
        grad, has_mult = -combo, True
    elif kkt == "refute":
        grad, has_mult = -float(rng.integers(1, 3)) * d, False
    return Instance(
        name="lattice", weights=w, lower=lower, upper=upper, ineq=tuple(ineq),
        eq=tuple(eq), interior=not pinned, base=base, grad=grad,
        has_multipliers=has_mult, slack=frozenset(slack))


def log_counterexample(m) -> Instance:
    """The log family: pinned at 0, its certificate is zeta = 1."""
    w = np.full(m, 1.0 / m)
    grad = np.log((2 * np.arange(1, m + 1) - 1) / (2.0 * m))
    return Instance(
        name="log-counterexample", weights=w, lower=np.zeros(m),
        upper=np.full(m, math.inf), ineq=((np.ones(m), 0.0),), eq=(),
        interior=False, base=np.zeros(m), grad=grad, has_multipliers=True)


def rescaled_pinned_box(scale: float) -> Instance:
    """Box [0,1]^4 with sum x <= 0 on weights ``scale``: pinned at 0.

    Fixed data, independent of any seed.  With tiny weights the row's
    residuals fall under the program's absolute tolerances.
    """
    m = 4
    w = np.full(m, scale)
    return Instance(
        name=f"rescaled-pinned-{scale:g}", weights=w, lower=np.zeros(m),
        upper=np.ones(m), ineq=((np.ones(m), 0.0),), eq=(), interior=False,
        base=np.zeros(m), grad=-np.ones(m), has_multipliers=True)


def load(path) -> Instance:
    """Read an instance and its planted truth from JSON (``faults/*.json``).

    Bounds may be the strings ``"inf"`` and ``"-inf"``; ``implicit`` lists
    inequalities that hold with equality on the whole polyhedron.
    """
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    vec = lambda v: np.array([float(x) for x in v])
    rows = lambda rs: tuple((vec(g), float(a)) for g, a in rs)
    return Instance(
        name=d["name"], weights=vec(d["weights"]), lower=vec(d["lower"]),
        upper=vec(d["upper"]), ineq=rows(d["ineq"]), eq=rows(d["eq"]),
        interior=d["interior"], base=vec(d["base"]), grad=vec(d["grad"]),
        has_multipliers=d["has_multipliers"], implicit=frozenset(d["implicit"]),
        slack=frozenset(d["slack"]))
