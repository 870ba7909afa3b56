"""Shared fixtures and generators for the test suite.

Random instances use integer lattice data (weights in {1, 2}, entries in
small integer ranges, half-integer sample points) so that residuals are
either exactly zero or at least one half; no tolerance-band ambiguity can
arise against the exact rational oracles.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from slaterkit import MeasureSpace, Problem
import slaterkit.lp

#: Problem files used by several test modules.
DATA = Path(__file__).parent / "data"


@pytest.fixture
def lp_calls(monkeypatch):
    """List that receives every LinearProgram passed to ``slaterkit.lp.solve``."""
    calls = []
    solve = slaterkit.lp.solve

    def counting(prog, *args, **kwargs):
        calls.append(prog)
        return solve(prog, *args, **kwargs)

    monkeypatch.setattr(slaterkit.lp, "solve", counting)
    return calls


@pytest.fixture
def unit_space():
    return MeasureSpace(np.ones(2))


@pytest.fixture
def half_space():
    return MeasureSpace(np.array([0.5, 0.5]))


def lattice_box(rng, m, strict=False):
    """Random integer box, about one fifth of the sides infinite."""
    lower = rng.integers(-2, 1, size=m).astype(float)
    gap = rng.integers(1 if strict else 0, 3, size=m).astype(float)
    upper = lower + gap
    for i in range(m):
        r = rng.random()
        if r < 0.1:
            lower[i] = -math.inf
        elif r < 0.2:
            upper[i] = math.inf
    return lower, upper


def lattice_point(rng, lower, upper, stick=0.5):
    """Integer point in the box, biased onto finite bounds."""
    m = len(lower)
    x = np.empty(m)
    for i in range(m):
        lo = lower[i] if math.isfinite(lower[i]) else -2.0
        hi = upper[i] if math.isfinite(upper[i]) else 2.0
        lo, hi = max(lo, -2.0), min(hi, 2.0)
        if lo > hi:
            lo = hi
        if rng.random() < stick:
            x[i] = lo if rng.random() < 0.5 else hi
        else:
            x[i] = float(rng.integers(int(lo), int(hi) + 1))
    return np.clip(x, lower, upper)


def anchored_problem(rng, m, n_ineq, n_eq, strict_box=False):
    """Problem with integer rows anchored at a feasible lattice point."""
    weights = rng.integers(1, 3, size=m).astype(float)
    space = MeasureSpace(weights)
    lower, upper = lattice_box(rng, m, strict=strict_box)
    x = lattice_point(rng, lower, upper)
    ineq, eq = [], []
    for _ in range(n_ineq):
        g = rng.integers(-2, 3, size=m).astype(float)
        slack = float(rng.choice([0, 0, 1]))
        ineq.append((g, float(np.sum(g * x * weights)) + slack))
    for _ in range(n_eq):
        h = rng.integers(-2, 3, size=m).astype(float)
        eq.append((h, float(np.sum(h * x * weights))))
    prob = Problem(space, 2.0, lower, upper, tuple(ineq), tuple(eq))
    return prob, x
