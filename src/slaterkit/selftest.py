"""Bundled acceptance suite: nine numbered criteria, one line each.

Every criterion exercises a contract of this package against closed forms
or against the exact rational oracles, generates its own data from fixed
seeds, and enforces its own runtime budget where one is stated.  The suite
is shared verbatim by ``slaterkit selftest`` and the acceptance tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import cones, lp as lpmod, oracles
from .certificates import (
    build_bad_functional,
    build_no_slater_certificate,
    constant_control_model,
    log_counterexample_model,
    refinement_study,
)
from .errors import InvalidGradientError
from .kkt import (
    recover_multipliers_linear,
    recover_multipliers_nonlinear,
    validate_gradients,
    verify_stationarity,
)
from .model import (
    DEFAULT_TOL,
    MeasureSpace,
    Problem,
    QuadraticConstraint,
    conjugate_exponent,
    lp_norm,
    pairing,
)
from .preprocess import build_mfcq_system
from .slater import find_slater

__all__ = ["CriterionResult", "run", "format_line", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def format_line(res: CriterionResult) -> str:
    verdict = "PASS" if res.passed else "FAIL"
    return (f"criterion {res.number} {verdict} ({res.seconds:.2f} s) "
            f"{res.name}: {res.detail}")


class _Fail(Exception):
    """Criterion-internal assertion failure with a readable message."""


def _require(cond, msg: str):
    if not cond:
        raise _Fail(msg)


# ---------------------------------------------------------------------------
# criterion 1: certification on the log family

def _criterion_1(tol):
    t0 = time.perf_counter()
    for m in (4, 16, 64, 256):
        prob, xbar, _ = log_counterexample_model(m)
        report = find_slater(prob, tol)
        _require(not report.found, f"level {m}: interior point wrongly found")
        cert = build_no_slater_certificate(prob, xbar, tol,
                                           slater_report=report)
        _require(float(np.max(np.abs(cert.zeta - 1.0))) <= 1e-9,
                 f"level {m}: density differs from the constraint slope")
        _require(cert.sign_residual <= 1e-9,
                 f"level {m}: sign residual {cert.sign_residual:.3g}")
        _require(cert.combination_residual <= 1e-9,
                 f"level {m}: combination residual "
                 f"{cert.combination_residual:.3g}")
        _require(all(v >= -1e-9 for v in cert.lam.values()),
                 f"level {m}: negative inequality weight")
        _require(cones.normal_K_contains(prob, xbar, -cert.zeta, 1e-9),
                 f"level {m}: density fails the bound-side cone check")
    elapsed = time.perf_counter() - t0
    _require(elapsed < 1.0, f"took {elapsed:.2f} s, budget is 1 s")
    return (f"levels 4..256: no interior point, certificate equals the "
            f"constraint slope, residuals <= 1e-9")


# ---------------------------------------------------------------------------
# criterion 2: refinement divergence law

def _criterion_2(tol):
    t0 = time.perf_counter()
    levels = (4, 16, 64, 256, 1024, 4096)
    rep = refinement_study("log-counterexample", levels, tol)
    worst = 0.0
    for m, a in zip(rep.levels, rep.alpha):
        worst = max(worst, abs(a - math.log(2 * m)))
    _require(worst <= 1e-9,
             f"log family: worst deviation from log(2M) is {worst:.3g}")
    ctrl = refinement_study("constant-control", levels, tol)
    worst_c = max(abs(a - 1.0) for a in ctrl.alpha)
    _require(worst_c <= 1e-9,
             f"control family: worst deviation from 1 is {worst_c:.3g}")
    elapsed = time.perf_counter() - t0
    _require(elapsed < 10.0, f"took {elapsed:.2f} s, budget is 10 s")
    return (f"mass = log(2M) up to {worst:.2g} across {levels}, control "
            f"constant at 1 up to {worst_c:.2g}")


# ---------------------------------------------------------------------------
# criterion 3: multiplier recovery vs exact oracle

def _random_box(rng, m, strict=False):
    lower = np.empty(m)
    upper = np.empty(m)
    for i in range(m):
        lo = -math.inf if rng.random() < 0.2 else float(rng.integers(-2, 3))
        if rng.random() < 0.2:
            hi = math.inf
        elif math.isinf(lo):
            hi = float(rng.integers(-2, 3))
        else:
            gap = int(rng.integers(1, 3)) if strict else int(rng.integers(0, 3))
            hi = lo + gap
        lower[i], upper[i] = lo, hi
    return lower, upper


def _point_in_box(rng, lower, upper, stick=0.5):
    m = lower.size
    x = np.empty(m)
    for i in range(m):
        lo = max(lower[i], -2.0) if math.isfinite(lower[i]) else -2.0
        hi = min(upper[i], 2.0) if math.isfinite(upper[i]) else 2.0
        if lo > hi:
            lo = hi = lower[i] if math.isfinite(lower[i]) else upper[i]
        r = rng.random()
        if math.isfinite(lower[i]) and r < stick / 2:
            x[i] = lower[i]
        elif math.isfinite(upper[i]) and r < stick:
            x[i] = upper[i]
        else:
            x[i] = float(rng.integers(int(lo), int(hi) + 1))
    return x


def _anchored_rows(rng, space, x, n, m_eq, slacks=(0, 1)):
    ineq, eq = [], []
    for _ in range(n):
        g = rng.integers(-2, 3, size=space.size).astype(float)
        a = pairing(space, g, x) + float(rng.choice(slacks))
        ineq.append((g, a))
    for _ in range(m_eq):
        h = rng.integers(-2, 3, size=space.size).astype(float)
        eq.append((h, pairing(space, h, x)))
    return tuple(ineq), tuple(eq)


def _none_bounds(v):
    return [None if math.isinf(b) else int(b) for b in v]


def _criterion_3(tol):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260803)
    n_found = 0
    for case in range(1000):
        m = int(rng.integers(1, 5))
        weights = rng.integers(1, 3, size=m).astype(float)
        space = MeasureSpace(weights)
        lower, upper = _random_box(rng, m)
        x = _point_in_box(rng, lower, upper)
        ineq, eq = _anchored_rows(rng, space, x,
                                  int(rng.integers(0, 3)),
                                  int(rng.integers(0, 2)))
        grad = rng.integers(-2, 3, size=m).astype(float)
        prob = Problem(space, 2.0, lower, upper, ineq, eq)
        outcome = recover_multipliers_linear(prob, x, grad, tol)
        expected = oracles.multiplier_feasibility_exact(
            [int(w) for w in weights], _none_bounds(lower),
            _none_bounds(upper),
            [([int(v) for v in g], int(a)) for g, a in ineq],
            [([int(v) for v in h], int(b)) for h, b in eq],
            [int(v) for v in x], [int(v) for v in grad])
        _require(outcome.found == expected,
                 f"case {case}: solver says {outcome.status}, oracle says "
                 f"{'feasible' if expected else 'infeasible'}")
        if outcome.found:
            n_found += 1
            mult = outcome.multipliers
            rep = verify_stationarity(prob, x, grad, mult, tol)
            _require(rep.residual_max <= 1e-8,
                     f"case {case}: stationarity residual {rep.residual_max:.3g}")
            _require(all(v >= 0.0 for v in mult.alpha.values()),
                     f"case {case}: negative inequality multiplier")
            _require(rep.sign_violation == 0.0,
                     f"case {case}: sign violation {rep.sign_violation:.3g}")
        else:
            d = outcome.direction
            _require(cones.tangent_K_contains(prob, x, d, tol)
                     and cones.tangent_P_contains(prob, x, d, tol),
                     f"case {case}: descent direction leaves the tangent cone")
            _require(pairing(space, grad, d) < 0,
                     f"case {case}: direction does not descend")
    elapsed = time.perf_counter() - t0
    _require(elapsed < 60.0, f"took {elapsed:.2f} s, budget is 60 s")
    return (f"1000 cases match the exact oracle ({n_found} with multipliers); "
            f"residuals <= 1e-8, signs exact")


# ---------------------------------------------------------------------------
# criterion 4: interior point xor certificate

def _criterion_4(tol):
    rng = np.random.default_rng(20260804)
    n_found = 0
    for case in range(300):
        m = int(rng.integers(1, 5))
        weights = rng.integers(1, 3, size=m).astype(float)
        space = MeasureSpace(weights)
        lower, upper = _random_box(rng, m, strict=True)
        x = _point_in_box(rng, lower, upper)
        ineq, eq = _anchored_rows(rng, space, x,
                                  int(rng.integers(0, 3)),
                                  int(rng.integers(0, 2)))
        prob = Problem(space, 2.0, lower, upper, ineq, eq)
        report = find_slater(prob, tol)
        if report.found:
            n_found += 1
            pt = report.point
            _require((pt > prob.lower).all() and (pt < prob.upper).all(),
                     f"case {case}: reported interior point touches a bound")
            _require(all(pairing(space, g, pt) <= a + tol for g, a in ineq)
                     and all(abs(pairing(space, h, pt) - b) <= tol
                             for h, b in eq),
                     f"case {case}: reported interior point violates a row")
        else:
            cert = build_no_slater_certificate(prob, x, tol,
                                               slater_report=report)
            _require(abs(float(np.max(np.abs(cert.zeta))) - 1.0) <= 1e-12,
                     f"case {case}: certificate not normalized")
            _require(cert.max_residual <= 100 * tol,
                     f"case {case}: certificate residual "
                     f"{cert.max_residual:.3g}")
    return (f"300 cases: interior point found in {n_found}, certificate "
            f"built in {300 - n_found}, never both or neither")


# ---------------------------------------------------------------------------
# criterion 5: rewrite equivalence

def _criterion_5(tol):
    rng = np.random.default_rng(20260805)
    n_converted = 0
    for case in range(500):
        m = int(rng.integers(1, 4))
        weights = rng.integers(1, 3, size=m).astype(float)
        space = MeasureSpace(weights)
        x = rng.integers(-2, 3, size=m).astype(float)
        ineq, eq = [], []
        for _ in range(int(rng.integers(0, 3))):
            g = rng.integers(-2, 3, size=m).astype(float)
            slack = float(rng.choice([0, 0, 1, 2]))
            a = pairing(space, g, x) + slack
            ineq.append((g, a))
            # An opposite row turns the pair into an implicit equality; only
            # safe when the anchor point sits on the row (slack zero).
            if slack == 0.0 and rng.random() < 0.35:
                ineq.append((-g, -a))
        for _ in range(int(rng.integers(0, 3))):
            h = rng.integers(-2, 3, size=m).astype(float)
            eq.append((h, pairing(space, h, x)))
        prob = Problem(space, 2.0, np.full(m, -math.inf), np.full(m, math.inf),
                       tuple(ineq[:4]), tuple(eq))
        sys = build_mfcq_system(prob, tol)
        n_converted += sum(1 for v in sys.provenance.values() if v != "kept")

        pts = rng.integers(-6, 7, size=(200, m)).astype(float) / 2.0
        # membership in the original rows, all points at once (the data are
        # small integers and halves, so every pairing is exact)
        inside = (np.all(pts @ prob.G_w.T <= prob.a + tol, axis=1)
                  & np.all(np.abs(pts @ prob.H_w.T - prob.b) <= tol, axis=1))
        for row, orig in zip(pts, inside):
            _require(orig == sys.is_member(row, tol),
                     f"case {case}: original and rewritten membership differ")
        if sys.eq:
            rows = np.array([np.asarray(h, dtype=float) * weights
                             for h, _ in sys.eq])
            _require(np.linalg.matrix_rank(rows) == len(sys.eq),
                     f"case {case}: rewritten equalities are dependent")
        if sys.ineq:
            margin = min(a - pairing(space, g, sys.witness)
                         for g, a in sys.ineq)
            _require(margin > 1e-9,
                     f"case {case}: witness margin {margin:.3g}")
    return (f"500 systems x 200 points: membership agrees exactly; "
            f"{n_converted} inequalities converted or dropped; ranks full; "
            f"witness margins > 1e-9")


# ---------------------------------------------------------------------------
# criterion 6: cone property suite

def _criterion_6(tol):
    rng = np.random.default_rng(20260806)
    for case in range(1000):
        m = int(rng.integers(1, 5))
        space = MeasureSpace(rng.integers(1, 3, size=m).astype(float))
        lower, upper = _random_box(rng, m)
        x = _point_in_box(rng, lower, upper)
        prob = Problem(space, 2.0, lower, upper)
        at_lo = np.isfinite(lower) & (x == lower)
        at_hi = np.isfinite(upper) & (x == upper)
        zeta = np.zeros(m)
        h = np.zeros(m)
        for i in range(m):
            if at_lo[i] and at_hi[i]:
                zeta[i] = float(rng.integers(-2, 3))
                h[i] = 0.0
            elif at_lo[i]:
                zeta[i] = -float(rng.integers(0, 3))
                h[i] = float(rng.integers(0, 3))
            elif at_hi[i]:
                zeta[i] = float(rng.integers(0, 3))
                h[i] = -float(rng.integers(0, 3))
            else:
                zeta[i] = 0.0
                h[i] = float(rng.integers(-2, 3))
        _require(cones.normal_K_contains(prob, x, zeta, tol)
                 and cones.tangent_K_contains(prob, x, h, tol),
                 f"polarity case {case}: constructed pair rejected")
        _require(pairing(space, zeta, h) <= 1e-12,
                 f"polarity case {case}: positive pairing")

    for case in range(1000):
        m = int(rng.integers(1, 5))
        space = MeasureSpace(rng.integers(1, 3, size=m).astype(float))
        lower, upper = _random_box(rng, m)
        x = _point_in_box(rng, lower, upper)
        prob = Problem(space, 2.0, lower, upper)
        h = rng.integers(-2, 3, size=m).astype(float)
        member = cones.tangent_K_contains(prob, x, h, tol)
        witness = cones.radial_K_witness(prob, x, h)
        _require(member == (witness is not None),
                 f"radial case {case}: tangent and radial disagree")

    for case in range(1000):
        m = int(rng.integers(1, 4))
        weights = rng.integers(1, 3, size=m).astype(float)
        space = MeasureSpace(weights)
        lower, upper = _random_box(rng, m)
        x = _point_in_box(rng, lower, upper)
        ineq, eq = _anchored_rows(rng, space, x,
                                  int(rng.integers(0, 3)),
                                  int(rng.integers(0, 2)))
        prob = Problem(space, 2.0, lower, upper, ineq, eq)
        d = rng.integers(-2, 3, size=m).astype(float)
        formula = (cones.tangent_K_contains(prob, x, d, tol)
                   and cones.tangent_P_contains(prob, x, d, tol))
        direct = oracles.radial_member_exact(
            [int(w) for w in weights], _none_bounds(lower),
            _none_bounds(upper),
            [([int(v) for v in g], int(a)) for g, a in ineq],
            [([int(v) for v in h], int(b)) for h, b in eq],
            [int(v) for v in x], [int(v) for v in d])
        _require(formula == direct,
                 f"intersection case {case}: formula and direct test disagree")
    return ("polarity <= 1e-12, radial agrees with tangent, and the "
            "intersection formula matches direct stepping; 1000 cases each")


# ---------------------------------------------------------------------------
# criterion 7: closure sequence on the log family

def _criterion_7(tol):
    m = 64
    prob, xbar, _ = log_counterexample_model(m)
    cert = build_no_slater_certificate(prob, xbar, tol)
    xi = -build_bad_functional(prob, xbar, cert, "log")
    q = conjugate_exponent(prob.p)
    dists = []
    for k in (1, 2, 4, 8, 16):
        xi_k = cones.closure_sequence(prob, xbar, cert.zeta, xi, k, tol)
        res = cones.sum_NK_NP_contains(prob, xbar, xi_k, tol)
        _require(res.member, f"k={k}: truncation left the cone sum")
        _require(cones.normal_K_contains(prob, xbar, xi_k - k * cert.zeta, tol),
                 f"k={k}: shifted truncation leaves the bound cone")
        dists.append(lp_norm(prob.space, xi - xi_k, q))
    _require(dists[0] > 0.0, "first truncation already coincides; vacuous")
    for a, b in zip(dists, dists[1:]):
        _require(b <= a + 1e-12, "distances are not monotone")
    _require(dists[-1] <= 1e-9, f"final distance {dists[-1]:.3g} not zero")
    return (f"k in 1..16 all members of the cone sum; distance falls "
            f"{dists[0]:.3g} -> {dists[-1]:.3g} monotonically")


# ---------------------------------------------------------------------------
# criterion 8: smooth constraint path

class _CorruptedGradient:
    """Wraps a smooth constraint, inflating its slope by one percent."""

    def __init__(self, inner):
        self._inner = inner

    def value(self, x):
        return self._inner.value(x)

    def grad(self, x):
        return 1.01 * self._inner.grad(x)


def _criterion_8(tol):
    space = MeasureSpace(np.ones(1))
    quad = QuadraticConstraint(space, np.array([[2.0]]), np.zeros(1), -1.0)

    prob = Problem(space, 2.0, np.array([0.0]), np.array([2.0]),
                   nonlinear=(quad,))
    out = recover_multipliers_nonlinear(prob, np.array([1.0]),
                                        np.array([-2.0]), tol)
    _require(out.found, f"quadratic case: status {out.status}")
    gamma = out.multipliers.gamma.get(0)
    _require(gamma == 1.0, f"quadratic case: gamma = {gamma!r}, wanted 1.0")

    tight = Problem(space, 2.0, np.array([1.0]), np.array([2.0]),
                    nonlinear=(quad,))
    out2 = recover_multipliers_nonlinear(tight, np.array([1.0]),
                                         np.array([-2.0]), tol)
    _require(out2.status == "not_applicable",
             f"tight case: status {out2.status}, wanted not applicable")

    bad = Problem(space, 2.0, np.array([0.0]), np.array([2.0]),
                  nonlinear=(_CorruptedGradient(quad),))
    try:
        validate_gradients(bad, np.array([1.0]))
    except InvalidGradientError:
        pass
    else:
        raise _Fail("corrupted slope passed finite-difference validation")
    return ("gamma recovered exactly, guarded case reports not applicable, "
            "corrupted slope rejected")


# ---------------------------------------------------------------------------
# criterion 9: LP engine vs vertex enumeration

def _criterion_9(tol):
    rng = np.random.default_rng(20260809)
    counts = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for case in range(2000):
        nv = int(rng.integers(1, 4))
        nr = int(rng.integers(0, 5))
        A = rng.integers(-3, 4, size=(nr, nv)).astype(float)
        b = rng.integers(-3, 4, size=nr).astype(float)
        rel = tuple(rng.choice(["<=", "<=", "<=", "==", ">="])
                    for _ in range(nr))
        lower = np.empty(nv)
        upper = np.empty(nv)
        for j in range(nv):
            lo = -math.inf if rng.random() < 0.3 else float(rng.integers(-3, 4))
            hi = math.inf if rng.random() < 0.3 else float(rng.integers(-3, 4))
            if math.isinf(lo) and math.isinf(hi):
                lo = float(rng.integers(-3, 4))
            if lo > hi:
                lo, hi = hi, lo
            lower[j], upper[j] = lo, hi
        c = rng.integers(-3, 4, size=nv).astype(float)
        lp = lpmod.LinearProgram(c, A, rel, b, lower, upper)
        out = lpmod.solve(lp, tol=tol)
        status, value = oracles.lp_oracle_exact(
            [int(v) for v in c],
            [[int(v) for v in row] for row in A], rel,
            [int(v) for v in b],
            [None if math.isinf(v) else int(v) for v in lower],
            [None if math.isinf(v) else int(v) for v in upper])
        _require(out.status.value == status,
                 f"case {case}: solver {out.status.value}, oracle {status}")
        counts[status] += 1
        if status == "optimal":
            _require(abs(out.value - float(value)) <= 1e-9 * max(1.0, abs(float(value))),
                     f"case {case}: value {out.value} vs exact {float(value)}")
        if status == "infeasible":
            f = out.farkas
            _require(f is not None, f"case {case}: missing infeasibility ray")
            scale = max(1.0, float(np.max(np.abs(A), initial=0.0)),
                        float(np.max(np.abs(b), initial=0.0)))
            comb = f.combination_residual(lp)
            _require(float(np.max(np.abs(comb), initial=0.0)) <= 1e-6 * scale,
                     f"case {case}: ray does not annihilate the columns")
            _require(f.combined_rhs(lp) < 0,
                     f"case {case}: ray bound is not negative")
            for i in range(nr):
                if rel[i] == "<=":
                    _require(f.row_mult[i] >= -1e-9, f"case {case}: bad ray sign")
                elif rel[i] == ">=":
                    _require(f.row_mult[i] <= 1e-9, f"case {case}: bad ray sign")
    return (f"2000 LPs match exact enumeration "
            f"({counts['optimal']} optimal, {counts['infeasible']} infeasible, "
            f"{counts['unbounded']} unbounded); all rays verified")


CRITERIA = {
    1: (_criterion_1, "log-family certification"),
    2: (_criterion_2, "refinement divergence law"),
    3: (_criterion_3, "multiplier recovery vs exact oracle"),
    4: (_criterion_4, "interior point xor certificate"),
    5: (_criterion_5, "rewrite equivalence"),
    6: (_criterion_6, "cone property suite"),
    7: (_criterion_7, "closure sequence"),
    8: (_criterion_8, "smooth constraint path"),
    9: (_criterion_9, "LP engine vs vertex enumeration"),
}


def run(tol: float = DEFAULT_TOL, criteria=None, emit=None):
    """Run the acceptance suite; returns a list of CriterionResult.

    ``criteria`` restricts to a subset of criterion numbers; ``emit`` is
    called with one formatted line per criterion as results arrive.
    """
    wanted = sorted(CRITERIA) if criteria is None else sorted(set(criteria))
    results = []
    for num in wanted:
        if num not in CRITERIA:
            raise ValueError(f"unknown criterion {num}")
        fn, name = CRITERIA[num]
        t0 = time.perf_counter()
        try:
            detail = fn(tol)
            passed = True
        except _Fail as exc:
            detail, passed = str(exc), False
        except Exception as exc:  # honest failure, never a crash
            detail, passed = f"raised {type(exc).__name__}: {exc}", False
        res = CriterionResult(num, name, passed, detail,
                              time.perf_counter() - t0)
        if emit is not None:
            emit(format_line(res))
        results.append(res)
    return results
