"""Multiplier recovery, splitting, verification, descent certificates."""

import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from slaterkit import (
    DimensionMismatchError,
    InfeasiblePointError,
    InvalidGradientError,
    MeasureSpace,
    Multipliers,
    PreconditionError,
    Problem,
    QuadraticConstraint,
    load_point,
    load_problem,
    log_counterexample_model,
    normal_K_contains,
    pairing,
    recover_multipliers_linear,
    recover_multipliers_nonlinear,
    regions,
    split_zeta,
    tangent_K_contains,
    tangent_P_contains,
    validate_gradients,
    verify_stationarity,
)
from slaterkit import model, oracles
from conftest import anchored_problem

GOLDEN = Path(__file__).parent / "golden"


class TestRecoverLinear:
    """Decomposition of the negated slope at a feasible point."""

    def test_pinned_instance_exact_mass(self):
        prob, xbar, grad = log_counterexample_model(4)
        out = recover_multipliers_linear(prob, xbar, grad)
        assert out.status == "found"
        alpha = out.multipliers.alpha[0]
        assert alpha == pytest.approx(math.log(8), abs=1e-12)
        np.testing.assert_allclose(out.multipliers.zeta, -grad - alpha,
                                   atol=1e-9)
        assert np.all(out.multipliers.zeta <= 1e-12)

    def test_interior_zero_slope(self):
        prob = Problem(MeasureSpace(np.ones(1)), 2.0, np.zeros(1), np.ones(1),
                       (), ())
        out = recover_multipliers_linear(prob, np.array([0.5]), np.zeros(1))
        assert out.status == "found"
        np.testing.assert_array_equal(out.multipliers.zeta, [0.0])
        assert out.multipliers.alpha == {}

    def test_interior_nonzero_slope(self):
        prob = Problem(MeasureSpace(np.ones(1)), 2.0, np.zeros(1), np.ones(1),
                       (), ())
        out = recover_multipliers_linear(prob, np.array([0.5]),
                                         np.array([1.0]))
        assert out.status == "no_multipliers"
        np.testing.assert_allclose(out.direction, [-1.0], atol=1e-12)
        assert out.diagnostics["descent_rate"] < 0

    def test_infeasible_point_rejected(self):
        prob = Problem(MeasureSpace(np.ones(1)), 2.0, np.zeros(1), np.ones(1),
                       (), ())
        with pytest.raises(InfeasiblePointError):
            recover_multipliers_linear(prob, np.array([3.0]), np.zeros(1))

    def test_nan_slope_rejected(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       (), ())
        with pytest.raises(InvalidGradientError):
            recover_multipliers_linear(prob, np.full(2, 0.5),
                                       np.array([math.nan, 1.0]))

    @pytest.mark.parametrize("x, grad", [([0.5], [1.0, 1.0]), ([0.5, 0.5], [1.0]),
                                         ([0.5, 0.5], [1.0, 1.0, 1.0])])
    def test_wrong_length_rejected(self, x, grad):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       (), ())
        with pytest.raises(DimensionMismatchError):
            recover_multipliers_linear(prob, np.array(x), np.array(grad))

    def test_nonlinear_problem_rejected(self):
        sp = MeasureSpace(np.ones(1))
        con = QuadraticConstraint(sp, np.array([[2.0]]), np.zeros(1), -1.0)
        prob = Problem(sp, 2.0, np.zeros(1), np.ones(1), (), (), (con,))
        with pytest.raises(PreconditionError):
            recover_multipliers_linear(prob, np.zeros(1), np.zeros(1))

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(101)
        found = no_mult = 0
        for case in range(300):
            m = int(rng.integers(1, 5))
            prob, x = anchored_problem(rng, m, int(rng.integers(0, 3)),
                                       int(rng.integers(0, 2)))
            grad = rng.integers(-2, 3, size=m).astype(float)
            out = recover_multipliers_linear(prob, x, grad)
            expect = oracles.multiplier_feasibility_exact(
                [int(v) for v in prob.space.weights],
                [None if not math.isfinite(v) else int(v) for v in prob.lower],
                [None if not math.isfinite(v) else int(v) for v in prob.upper],
                [([int(v) for v in g], int(a)) for g, a in prob.ineq],
                [([int(v) for v in h], int(b)) for h, b in prob.eq],
                [int(v) for v in x], [int(v) for v in grad])
            assert (out.status == "found") == expect, f"case {case}"
            if out.status == "found":
                found += 1
                rep = verify_stationarity(prob, x, grad, out.multipliers)
                assert rep.residual_max <= 1e-8
                assert rep.sign_violation == 0.0
            else:
                no_mult += 1
                d = out.direction
                assert tangent_K_contains(prob, x, d, 1e-9)
                assert tangent_P_contains(prob, x, d, 1e-9)
                assert pairing(prob.space, grad, d) < 0
        assert found > 50 and no_mult > 50


class TestSplitZeta:
    """Nonnegative bound densities from a signed one."""

    def test_three_regions(self):
        prob = Problem(MeasureSpace(np.ones(3)), 2.0, np.zeros(3), np.ones(3),
                       (), ())
        za, zb = split_zeta(prob, np.array([0.0, 0.5, 1.0]),
                            np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(za, [2.0, 0.0, 0.0])
        np.testing.assert_array_equal(zb, [0.0, 0.0, 3.0])

    def test_zero(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       (), ())
        za, zb = split_zeta(prob, np.array([0.0, 1.0]), np.zeros(2))
        np.testing.assert_array_equal(za, [0.0, 0.0])
        np.testing.assert_array_equal(zb, [0.0, 0.0])

    def test_wrong_sign_rejected(self):
        prob = Problem(MeasureSpace(np.ones(1)), 2.0, np.zeros(1), np.ones(1),
                       (), ())
        with pytest.raises(PreconditionError):
            split_zeta(prob, np.zeros(1), np.array([5.0]))


class TestVerifyStationarity:
    """Residual reporting for candidate multiplier sets."""

    def test_recovered_multipliers_verify(self):
        prob, xbar, grad = log_counterexample_model(4)
        out = recover_multipliers_linear(prob, xbar, grad)
        rep = verify_stationarity(prob, xbar, grad, out.multipliers)
        assert rep.ok
        assert rep.residual_max <= 1e-9
        assert rep.complementarity_lower <= 1e-9
        assert rep.complementarity_ineq <= 1e-9

    def test_zero_case(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       (), ())
        mult = Multipliers(zeta=np.zeros(2), zeta_lower=np.zeros(2),
                           zeta_upper=np.zeros(2), alpha={},
                           beta=np.zeros(0), gamma={})
        rep = verify_stationarity(prob, np.full(2, 0.5), np.zeros(2), mult)
        assert rep.residual_max == 0.0 and rep.ok

    def test_perturbed_mass_shows_up_linearly(self):
        prob, xbar, grad = log_counterexample_model(4)
        out = recover_multipliers_linear(prob, xbar, grad)
        m = out.multipliers
        bumped = Multipliers(zeta=m.zeta, zeta_lower=m.zeta_lower,
                             zeta_upper=m.zeta_upper,
                             alpha={0: m.alpha[0] + 0.1}, beta=m.beta,
                             gamma={})
        rep = verify_stationarity(prob, xbar, grad, bumped)
        assert rep.residual_max == pytest.approx(0.1, abs=1e-12)
        assert not rep.ok


class TestOneActivityRule:
    """Every box sign test reads one partition of the point."""

    TOL = 1e-9

    def _case(self, rng):
        """Box with one-sided, two-sided, pinched and free atoms, a point on,
        near or off its bounds, and a signed density of size up to 1e3 with
        breaches either well inside or well outside ``TOL * max |zeta|``."""
        m = int(rng.integers(1, 7))
        tol = self.TOL
        lower, upper, x = np.empty(m), np.empty(m), np.empty(m)
        for i in range(m):
            lo = float(rng.integers(-2, 2))
            lower[i], upper[i] = [
                (lo, math.inf), (-math.inf, lo), (lo, lo + float(rng.integers(1, 3))),
                (lo, lo), (lo, lo + 0.5 * tol), (-math.inf, math.inf)][rng.integers(6)]
            lo, hi = lower[i], upper[i]
            anchors = [v for v in (lo, hi) if math.isfinite(v)] or [0.0]
            base = anchors[rng.integers(len(anchors))]
            x[i] = base + tol * rng.choice([0.0, 0.0, 0.5, -0.5, 3.0, -3.0, 1e6, -1e6])
            x[i] = min(max(x[i], lo - 0.5 * tol), hi + 0.5 * tol)
        zeta = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=m) * rng.choice([1.0, 30.0, 1e3])
        tiny = rng.random(m) < 0.4
        size = max(1.0, float(np.max(np.abs(zeta[~tiny]), initial=0.0)))
        zeta[tiny] = tol * size * rng.choice([-3.0, -0.3, 0.3, 3.0], size=int(tiny.sum()))
        prob = Problem(MeasureSpace(rng.integers(1, 3, size=m).astype(float)), 2.0,
                       lower, upper, (), ())
        return prob, x, zeta

    def test_sign_tests_agree(self):
        rng = np.random.default_rng(2023)
        tol = self.TOL
        verdicts = Counter()
        for case in range(400):
            prob, x, zeta = self._case(rng)
            member = normal_K_contains(prob, x, zeta, tol)
            try:
                split_zeta(prob, x, zeta, tol)
                splits = True
            except PreconditionError:
                splits = False
            mult = Multipliers(zeta=zeta, zeta_lower=np.zeros_like(zeta),
                               zeta_upper=np.zeros_like(zeta), alpha={},
                               beta=np.zeros(0))
            viol = verify_stationarity(prob, x, -zeta, mult, tol).sign_violation
            carried = dataclasses.replace(mult, _partition=regions(prob, x, tol))
            assert verify_stationarity(prob, x, -zeta, carried, tol).sign_violation == viol
            assert member == splits == (viol <= tol), f"case {case}"
            verdicts[member] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    def test_one_activity_pass_per_question(self, monkeypatch):
        prob, _ = load_problem(GOLDEN / "pinned.json")
        x = load_point(GOLDEN / "pinned_x.json")
        grad = load_point(GOLDEN / "pinned_grad.json")
        calls = Counter()
        for name in ("check_feasible", "bound_activity"):
            orig = getattr(model, name)

            def counting(*args, _name=name, _orig=orig, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            for mod in list(sys.modules.values()):
                if (mod.__name__.startswith("slaterkit")
                        and getattr(mod, name, None) is orig):
                    monkeypatch.setattr(mod, name, counting)
        out = recover_multipliers_linear(prob, x, grad)
        assert verify_stationarity(prob, x, grad, out.multipliers).ok
        assert calls == {"check_feasible": 1, "bound_activity": 1}


class TestNonlinearPath:
    """Smooth constraints behind the gradient and interior-point gates."""

    def _prob(self, lower, upper):
        sp = MeasureSpace(np.ones(1))
        con = QuadraticConstraint(sp, np.array([[2.0]]), np.zeros(1), -1.0)
        return Problem(sp, 2.0, np.asarray(lower, float),
                       np.asarray(upper, float), (), (), (con,))

    def test_unit_multiplier_exact(self):
        prob = self._prob([0.0], [2.0])
        out = recover_multipliers_nonlinear(prob, np.array([1.0]),
                                            np.array([-2.0]))
        assert out.status == "found"
        assert out.multipliers.gamma[0] == 1.0
        rep = verify_stationarity(prob, np.array([1.0]), np.array([-2.0]),
                                  out.multipliers)
        assert rep.ok

    def test_gate_failure_is_not_applicable(self):
        prob = self._prob([1.0], [2.0])
        out = recover_multipliers_nonlinear(prob, np.array([1.0]),
                                            np.array([-2.0]))
        assert out.status == "not_applicable"
        assert out.slater_report is not None
        assert not out.slater_report.found

    def test_corrupted_gradient_rejected(self):
        sp = MeasureSpace(np.ones(1))
        honest = QuadraticConstraint(sp, np.array([[2.0]]), np.zeros(1), -1.0)

        class Corrupted:
            def value(self, x):
                return honest.value(x)

            def grad(self, x):
                return 1.01 * honest.grad(x)

        prob = Problem(sp, 2.0, np.zeros(1), np.full(1, 2.0), (), (),
                       (Corrupted(),))
        with pytest.raises(InvalidGradientError):
            recover_multipliers_nonlinear(prob, np.array([1.0]),
                                          np.array([-2.0]))

    @pytest.mark.parametrize("x, grad", [([], [-2.0]), ([1.0], [-2.0, 0.0])])
    def test_wrong_length_rejected(self, x, grad):
        prob = self._prob([0.0], [2.0])
        with pytest.raises(DimensionMismatchError):
            recover_multipliers_nonlinear(prob, np.array(x), np.array(grad))

    def test_nan_slope_rejected(self):
        prob = self._prob([0.0], [2.0])
        with pytest.raises(InvalidGradientError):
            recover_multipliers_nonlinear(prob, np.array([1.0]),
                                          np.array([math.nan]))

    def test_validate_gradients_accepts_honest_slope(self):
        prob = self._prob([0.0], [2.0])
        validate_gradients(prob, np.array([1.0]))

    def test_one_slope_evaluation_per_constraint(self, monkeypatch):
        # the gradient gate, the linearized search, the decomposition and the
        # stationarity check all use the one slope evaluated at the base point
        prob, _ = load_problem(GOLDEN / "quad.json")
        x = load_point(GOLDEN / "quad_x.json")
        grad = load_point(GOLDEN / "quad_grad.json")
        calls = Counter()
        orig = QuadraticConstraint.grad

        def counting(con, point):
            calls[id(con)] += 1
            return orig(con, point)

        monkeypatch.setattr(QuadraticConstraint, "grad", counting)
        out = recover_multipliers_nonlinear(prob, x, grad)
        assert out.found and out.multipliers.gamma
        assert verify_stationarity(prob, x, grad, out.multipliers).ok
        assert sorted(calls.values()) == [1] * len(prob.nonlinear)
