"""Tangent/normal cone membership, decomposition, and truncation."""

import math

import numpy as np
import pytest

from slaterkit import (
    InfeasiblePointError,
    MeasureSpace,
    PreconditionError,
    Problem,
    closure_sequence,
    log_counterexample_model,
    lp_norm,
    normal_K_contains,
    pairing,
    radial_K_witness,
    sum_NK_NP_contains,
    tangent_K_contains,
    tangent_P_contains,
)
from slaterkit import oracles
from conftest import lattice_box, lattice_point


def _box(lower, upper, weights=None):
    lower = np.asarray(lower, dtype=float)
    w = np.ones(len(lower)) if weights is None else np.asarray(weights)
    return Problem(MeasureSpace(w), 2.0, lower,
                   np.asarray(upper, dtype=float), (), ())


class TestTangentK:
    """Sign pattern on active bounds."""

    def test_up_at_lower_free_elsewhere(self):
        prob = _box([0, 0], [1, 1])
        assert tangent_K_contains(prob, np.array([0.0, 0.5]),
                                  np.array([1.0, -5.0]))

    def test_down_at_lower_rejected(self):
        prob = _box([0, 0], [1, 1])
        assert not tangent_K_contains(prob, np.array([0.0, 0.5]),
                                      np.array([-1.0, 3.0]))

    def test_zero_direction(self):
        prob = _box([0, 0], [1, 1])
        assert tangent_K_contains(prob, np.array([0.0, 1.0]), np.zeros(2))

    def test_nan_point_rejected(self):
        prob = _box([0, 0], [1, 1])
        with pytest.raises(InfeasiblePointError):
            tangent_K_contains(prob, np.array([math.nan, 0.5]), np.zeros(2))


class TestNonFiniteDirection:
    """A NaN direction or functional passes every sign comparison, so it is
    refused."""

    @pytest.mark.parametrize("test", [tangent_K_contains, tangent_P_contains,
                                      radial_K_witness])
    def test_nan_direction_rejected(self, test):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       ((np.ones(2), 1.0),), ())
        with pytest.raises(PreconditionError, match="must be finite"):
            test(prob, np.array([0.0, 0.5]), np.array([math.nan, 0.0]))

    def test_nan_functional_rejected(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       ((np.array([1.0, 0.0]), 0.0),), ())
        xi = np.array([math.nan, 0.0])
        with pytest.raises(PreconditionError, match="must be finite"):
            sum_NK_NP_contains(prob, np.zeros(2), xi)
        with pytest.raises(PreconditionError, match="must be finite"):
            closure_sequence(prob, np.zeros(2), np.array([1.0, 0.0]), xi, 2.0)


class TestRadialWitness:
    """Largest step staying inside the box."""

    def test_step_to_upper(self):
        prob = _box([0], [1])
        assert radial_K_witness(prob, np.array([0.5]), np.array([1.0])) == 0.5

    def test_leaving_immediately(self):
        prob = _box([0], [1])
        assert radial_K_witness(prob, np.array([0.0]), np.array([-1.0])) is None

    def test_unbounded_ray(self):
        prob = _box([0], [math.inf])
        t0 = radial_K_witness(prob, np.array([0.0]), np.array([1.0]))
        assert t0 == math.inf


class TestNormalK:
    """Sign pattern of bound densities."""

    def test_nonpositive_at_lower(self):
        prob = _box([0, 0], [1, 1])
        assert normal_K_contains(prob, np.array([0.0, 0.5]),
                                 np.array([-2.0, 0.0]))

    def test_nonzero_on_free_atom_rejected(self):
        prob = _box([0, 0], [1, 1])
        assert not normal_K_contains(prob, np.array([0.0, 0.5]),
                                     np.array([0.0, 1.0]))

    def test_zero_density(self):
        prob = _box([0, 0], [1, 1])
        assert normal_K_contains(prob, np.array([0.0, 0.5]), np.zeros(2))


class TestTangentP:
    """Directions respecting active rows and all equalities."""

    def test_pinned_instance_inward(self):
        prob, xbar, _ = log_counterexample_model(2)
        assert tangent_P_contains(prob, xbar, np.array([-1.0, -1.0]))

    def test_pinned_instance_outward(self):
        prob, xbar, _ = log_counterexample_model(2)
        assert not tangent_P_contains(prob, xbar, np.array([1.0, 1.0]))

    def test_zero_direction(self):
        prob, xbar, _ = log_counterexample_model(2)
        assert tangent_P_contains(prob, xbar, np.zeros(2))


class TestSumMembership:
    """Decomposition into bound density plus constraint combination."""

    def test_pinned_instance_slope_itself(self):
        prob, xbar, _ = log_counterexample_model(2)
        res = sum_NK_NP_contains(prob, xbar, np.array([1.0, 1.0]))
        assert res.member
        assert abs(res.decomposition.alpha[0] - 1.0) <= 1e-9
        np.testing.assert_allclose(res.decomposition.zeta, 0.0, atol=1e-9)

    def test_pure_bound_density(self):
        prob, xbar, _ = log_counterexample_model(2)
        res = sum_NK_NP_contains(prob, xbar, np.array([-3.0, 0.0]))
        assert res.member
        assert abs(res.decomposition.alpha[0]) <= 1e-9
        np.testing.assert_allclose(res.decomposition.zeta, [-3.0, 0.0],
                                   atol=1e-9)

    def test_interior_point_fails_with_direction(self):
        prob = _box([0], [1])
        res = sum_NK_NP_contains(prob, np.array([0.5]), np.array([1.0]))
        assert not res.member
        np.testing.assert_allclose(res.direction, [1.0], atol=1e-12)
        assert pairing(prob.space, np.array([1.0]), res.direction) > 0

    def test_direction_is_tangent(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            weights = rng.integers(1, 3, size=m).astype(float)
            space = MeasureSpace(weights)
            lower, upper = lattice_box(rng, m)
            x = lattice_point(rng, lower, upper)
            g = rng.integers(-2, 3, size=m).astype(float)
            a = float(np.sum(g * x * weights))
            prob = Problem(space, 2.0, lower, upper, ((g, a),), ())
            xi = rng.integers(-2, 3, size=m).astype(float)
            res = sum_NK_NP_contains(prob, x, xi)
            if res.member:
                dec = res.decomposition
                back = dec.zeta + sum(w * prob.ineq[k][0]
                                      for k, w in dec.alpha.items())
                np.testing.assert_allclose(back, xi, atol=1e-7)
                assert all(w >= -1e-9 for w in dec.alpha.values())
            else:
                d = res.direction
                assert tangent_K_contains(prob, x, d, 1e-9)
                assert tangent_P_contains(prob, x, d, 1e-9)
                assert pairing(prob.space, xi, d) > 0


class TestPolarity:
    """Normal and tangent cones pair nonpositively."""

    def test_random_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            m = int(rng.integers(1, 5))
            prob = Problem(MeasureSpace(rng.integers(1, 3, size=m).astype(float)),
                           2.0, *lattice_box(rng, m))
            x = lattice_point(rng, prob.lower, prob.upper)
            at_lo = np.isfinite(prob.lower) & (x == prob.lower)
            at_hi = np.isfinite(prob.upper) & (x == prob.upper)
            zeta = np.zeros(m)
            h = np.zeros(m)
            for i in range(m):
                if at_lo[i] and at_hi[i]:
                    zeta[i] = float(rng.integers(-2, 3))
                elif at_lo[i]:
                    zeta[i] = -float(rng.integers(0, 3))
                    h[i] = float(rng.integers(0, 3))
                elif at_hi[i]:
                    zeta[i] = float(rng.integers(0, 3))
                    h[i] = -float(rng.integers(0, 3))
                else:
                    h[i] = float(rng.integers(-2, 3))
            assert normal_K_contains(prob, x, zeta)
            assert tangent_K_contains(prob, x, h)
            assert pairing(prob.space, zeta, h) <= 1e-12


class TestRadialTangentAgreement:
    """Polyhedral sets make the radial and tangent cones coincide."""

    def test_random_instances(self):
        rng = np.random.default_rng(78)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            prob = Problem(MeasureSpace(rng.integers(1, 3, size=m).astype(float)),
                           2.0, *lattice_box(rng, m))
            x = lattice_point(rng, prob.lower, prob.upper)
            h = rng.integers(-2, 3, size=m).astype(float)
            member = tangent_K_contains(prob, x, h)
            witness = radial_K_witness(prob, x, h)
            assert member == (witness is not None)


class TestIntersectionFormula:
    """Tangent cone of the intersection is the intersection of cones."""

    def test_against_exact_stepping(self):
        rng = np.random.default_rng(79)
        for _ in range(300):
            m = int(rng.integers(1, 4))
            weights = rng.integers(1, 3, size=m)
            space = MeasureSpace(weights.astype(float))
            lower, upper = lattice_box(rng, m)
            x = lattice_point(rng, lower, upper)
            g = rng.integers(-2, 3, size=m)
            a = int(np.sum(g * x.astype(int) * weights))
            prob = Problem(space, 2.0, lower, upper,
                           ((g.astype(float), float(a)),), ())
            d = rng.integers(-2, 3, size=m).astype(float)
            both = (tangent_K_contains(prob, x, d)
                    and tangent_P_contains(prob, x, d))
            direct = oracles.radial_member_exact(
                [int(v) for v in weights],
                [None if not math.isfinite(v) else int(v) for v in lower],
                [None if not math.isfinite(v) else int(v) for v in upper],
                [([int(v) for v in g], a)], [],
                [int(v) for v in x], [int(v) for v in d])
            assert both == direct


class TestClosureSequence:
    """Certificate-capped truncations of an unbounded density."""

    def _instance(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       ((np.array([1.0, 0.0]), 0.0),), ())
        return prob, np.zeros(2), np.array([1.0, 0.0])

    def test_clipped(self):
        prob, x, zeta = self._instance()
        out = closure_sequence(prob, x, zeta, np.array([5.0, 0.0]), 2.0)
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_converged(self):
        prob, x, zeta = self._instance()
        out = closure_sequence(prob, x, zeta, np.array([5.0, 0.0]), 10.0)
        np.testing.assert_array_equal(out, [5.0, 0.0])

    def test_zero_density(self):
        prob, x, zeta = self._instance()
        for k in (1.0, 4.0, 16.0):
            np.testing.assert_array_equal(
                closure_sequence(prob, x, zeta, np.zeros(2), k), [0.0, 0.0])

    def test_support_condition_enforced(self):
        prob, x, zeta = self._instance()
        with pytest.raises(PreconditionError):
            closure_sequence(prob, x, zeta, np.array([5.0, 1.0]), 2.0)

    def test_members_and_convergence(self):
        prob, xbar, _ = log_counterexample_model(8)
        from slaterkit import build_no_slater_certificate
        cert = build_no_slater_certificate(prob)
        xi = np.maximum(-_log_density(8), 0.0)
        dist = []
        for k in (1.0, 2.0, 4.0, 8.0, 16.0):
            xk = closure_sequence(prob, xbar, cert.zeta, xi, k)
            assert normal_K_contains(prob, xbar, xk - k * cert.zeta)
            res = sum_NK_NP_contains(prob, xbar, xk)
            assert res.member
            dist.append(lp_norm(prob.space, xk - xi, 2.0))
        assert all(a >= b - 1e-12 for a, b in zip(dist, dist[1:]))
        assert dist[-1] <= 1e-9


def _log_density(m):
    return np.log((2 * np.arange(1, m + 1) - 1) / (2.0 * m))
