"""Core data model: pairings, norms, feasibility, and region partitions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slaterkit import (
    DimensionMismatchError,
    InfeasiblePointError,
    MeasureSpace,
    Problem,
    QuadraticConstraint,
    VoidProblemError,
    build_no_slater_certificate,
    check_feasible,
    conjugate_exponent,
    find_slater,
    log_counterexample_model,
    lp_norm,
    normal_K_contains,
    pairing,
    regions,
    tangent_K_contains,
)
from conftest import anchored_problem

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)


class TestMeasureSpace:
    """Weighted grids demand positive weights."""

    def test_weights_stored(self):
        sp = MeasureSpace(np.array([0.5, 1.5]))
        assert sp.size == 2
        np.testing.assert_array_equal(sp.weights, [0.5, 1.5])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(Exception):
            MeasureSpace(np.array([1.0, 0.0]))


class TestPairing:
    """Weighted dot product against the constraint representers."""

    def test_direct_definition(self):
        sp = MeasureSpace(np.array([0.5, 0.5]))
        assert pairing(sp, np.array([1.0, 1.0]), np.array([2.0, 4.0])) == 3.0

    def test_zero_argument(self):
        sp = MeasureSpace(np.array([0.5, 0.5]))
        assert pairing(sp, np.array([7.0, -3.0]), np.zeros(2)) == 0.0

    def test_total_mass_of_unit_interval(self):
        sp = MeasureSpace(np.full(4, 0.25))
        assert pairing(sp, np.ones(4), np.ones(4)) == 1.0

    def test_dimension_mismatch(self):
        sp = MeasureSpace(np.ones(2))
        with pytest.raises(DimensionMismatchError):
            pairing(sp, np.ones(3), np.ones(2))

    @given(st.lists(finite_floats, min_size=3, max_size=3),
           st.lists(finite_floats, min_size=3, max_size=3),
           st.lists(finite_floats, min_size=3, max_size=3),
           finite_floats, finite_floats)
    def test_bilinear_and_symmetric(self, g1, g2, x, s, t):
        sp = MeasureSpace(np.array([1.0, 2.0, 0.5]))
        g1, g2, x = np.array(g1), np.array(g2), np.array(x)
        lhs = pairing(sp, s * g1 + t * g2, x)
        rhs = s * pairing(sp, g1, x) + t * pairing(sp, g2, x)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
        assert pairing(sp, g1, x) == pairing(sp, x, g1)


class TestLpNorm:
    """Discrete weighted norms, including the sup norm."""

    def test_sup_norm(self):
        sp = MeasureSpace(np.array([0.5, 0.5]))
        assert lp_norm(sp, np.array([3.0, -4.0]), math.inf) == 4.0

    def test_two_norm_normalized(self):
        sp = MeasureSpace(np.array([0.5, 0.5]))
        assert lp_norm(sp, np.array([1.0, 1.0]), 2.0) == 1.0

    def test_one_norm(self):
        sp = MeasureSpace(np.array([0.5, 0.5]))
        assert lp_norm(sp, np.array([2.0, 0.0]), 1.0) == 1.0

    def test_zero_iff_zero(self):
        sp = MeasureSpace(np.array([1.0, 2.0]))
        assert lp_norm(sp, np.zeros(2), 2.0) == 0.0
        assert lp_norm(sp, np.array([0.0, 1e-12]), 2.0) > 0.0

    @given(st.lists(finite_floats, min_size=3, max_size=3),
           st.lists(finite_floats, min_size=3, max_size=3),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_hoelder(self, g, x, p):
        sp = MeasureSpace(np.array([0.5, 1.0, 2.0]))
        g, x = np.array(g), np.array(x)
        bound = lp_norm(sp, g, conjugate_exponent(p)) * lp_norm(sp, x, p)
        assert abs(pairing(sp, g, x)) <= bound + 1e-9 * (1 + bound)


class TestConjugateExponent:
    """p and p' pair up as usual."""

    def test_values(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0
        assert abs(conjugate_exponent(1.5) - 3.0) < 1e-12


class TestProblem:
    """Constraint container validation."""

    def test_void_box_rejected(self):
        sp = MeasureSpace(np.ones(1))
        with pytest.raises(VoidProblemError):
            Problem(sp, 2.0, np.array([1.0]), np.array([0.0]), (), ())

    def test_bad_exponent_rejected(self):
        sp = MeasureSpace(np.ones(1))
        with pytest.raises(Exception):
            Problem(sp, 0.5, np.zeros(1), np.ones(1), (), ())

    def test_row_length_checked(self):
        sp = MeasureSpace(np.ones(2))
        with pytest.raises(DimensionMismatchError):
            Problem(sp, 2.0, np.zeros(2), np.ones(2),
                    ((np.ones(3), 1.0),), ())


class TestQuadraticConstraint:
    """Weighted quadratic forms used for smooth constraints."""

    def test_unit_circle_form(self):
        sp = MeasureSpace(np.ones(1))
        con = QuadraticConstraint(sp, np.array([[2.0]]), np.zeros(1), -1.0)
        assert con.value(np.array([1.0])) == 0.0
        assert con.value(np.array([0.0])) == -1.0
        np.testing.assert_allclose(con.grad(np.array([1.0])), [2.0])

    def test_matrix_symmetrized(self):
        sp = MeasureSpace(np.ones(2))
        con = QuadraticConstraint(sp, np.array([[0.0, 2.0], [0.0, 0.0]]),
                                  np.zeros(2), 0.0)
        np.testing.assert_array_equal(con.Q, [[0.0, 1.0], [1.0, 0.0]])


class TestCheckFeasible:
    """Atom-wise and constraint-wise feasibility with violation report."""

    def test_pinned_instance_origin_feasible(self):
        prob, xbar, _ = log_counterexample_model(2)
        assert check_feasible(prob, xbar).feasible

    def test_pinned_instance_positive_point_infeasible(self):
        prob, _, _ = log_counterexample_model(2)
        rep = check_feasible(prob, np.array([0.1, 0.1]))
        assert not rep.feasible
        v = rep.violations[0]
        assert v.kind == "ineq" and v.index == 0
        assert abs(v.residual - 0.1) < 1e-12

    def test_box_interior(self):
        sp = MeasureSpace(np.ones(3))
        prob = Problem(sp, 2.0, np.zeros(3), np.ones(3), (), ())
        assert check_feasible(prob, np.full(3, 0.5)).feasible

    def test_monotone_in_tol(self):
        sp = MeasureSpace(np.ones(1))
        prob = Problem(sp, 2.0, np.zeros(1), np.ones(1), (), ())
        x = np.array([1.0 + 5e-7])
        assert not check_feasible(prob, x, 1e-9).feasible
        assert check_feasible(prob, x, 1e-6).feasible

    def test_nan_coordinate_is_a_violation(self):
        prob, _, _ = log_counterexample_model(2)
        rep = check_feasible(prob, np.array([math.nan, 0.0]))
        assert not rep.feasible
        assert {(v.kind, v.index) for v in rep.violations} == {
            ("lower", 0), ("upper", 0), ("ineq", 0)}
        free = Problem(MeasureSpace(np.ones(2)), 2.0, np.full(2, -math.inf),
                       np.full(2, math.inf), (), ((np.ones(2), 0.0),))
        rep = check_feasible(free, np.array([math.nan, 0.0]))
        assert [(v.kind, v.index) for v in rep.violations] == [
            ("lower", 0), ("upper", 0), ("eq", 0)]

    def test_matches_pairing_loop(self):
        # reference: the per-row pairing loop the matrix products replace
        rng = np.random.default_rng(11)
        for _ in range(200):
            prob, x = anchored_problem(rng, int(rng.integers(1, 7)),
                                       int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            for pt in (x, x + rng.normal(scale=0.5, size=prob.size)):
                expect = []
                for i, (g, a) in enumerate(prob.ineq):
                    if pairing(prob.space, g, pt) > a + 1e-9:
                        expect.append(("ineq", i, pairing(prob.space, g, pt) - a))
                for j, (h, b) in enumerate(prob.eq):
                    if abs(pairing(prob.space, h, pt) - b) > 1e-9:
                        expect.append(("eq", j, abs(pairing(prob.space, h, pt) - b)))
                got = [(v.kind, v.index, v.residual) for v in
                       check_feasible(prob, pt).violations if v.kind in ("ineq", "eq")]
                assert [e[:2] for e in expect] == [g[:2] for g in got]
                for e, g in zip(expect, got):
                    assert g[2] == pytest.approx(e[2], rel=1e-12, abs=1e-12)

    def test_weighted_rows_are_read_only_products(self):
        prob, _ = anchored_problem(np.random.default_rng(3), 4, 2, 1)
        for (g, a), row, rhs in zip(prob.ineq, prob.G_w, prob.a):
            assert np.array_equal(row, g * prob.space.weights) and rhs == a
        for (h, b), row, rhs in zip(prob.eq, prob.H_w, prob.b):
            assert np.array_equal(row, h * prob.space.weights) and rhs == b
        with pytest.raises(ValueError):
            prob.G_w[0, 0] = 1.0


class TestRegions:
    """Partition of atoms by active bounds, plus active constraint sets."""

    def test_three_way_partition(self):
        sp = MeasureSpace(np.ones(3))
        prob = Problem(sp, 2.0, np.zeros(3), np.ones(3), (), ())
        part = regions(prob, np.array([0.0, 0.5, 1.0]))
        assert part.idx_lower_active.tolist() == [0]
        assert part.idx_free.tolist() == [1]
        assert part.idx_upper_active.tolist() == [2]
        assert part.idx_both_active.size == 0

    def test_degenerate_bounds_are_both_active(self):
        sp = MeasureSpace(np.ones(1))
        prob = Problem(sp, 2.0, np.zeros(1), np.zeros(1), (), ())
        part = regions(prob, np.zeros(1))
        assert part.idx_both_active.tolist() == [0]

    def test_pinned_instance_all_lower_active(self):
        prob, xbar, _ = log_counterexample_model(4)
        part = regions(prob, xbar)
        assert part.idx_lower_active.tolist() == [0, 1, 2, 3]
        assert part.lin_active == (0,)

    def test_infeasible_point_rejected(self):
        sp = MeasureSpace(np.ones(1))
        prob = Problem(sp, 2.0, np.zeros(1), np.ones(1), (), ())
        with pytest.raises(InfeasiblePointError):
            regions(prob, np.array([2.0]))

    def test_partition_covers_all_atoms(self):
        rng = np.random.default_rng(7)
        from conftest import anchored_problem
        for _ in range(50):
            prob, x = anchored_problem(rng, int(rng.integers(1, 5)), 1, 1)
            part = regions(prob, x)
            all_idx = sorted(part.idx_both_active.tolist()
                             + part.idx_lower_active.tolist()
                             + part.idx_free.tolist()
                             + part.idx_upper_active.tolist())
            assert all_idx == list(range(prob.size))


class TestActivityRule:
    """regions, the box cone tests and the certificate sign pattern agree."""

    TOL = 1e-9

    def _pinned(self):
        # x0 - x2 <= -4 on the box [0,1] x [0,1] x [0,4] pins x0 at its lower
        # and x2 at its upper bound; atom 1 stays free
        return Problem(MeasureSpace(np.ones(3)), 2.0, np.zeros(3),
                       np.array([1.0, 1.0, 4.0]),
                       ((np.array([1.0, 0.0, -1.0]), -4.0),), ())

    def _certificate_sides(self, prob, x):
        cert = build_no_slater_certificate(prob, x, self.TOL,
                                           slater_report=find_slater(prob, self.TOL))
        return list(cert.support_positive), list(cert.support_negative)

    def test_points_just_outside_the_box(self):
        prob, tol = self._pinned(), self.TOL
        x = np.array([-0.5 * tol, 0.5, 4.0 + 0.5 * tol])
        part = regions(prob, x, tol)
        assert part.idx_lower_active.tolist() == [0]
        assert part.idx_upper_active.tolist() == [2]
        assert part.idx_free.tolist() == [1]
        assert part.lin_active == (0,)
        assert tangent_K_contains(prob, x, np.array([1.0, -1.0, -1.0]), tol)
        assert not tangent_K_contains(prob, x, np.array([-1.0, 0.0, 0.0]), tol)
        assert not tangent_K_contains(prob, x, np.array([0.0, 0.0, 1.0]), tol)
        assert normal_K_contains(prob, x, np.array([-1.0, 0.0, 1.0]), tol)
        for zeta in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]):
            assert not normal_K_contains(prob, x, np.array(zeta), tol)
        assert self._certificate_sides(prob, x) == ([0], [2])

    def test_certificate_base_point_far_below_a_bound(self):
        # The certificate accepts base points within 100 tol of the box.  At
        # 50 tol below the lower bound the atom still counts as lower-active,
        # as it does for regions at that looser tolerance.  Here
        # x0 + x1 <= 0.5 with x1 = 0.5 pins x0 at 0; the base point moves
        # along the row, so the row stays active.
        tol = self.TOL
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       ((np.ones(2), 0.5),), ((np.array([0.0, 1.0]), 0.5),))
        x = np.array([-50 * tol, 0.5 + 50 * tol])
        with pytest.raises(InfeasiblePointError):
            regions(prob, x, tol)
        part = regions(prob, x, 100 * tol)
        assert part.idx_lower_active.tolist() == [0]
        assert part.idx_free.tolist() == [1]
        assert self._certificate_sides(prob, x) == ([0], [])
