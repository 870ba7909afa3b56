"""Interior point search, density nudge, blending, linearized variant."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from slaterkit import (
    ConstructionFailedError,
    InfeasiblePointError,
    MeasureSpace,
    NumericalFailureError,
    PreconditionError,
    Problem,
    QuadraticConstraint,
    check_feasible,
    combine_slater,
    density_construction,
    find_linearized_slater,
    find_slater,
    log_counterexample_model,
    build_no_slater_certificate,
    lp_norm,
    pairing,
)
from slaterkit import lp
from conftest import anchored_problem


def _prob(weights, lower, upper, ineq=(), eq=(), nonlinear=()):
    return Problem(MeasureSpace(np.asarray(weights, float)), 2.0,
                   np.asarray(lower, float), np.asarray(upper, float),
                   tuple(ineq), tuple(eq), tuple(nonlinear))


class TestFindSlater:
    """Margin maximization over box and linear rows."""

    def test_symmetric_equality_instance(self):
        prob = _prob([0.5, 0.5], [0, 0], [1, 1],
                     eq=[(np.ones(2), 0.5)])
        rep = find_slater(prob)
        assert rep.found
        np.testing.assert_allclose(rep.point, [0.5, 0.5], atol=1e-9)
        assert abs(rep.margin - 0.5) <= 1e-9

    def test_pinned_instance_not_found(self):
        prob, _, _ = log_counterexample_model(4)
        rep = find_slater(prob)
        assert not rep.found
        assert rep.feasible_point is not None

    def test_degenerate_bounds_not_found(self):
        prob = _prob([1.0, 1.0], [0, 0], [0, 1])
        rep = find_slater(prob)
        assert not rep.found
        assert rep.diagnostics.get("pinched_atoms") == [0]

    def test_found_point_is_strict(self):
        rng = np.random.default_rng(91)
        found = 0
        for _ in range(200):
            prob, _ = anchored_problem(rng, int(rng.integers(1, 5)),
                                       int(rng.integers(0, 3)),
                                       int(rng.integers(0, 2)))
            rep = find_slater(prob)
            if not rep.found:
                continue
            found += 1
            x = rep.point
            assert np.all(x > prob.lower) and np.all(x < prob.upper)
            for g, a in prob.ineq:
                assert pairing(prob.space, g, x) <= a + 1e-9
            for h, b in prob.eq:
                assert abs(pairing(prob.space, h, x) - b) <= 1e-9
            assert rep.margin > 1e-9
        assert found > 50

    def test_equivalent_rescaling_keeps_outcome(self):
        # Scaling the weights and the right-hand sides together leaves the
        # feasible set unchanged, so status and point must not move.
        rng = np.random.default_rng(92)
        for _ in range(50):
            prob, _ = anchored_problem(rng, int(rng.integers(1, 4)),
                                       int(rng.integers(0, 3)),
                                       int(rng.integers(0, 2)))
            c = float(rng.choice([0.5, 2.0, 4.0]))
            scaled = Problem(
                MeasureSpace(prob.space.weights * c), prob.p,
                prob.lower, prob.upper,
                tuple((g, a * c) for g, a in prob.ineq),
                tuple((h, b * c) for h, b in prob.eq))
            rep = find_slater(prob)
            rep_c = find_slater(scaled)
            assert rep.found == rep_c.found
            if rep.found:
                np.testing.assert_allclose(rep.point, rep_c.point, atol=1e-9)


def _reference_lp(prob, extra=()):
    """The margin LP in (x, t), one row per finite box side: maximize t
    s.t. lo + s t <= x <= hi - s t, the weighted rows, and the extra rows
    ``row.x + sv t <= rhs`` given as ``(row, sv, rhs)``, with 0 <= t <= 1."""
    m, w = prob.size, prob.space.weights
    lo, hi = prob.lower, prob.upper
    s = np.ones(m)
    rows, rel, rhs = [], [], []

    def add(coef, t_coef, tag, value):
        rows.append(np.append(coef, t_coef))
        rel.append(tag)
        rhs.append(value)

    for i in range(m):
        if math.isfinite(lo[i]) and math.isfinite(hi[i]):
            s[i] = min(1.0, (hi[i] - lo[i]) / 2.0)
        unit = np.zeros(m)
        unit[i] = 1.0
        if math.isfinite(lo[i]):
            add(-unit, s[i], "<=", -lo[i])
        if math.isfinite(hi[i]):
            add(unit, s[i], "<=", hi[i])
    for g, a in prob.ineq:
        add(g * w, 0.0, "<=", a)
    for h, b in prob.eq:
        add(h * w, 0.0, "==", b)
    for g, sv, r in extra:
        add(g * w, sv, "<=", r)
    c = np.zeros(m + 1)
    c[m] = 1.0
    return lp.LinearProgram(c, np.array(rows).reshape(-1, m + 1), tuple(rel),
                            np.array(rhs), np.append(np.full(m, -math.inf), 0.0),
                            np.append(np.full(m, math.inf), 1.0))


def _active_quadratic(rng, prob, x):
    """The problem plus one random quadratic constraint active at ``x``."""
    m = prob.size
    Q = rng.integers(-1, 2, size=(m, m)).astype(float)
    q = rng.integers(-2, 3, size=m).astype(float)
    xw = x * prob.space.weights
    c = -(0.5 * xw @ (0.5 * (Q + Q.T)) @ xw + q @ xw)
    con = QuadraticConstraint(prob.space, Q, q, c)
    return Problem(prob.space, prob.p, prob.lower, prob.upper, prob.ineq,
                   prob.eq, (con,))


class TestPinchRule:
    """One pinch rule, ``upper - lower <= 2 tol``, in the interior search, the
    density construction and the certificate: only a wider gap has a
    midpoint that clears each bound by more than ``tol``."""

    TOL = 1e-9

    def test_gap_of_one_and_a_half_tol_pinches_everywhere(self):
        prob = _prob([1.0, 1.0], [0, 0], [1.5 * self.TOL, 1])
        rep = find_slater(prob, self.TOL)
        assert not rep.found
        assert rep.diagnostics["pinched_atoms"] == [0]
        with pytest.raises(PreconditionError, match="pinch atom 0"):
            density_construction(prob, np.zeros(2), tol=self.TOL)
        # with the row x1 <= 0 the certificate refuses for the same reason
        # the search gave up, instead of contradicting it
        pinned = _prob([1.0, 1.0], [0, 0], [1.5 * self.TOL, 1], ineq=[([0.0, 1.0], 0.0)])
        rep = find_slater(pinned, self.TOL)
        assert rep.diagnostics["pinched_atoms"] == [0]
        with pytest.raises(PreconditionError, match="pinch"):
            build_no_slater_certificate(pinned, tol=self.TOL, slater_report=rep)

    def test_gap_of_two_and_a_half_tol_has_a_clear_midpoint(self):
        prob = _prob([1.0, 1.0], [0, 0], [2.5 * self.TOL, 1])
        rep = find_slater(prob, self.TOL)
        assert rep.found and rep.margin > self.TOL
        x = density_construction(prob, np.zeros(2), tol=self.TOL)
        assert 0.0 < x[0] < 2.5 * self.TOL


class TestMarginLp:
    """The shifted margin LP against the (x, t) LP with a row per box side."""

    def _cases(self, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            prob, x = anchored_problem(rng, int(rng.integers(1, 6)),
                                       int(rng.integers(0, 3)),
                                       int(rng.integers(0, 2)), strict_box=True)
            yield rng, prob, x

    def _agrees(self, rep, ref):
        if ref.status is lp.LpStatus.INFEASIBLE:
            assert not rep.found and rep.optimal_t is None
            return
        assert ref.status is lp.LpStatus.OPTIMAL
        assert rep.found == (ref.value > 1e-9)
        assert abs(rep.optimal_t - ref.value) <= 1e-9

    def test_same_optimum_as_reference(self):
        kinds = set()
        for _, prob, _ in self._cases(94, 150):
            kinds.update(zip(np.isfinite(prob.lower), np.isfinite(prob.upper)))
            self._agrees(find_slater(prob), lp.solve(_reference_lp(prob)))
        assert kinds == {(True, True), (True, False), (False, True)}

    def test_same_optimum_as_reference_linearized(self):
        for rng, prob, x in self._cases(95, 80):
            prob = _active_quadratic(rng, prob, x)
            grad = prob.nonlinear[0].grad(x)
            extra = [(grad, max(1.0, lp_norm(prob.space, grad, 2.0)),
                      pairing(prob.space, grad, x))]
            ref = lp.solve(_reference_lp(prob, extra))
            self._agrees(find_linearized_slater(prob, x), ref)

    def test_free_atoms(self):
        # free atoms have no box row in either formulation
        prob = _prob([1.0, 2.0, 1.0], [-math.inf, 0.0, -math.inf],
                     [math.inf, 1.0, 2.0], ineq=[(np.array([1.0, 1.0, 1.0]), 1.0)],
                     eq=[(np.array([1.0, 0.0, -1.0]), 0.5)])
        self._agrees(find_slater(prob), lp.solve(_reference_lp(prob)))

    def test_infeasibility_certificate_verifies_on_reference(self):
        rng = np.random.default_rng(96)
        checked = 0
        for _, prob, x in self._cases(96, 40):
            g = rng.integers(-2, 3, size=prob.size).astype(float)
            a = pairing(prob.space, g, x)
            # g.x <= a - 1 and -g.x <= -a leave nothing feasible
            empty = Problem(prob.space, prob.p, prob.lower, prob.upper,
                            prob.ineq + ((g, a - 1.0), (-g, -a)), prob.eq)
            rep = find_slater(empty)
            assert not rep.found and rep.optimal_t is None
            ref = _reference_lp(empty)
            cert = lp.FarkasCertificate(
                *(np.array(rep.diagnostics["infeasibility_certificate"][k])
                  for k in ("row_mult", "lower_mult", "upper_mult")))
            assert np.max(np.abs(cert.combination_residual(ref))) <= 1e-9
            assert cert.combined_rhs(ref) < -1e-9
            le = np.array([t == "<=" for t in ref.rel])
            assert np.all(cert.row_mult[le] >= -1e-9)
            assert np.max(np.abs(np.concatenate(
                [cert.row_mult, cert.lower_mult, cert.upper_mult]))) == pytest.approx(1.0)
            checked += 1
        assert checked == 40

    def test_pinning_duals_are_reference_duals(self):
        pinned = 0
        for _, prob, _ in self._cases(97, 150):
            rep = find_slater(prob)
            if rep.found or rep.optimal_t is None:
                continue
            pinned += 1
            ref = _reference_lp(prob)
            y = np.array(rep.diagnostics["pinning_duals"])
            assert y.shape == (ref.n_rows,)
            # a dual optimum of the reference: A'y = 0 on x, y >= 0 on its
            # <= rows, at least c_t = 1 on t, and y.b = t
            le = np.array([t == "<=" for t in ref.rel])
            assert np.all(y[le] >= -1e-9)
            np.testing.assert_allclose(ref.A[:, :-1].T @ y, 0.0, atol=1e-7)
            assert ref.A[:, -1] @ y >= 1.0 - 1e-7
            assert abs(ref.b @ y - rep.optimal_t) <= 1e-7
        assert pinned > 20

    def test_one_row_per_two_sided_atom_and_linear_row(self, lp_calls):
        for _, prob, _ in self._cases(98, 30):
            del lp_calls[:]
            find_slater(prob)
            two = int(np.sum(np.isfinite(prob.lower) & np.isfinite(prob.upper)))
            assert [c.n_rows for c in lp_calls] == [two + prob.n_ineq + prob.n_eq]

    def test_linearized_adds_one_row_per_active_constraint(self, lp_calls):
        for rng, prob, x in self._cases(99, 10):
            prob = _active_quadratic(rng, prob, x)
            del lp_calls[:]
            find_linearized_slater(prob, x)
            two = int(np.sum(np.isfinite(prob.lower) & np.isfinite(prob.upper)))
            assert [c.n_rows for c in lp_calls] == [two + prob.n_ineq + prob.n_eq + 1]

    def test_answers_are_checked_on_the_unshifted_lp(self, monkeypatch):
        # a kernel answer that does not hold for (x, t) is never reported
        prob = _prob([1.0, 1.0], [0.0, -math.inf], [1.0, 2.0],
                     ineq=[(np.array([1.0, 1.0]), 1.0)])
        solve = lp.solve

        def off_by_one(prog, *args, **kwargs):
            out = solve(prog, *args, **kwargs)
            return dataclasses.replace(out, x=out.x + 1.0)

        monkeypatch.setattr(lp, "solve", off_by_one)
        with pytest.raises(NumericalFailureError):
            find_slater(prob)

        empty = _prob([1.0, 1.0], [0.0, 0.0], [1.0, 1.0],
                      ineq=[(np.array([1.0, 1.0]), -1.0)])

        def scaled_certificate(prog, *args, **kwargs):
            out = solve(prog, *args, **kwargs)
            f = out.farkas
            return dataclasses.replace(out, farkas=lp.FarkasCertificate(
                f.row_mult, 2.0 * f.lower_mult, f.upper_mult))

        monkeypatch.setattr(lp, "solve", scaled_certificate)
        with pytest.raises(NumericalFailureError):
            find_slater(empty)

    def test_log_family_is_one_row(self, lp_calls):
        prob, _, _ = log_counterexample_model(1024)
        rep = find_slater(prob)
        assert not rep.found
        assert [c.n_rows for c in lp_calls] == [1]
        assert rep.diagnostics["lp_iterations"] <= 2
        assert len(rep.diagnostics["pinning_duals"]) == 1024 + 1


class TestTwoSidedScale:
    """Two-sided atoms stay out of the LP kernel's tableau."""

    def test_memory_beyond_the_programs_own_matrix_is_small(self):
        # M=2048 two-sided atoms and 8 rows.  The margin LP's coefficient
        # matrix, built by the caller, is (M + 8) x (M + 1) doubles (33.7 MB);
        # a tableau with a row per two-sided atom would add twice as much again
        rng = np.random.default_rng(2048)
        m = 2048
        w = rng.integers(1, 3, size=m).astype(float)
        lower = rng.integers(-2, 1, size=m).astype(float)
        upper = lower + rng.integers(1, 3, size=m)
        x = np.clip(rng.integers(-2, 3, size=m).astype(float), lower, upper)
        rows = rng.integers(-2, 3, size=(8, m)).astype(float)
        ineq = tuple((g, float(g * w @ x) + float(rng.integers(0, 2))) for g in rows[:6])
        eq = tuple((h, float(h * w @ x)) for h in rows[6:])
        prob = _prob(w, lower, upper, ineq, eq)
        tracemalloc.start()
        try:
            rep = find_slater(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.found and rep.margin > 1e-9
        assert peak < (m + 8) * (m + 1) * 8 + 10e6


def _planted(seed, pinned, m=128):
    """Two-sided lattice problem with rows anchored at a point inside the box;
    ``pinned`` adds a row that holds twelve atoms at their lower bounds."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 3, size=m).astype(float)
    lower = rng.integers(-2, 1, size=m).astype(float)
    upper = lower + rng.integers(1, 3, size=m)
    x = lower + (upper - lower) * rng.choice([0.25, 0.5, 0.75], size=m)
    ineq = []
    if pinned:
        S = np.sort(rng.choice(m, size=12, replace=False))
        x[S] = lower[S]
        g = np.zeros(m)
        g[S] = 1.0
        ineq.append((g, float(g * w @ x)))
    rows = rng.integers(-2, 3, size=(6, m)).astype(float)
    ineq += [(g, float(g * w @ x) + float(rng.integers(0, 2))) for g in rows[:4]]
    return _prob(w, lower, upper, ineq, [(h, float(h * w @ x)) for h in rows[4:]])


class TestBlockPath:
    """From 100 two-sided atoms on, their margin rows are the LP's declared block."""

    def test_large_search_stays_small_and_fast(self, lp_calls):
        # M=8192 two-sided atoms, gaps 1-4, 8 rows: a dense matrix with a row
        # per atom would take 537 MB
        rng = np.random.default_rng(8192)
        m = 8192
        w = rng.integers(1, 3, size=m).astype(float)
        lower = rng.integers(-2, 1, size=m).astype(float)
        upper = lower + rng.integers(1, 5, size=m)
        x = np.clip(rng.integers(-2, 3, size=m).astype(float), lower, upper)
        rows = rng.integers(-2, 3, size=(8, m)).astype(float)
        ineq = tuple((g, float(g * w @ x) + float(rng.integers(0, 2))) for g in rows[:6])
        prob = _prob(w, lower, upper, ineq, tuple((h, float(h * w @ x)) for h in rows[6:]))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rep = find_slater(prob)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (prog,) = lp_calls
        assert rep.found and rep.margin > 1e-9
        assert prog.A.shape == (8, m + 1) and prog.vub.col.size == m and prog.n_rows == m + 8
        assert peak < 20e6 and seconds < 1.0

    # status, optimal_t and lp_iterations of find_slater on _planted(seed, pinned)
    RECORDED = [(1281, False, "found", 0.932846371347785, 108),
                (1281, True, "not_found", 0.0, 10),
                (1282, False, "found", 0.8969223972905319, 101),
                (1282, True, "not_found", 0.0, 8),
                (1283, False, "found", 0.8657817109144544, 107),
                (1283, True, "not_found", 0.0, 8)]

    @pytest.mark.parametrize("seed, pinned, status, t, iterations", RECORDED)
    def test_planted_answers_are_unchanged(self, lp_calls, seed, pinned, status, t, iterations):
        rep = find_slater(_planted(seed, pinned))
        assert [c.vub is not None for c in lp_calls] == [True]
        assert rep.status == status and abs(rep.optimal_t - t) <= 1e-12
        assert rep.diagnostics["lp_iterations"] == iterations

    @pytest.mark.parametrize("seed", [1281, 1282, 1283])
    def test_pinning_duals_are_reference_duals(self, seed):
        prob = _planted(seed, True)
        rep = find_slater(prob)
        ref = _reference_lp(prob)
        y = np.array(rep.diagnostics["pinning_duals"])
        le = np.array([t == "<=" for t in ref.rel])
        assert y.shape == (ref.n_rows,) and np.all(y[le] >= -1e-9)
        np.testing.assert_allclose(ref.A[:, :-1].T @ y, 0.0, atol=1e-7)
        assert ref.A[:, -1] @ y >= 1.0 - 1e-7 and abs(ref.b @ y - rep.optimal_t) <= 1e-7

    def test_infeasibility_certificate_verifies_on_reference(self):
        prob = _planted(1284, False)
        g = np.zeros(prob.size)
        g[:3] = 1.0
        # the first three atoms below their lower bounds: nothing is feasible
        empty = Problem(prob.space, prob.p, prob.lower, prob.upper, prob.ineq + (
            (g, pairing(prob.space, g, prob.lower) - 1.0),), prob.eq)
        rep = find_slater(empty)
        assert not rep.found and rep.optimal_t is None
        ref = _reference_lp(empty)
        cert = lp.FarkasCertificate(*(np.array(rep.diagnostics["infeasibility_certificate"][k])
                                      for k in ("row_mult", "lower_mult", "upper_mult")))
        assert np.max(np.abs(cert.combination_residual(ref))) <= 1e-9
        assert cert.combined_rhs(ref) < -1e-9
        assert np.all(cert.row_mult[np.array([t == "<=" for t in ref.rel])] >= -1e-9)


class TestDensityConstruction:
    """Nudging a feasible point off its active bounds."""

    def test_infinite_gap_uses_weight(self):
        prob = _prob([1.0], [0.0], [math.inf])
        out = density_construction(prob, np.zeros(1), np.ones(1))
        np.testing.assert_array_equal(out, [1.0])

    def test_upper_active_steps_back(self):
        prob = _prob([1.0], [0.0], [1.0])
        out = density_construction(prob, np.ones(1), np.array([0.1]))
        np.testing.assert_allclose(out, [0.5], atol=1e-12)

    def test_interior_unchanged(self):
        prob = _prob([1.0], [0.0], [1.0])
        out = density_construction(prob, np.array([0.3]), np.ones(1))
        np.testing.assert_array_equal(out, [0.3])

    def test_strictly_inside_on_random_instances(self):
        rng = np.random.default_rng(93)
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            lower = rng.integers(-2, 1, size=m).astype(float)
            upper = lower + rng.integers(1, 3, size=m).astype(float)
            for i in range(m):
                r = rng.random()
                if r < 0.15:
                    lower[i] = -math.inf
                elif r < 0.3:
                    upper[i] = math.inf
            prob = _prob(rng.integers(1, 3, size=m).astype(float),
                         lower, upper)
            from conftest import lattice_point
            x = lattice_point(rng, lower, upper, stick=0.8)
            w = rng.integers(1, 4, size=m).astype(float) / 2.0
            out = density_construction(prob, x, w)
            assert np.all(out > prob.lower) and np.all(out < prob.upper)

    def test_nonpositive_weight_rejected(self):
        prob = _prob([1.0], [0.0], [1.0])
        with pytest.raises(PreconditionError):
            density_construction(prob, np.zeros(1), np.zeros(1))

    def test_degenerate_bounds_rejected(self):
        prob = _prob([1.0], [0.0], [0.0])
        with pytest.raises(PreconditionError):
            density_construction(prob, np.zeros(1), np.ones(1))


class TestCombineSlater:
    """Blend of a strictly-slack point with a box-interior point."""

    def test_two_interior_points(self):
        prob = _prob([1.0], [0.0], [1.0], ineq=[(np.ones(1), 1.0)])
        x, eps = combine_slater(prob, np.array([0.5]), np.array([0.5]), {0})
        assert eps == 0.5
        rep = find_slater(prob)
        assert rep.found

    def test_near_boundary_ring_point(self):
        prob = _prob([1.0], [0.0], [1.0], ineq=[(np.ones(1), 1.0)])
        x, eps = combine_slater(prob, np.array([0.999]), np.array([0.5]), {0})
        assert 0.0 < x[0] < 1.0
        assert pairing(prob.space, np.ones(1), x) < 1.0

    def test_equality_violation_rejected(self):
        prob = _prob([1.0], [0.0], [1.0], eq=[(np.ones(1), 0.5)])
        with pytest.raises(PreconditionError):
            combine_slater(prob, np.array([0.9]), np.array([0.5]), set())


class TestFindLinearizedSlater:
    """Active smooth rows enter as linear cuts at the base point."""

    def _circle(self, lower, upper):
        sp = MeasureSpace(np.ones(1))
        con = QuadraticConstraint(sp, np.array([[2.0]]), np.zeros(1), -1.0)
        return Problem(sp, 2.0, np.asarray(lower, float),
                       np.asarray(upper, float), (), (), (con,))

    def test_room_below_found(self):
        prob = self._circle([0.0], [2.0])
        rep = find_linearized_slater(prob, np.array([1.0]))
        assert rep.found
        grad = prob.nonlinear[0].grad(np.array([1.0]))
        assert pairing(prob.space, grad, rep.point - 1.0) < 0

    def test_no_room_not_found(self):
        prob = self._circle([1.0], [2.0])
        rep = find_linearized_slater(prob, np.array([1.0]))
        assert not rep.found

    def test_inactive_constraint_reduces_to_plain_search(self):
        prob = self._circle([0.0], [0.5])
        base = np.array([0.25])
        rep = find_linearized_slater(prob, base)
        plain = find_slater(Problem(prob.space, prob.p, prob.lower,
                                    prob.upper, (), ()))
        assert rep.found == plain.found
        np.testing.assert_allclose(rep.point, plain.point, atol=1e-9)

    def test_infeasible_base_rejected(self):
        prob = self._circle([0.0], [2.0])
        with pytest.raises(InfeasiblePointError):
            find_linearized_slater(prob, np.array([2.0]))
