"""Dense LP kernel: solutions, duals, Farkas rays, and oracle agreement."""

import math
import tracemalloc

import numpy as np
import pytest

import slaterkit.lp
from slaterkit import (LinearProgram, LpStatus, NumericalFailureError, feasibility,
                       log_counterexample_model, recover_multipliers_linear, solve)
from slaterkit.lp import LE, GE, EQ, VubRows
from slaterkit import oracles


def _lp(c, A, rel, b, lower, upper):
    return LinearProgram(np.asarray(c, dtype=float),
                         np.asarray(A, dtype=float).reshape(len(rel), len(c)),
                         tuple(rel), np.asarray(b, dtype=float),
                         np.asarray(lower, dtype=float),
                         np.asarray(upper, dtype=float))


class TestSolve:
    """The three contract examples plus certificate checks."""

    def test_box_corner_optimum(self):
        lp = _lp([1, 1], [[1, 0], [0, 1]], [LE, LE], [1, 1],
                 [0, 0], [math.inf, math.inf])
        out = solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert abs(out.value - 2.0) <= 1e-9
        np.testing.assert_allclose(out.x, [1.0, 1.0], atol=1e-9)

    def test_infeasible_with_farkas_ray(self):
        lp = _lp([0], [[1], [-1]], [LE, LE], [-1, 0],
                 [-math.inf], [math.inf])
        out = solve(lp)
        assert out.status is LpStatus.INFEASIBLE
        y = out.farkas.row_mult
        np.testing.assert_allclose(y, [1.0, 1.0], atol=1e-9)
        assert abs(y @ np.array([[1.0], [-1.0]])).max() <= 1e-9
        assert y @ np.array([-1.0, 0.0]) < -1e-9
        assert np.max(np.abs(out.farkas.combination_residual(lp))) <= 1e-9
        assert out.farkas.combined_rhs(lp) < -1e-9

    def test_unbounded_with_ray(self):
        lp = _lp([1], np.zeros((0, 1)), [], [], [0.0], [math.inf])
        out = solve(lp)
        assert out.status is LpStatus.UNBOUNDED
        np.testing.assert_allclose(out.ray, [1.0], atol=1e-12)
        assert out.x is not None

    def test_equality_rows(self):
        lp = _lp([0, 1], [[1, 1], [1, -1]], [EQ, EQ], [2, 0],
                 [0, 0], [5, 5])
        out = solve(lp)
        assert out.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(out.x, [1.0, 1.0], atol=1e-9)

    def test_deterministic(self):
        lp = _lp([1, 2, 3], [[1, 1, 1], [2, 0, 1]], [LE, LE], [4, 5],
                 [0, 0, 0], [3, 3, 3])
        a, b = solve(lp), solve(lp)
        assert a.status is b.status
        np.testing.assert_array_equal(a.x, b.x)


class TestFeasibility:
    """Zero-objective wrapper."""

    def test_single_equality(self):
        out = feasibility(np.array([[1.0]]), (EQ,), np.array([1.0]),
                          np.array([-math.inf]), np.array([math.inf]))
        assert out.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(out.x, [1.0], atol=1e-9)

    def test_contradiction_gives_ray(self):
        out = feasibility(np.array([[1.0], [1.0]]), (LE, GE),
                          np.array([0.0, 1.0]),
                          np.array([-math.inf]), np.array([math.inf]))
        assert out.status is LpStatus.INFEASIBLE
        assert out.farkas is not None

    def test_empty_system_free_variable(self):
        out = feasibility(np.zeros((0, 1)), (), np.zeros(0),
                          np.array([-math.inf]), np.array([math.inf]))
        assert out.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(out.x, [0.0], atol=1e-12)


class TestOracleAgreement:
    """Status and value match exact rational enumeration on tiny LPs."""

    def test_random_lattice_instances(self):
        rng = np.random.default_rng(424242)
        rels = np.array([LE, LE, GE, EQ])
        for case in range(250):
            nv = int(rng.integers(1, 4))
            nr = int(rng.integers(0, 5))
            c = rng.integers(-3, 4, size=nv).astype(float)
            A = rng.integers(-3, 4, size=(nr, nv)).astype(float)
            rel = tuple(rels[rng.integers(0, 4 if nr else 1, size=nr)])
            b = rng.integers(-3, 4, size=nr).astype(float)
            lower = np.where(rng.random(nv) < 0.8,
                             rng.integers(-3, 1, size=nv), -math.inf)
            upper = np.where(rng.random(nv) < 0.8,
                             rng.integers(0, 4, size=nv), math.inf)
            bad = lower > upper
            lower[bad], upper[bad] = upper[bad], lower[bad]
            for j in range(nv):
                if not (math.isfinite(lower[j]) or math.isfinite(upper[j])):
                    lower[j] = float(rng.integers(-3, 1))
            lp = _lp(c, A, rel, b, lower, upper)
            out = solve(lp)
            status, value = oracles.lp_oracle_exact(
                [int(v) for v in c], [[int(v) for v in row] for row in A],
                list(rel), [int(v) for v in b],
                [None if not math.isfinite(v) else int(v) for v in lower],
                [None if not math.isfinite(v) else int(v) for v in upper])
            assert out.status.value == status, f"case {case}"
            if status == "optimal":
                ref = float(value)
                assert abs(out.value - ref) <= 1e-9 * max(1.0, abs(ref))
            if status == "infeasible":
                assert out.farkas is not None
                assert np.max(np.abs(out.farkas.combination_residual(lp))) <= 1e-7
                assert out.farkas.combined_rhs(lp) < 0.0


def _rows_in_A(lp):
    """The same program with its declared block written into ``A`` after
    the general rows, so row ``i`` of ``y`` is row ``i`` of ``A``."""
    v = lp.vub
    if v is None:
        return lp
    block = np.zeros((v.col.size, lp.n_vars))
    block[np.arange(v.col.size), v.col], block[:, v.key] = v.a, v.g
    return LinearProgram(lp.c, np.vstack([lp.A, block]), lp.rel + (LE,) * v.col.size,
                         np.concatenate([lp.b, v.h]), lp.lower, lp.upper)


def _oracle(lp):
    """Exact status and value; a free column is split in two for the
    oracle, which needs a finite bound on every variable."""
    lp = _rows_in_A(lp)
    free = ~np.isfinite(lp.lower) & ~np.isfinite(lp.upper)
    c, A = lp.c, lp.A
    lower, upper = lp.lower.copy(), lp.upper.copy()
    if free.any():
        c = np.concatenate([c, -c[free]])
        A = np.hstack([A, -A[:, free]])
        lower[free] = 0.0
        lower = np.concatenate([lower, np.zeros(free.sum())])
        upper = np.concatenate([upper, np.full(free.sum(), math.inf)])
    return oracles.lp_oracle_exact(
        [int(v) for v in c], [[int(v) for v in row] for row in A], list(lp.rel),
        [int(v) for v in lp.b],
        [None if not math.isfinite(v) else int(v) for v in lower],
        [None if not math.isfinite(v) else int(v) for v in upper])


def _verify(lp, out, tol=1e-9):
    """Re-check an outcome's evidence on the program, independently of the
    kernel's own checks."""
    lp = _rows_in_A(lp)
    le = np.array([t == LE for t in lp.rel], dtype=bool)
    ge = np.array([t == GE for t in lp.rel], dtype=bool)
    eq = ~le & ~ge
    lo_fin, hi_fin = np.isfinite(lp.lower), np.isfinite(lp.upper)

    def feasible(x):
        d = lp.A @ x - lp.b
        return (np.all(d[le] <= tol) and np.all(d[ge] >= -tol)
                and np.all(np.abs(d[eq]) <= tol)
                and np.all(x[lo_fin] >= lp.lower[lo_fin] - tol)
                and np.all(x[hi_fin] <= lp.upper[hi_fin] + tol))

    if out.status is LpStatus.OPTIMAL:
        assert feasible(out.x)
        assert abs(out.value - lp.c @ out.x) <= tol
        y, r = out.y, lp.c - lp.A.T @ out.y
        assert np.all(y[le] >= -tol) and np.all(y[ge] <= tol)
        # a reduced cost pushes against a finite bound the point rests on
        at_lo = lo_fin & (out.x - lp.lower <= tol)
        at_hi = hi_fin & (lp.upper - out.x <= tol)
        assert np.all(np.abs(r[~at_lo & ~at_hi]) <= tol)
        assert np.all(r[at_lo & ~at_hi] <= tol) and np.all(r[at_hi & ~at_lo] >= -tol)
        dual = (y @ lp.b - np.maximum(-r, 0.0)[at_lo] @ lp.lower[at_lo]
                + np.maximum(r, 0.0)[at_hi] @ lp.upper[at_hi])
        assert abs(dual - out.value) <= 1e-8 * max(1.0, abs(out.value))
    elif out.status is LpStatus.UNBOUNDED:
        assert feasible(out.x)
        d = lp.A @ out.ray
        assert np.all(d[le] <= tol) and np.all(d[ge] >= -tol) and np.all(np.abs(d[eq]) <= tol)
        assert np.all(out.ray[lo_fin] >= -tol) and np.all(out.ray[hi_fin] <= tol)
        assert lp.c @ out.ray > tol
    else:
        f = out.farkas
        assert out.status is LpStatus.INFEASIBLE and f is not None
        assert np.all(f.row_mult[le] >= -tol) and np.all(f.row_mult[ge] <= tol)
        assert np.all(f.lower_mult >= -tol) and np.all(f.upper_mult >= -tol)
        assert np.all(f.lower_mult[~lo_fin] <= tol) and np.all(f.upper_mult[~hi_fin] <= tol)
        assert np.max(np.abs(f.combination_residual(lp)), initial=0.0) <= 1e-7
        assert f.combined_rhs(lp) < -tol


class TestBoundedKernel:
    """Bounds that are not rows, whole free columns, implicit rows."""

    def test_variable_upper_bound_rows_match_the_oracle(self):
        # nv <= 3 with two-sided, one-sided and free columns, and "<=" rows
        # a x_p + g x_key <= h declared as the program's block, which the
        # kernel keeps out of its tableau unless the starting point violates them
        rng = np.random.default_rng(60606)
        implicit = 0
        seen = set()
        for case in range(400):
            nv = int(rng.integers(2, 4))
            key = int(rng.integers(0, nv))
            rows, rel, b, cols = [], [], [], []
            for p in rng.permutation([j for j in range(nv) if j != key])[:int(rng.integers(1, nv))]:
                cols.append(p)
                row = np.zeros(nv)
                row[p], row[key] = rng.integers(1, 3), rng.choice([-2, -1, 1, 2])
                rows.append(row), rel.append(LE), b.append(int(rng.integers(-2, 5)))
            nb = len(rows)
            for _ in range(int(rng.integers(0, 3))):
                rows.append(rng.integers(-3, 4, size=nv).astype(float))
                rel.append(str(rng.choice([LE, GE, EQ])))
                b.append(int(rng.integers(-3, 4)))
            lower = rng.integers(-3, 2, size=nv).astype(float)
            upper = lower + rng.integers(0, 4, size=nv)
            kind = rng.integers(0, 4, size=nv)  # two-sided, lower, upper, free
            lower[(kind == 2) | (kind == 3)] = -math.inf
            upper[(kind == 1) | (kind == 3)] = math.inf
            seen.update(kind.tolist())
            perm = rng.permutation(len(b))
            blk, gen = perm[perm < nb], perm[perm >= nb]
            rows, b = np.array(rows), np.array(b, dtype=float)
            own = np.array(cols, dtype=int)[blk]
            lp = LinearProgram(rng.integers(-3, 4, size=nv).astype(float),
                               rows[gen].reshape(len(gen), nv), tuple(rel[k] for k in gen),
                               b[gen], lower, upper,
                               VubRows(key, own, rows[blk, own], rows[blk, key], b[blk]))
            implicit += slaterkit.lp._Tableau(lp, 1e-11).nv > 0
            out = solve(lp)
            status, value = _oracle(lp)
            assert out.status.value == status, f"case {case}"
            if status == "optimal":
                assert abs(out.value - float(value)) <= 1e-9 * max(1.0, abs(float(value)))
            _verify(lp, out)
        assert seen == {0, 1, 2, 3} and implicit > 200

    def test_declared_block_matches_rows_in_A(self):
        # the same programs with 2-64 variable-upper-bound rows declared as a
        # block and written into A: same status and optimum, both verified
        rng = np.random.default_rng(7171)
        statuses = []
        for case in range(300):
            nb = int(rng.integers(2, 65))
            n = nb + 1 + int(rng.integers(0, 3))
            key = int(rng.integers(0, n))
            cols = rng.permutation([j for j in range(n) if j != key])[:nb]
            block = VubRows(key, cols, rng.integers(1, 3, size=nb),
                            rng.choice([-2, -1, 1, 2], size=nb), rng.integers(0, 8, size=nb))
            k = int(rng.integers(0, 3))
            lower = rng.integers(-3, 2, size=n).astype(float)
            upper = lower + rng.integers(0, 4, size=n)
            kind = rng.choice(4, size=n, p=[0.85, 0.05, 0.05, 0.05])  # two-sided, lower, upper, free
            lower[(kind == 2) | (kind == 3)] = -math.inf
            upper[(kind == 1) | (kind == 3)] = math.inf
            lp = LinearProgram(rng.integers(-3, 4, size=n).astype(float),
                               rng.integers(-3, 4, size=(k, n)).astype(float),
                               tuple(rng.choice([LE, GE, EQ], size=k).tolist()),
                               rng.integers(-3, 4, size=k).astype(float), lower, upper, block)
            dense = _rows_in_A(lp)
            out, ref = solve(lp), solve(dense)
            assert out.status is ref.status, f"case {case}"
            if out.status is LpStatus.OPTIMAL:
                assert abs(out.value - ref.value) <= 1e-9 * max(1.0, abs(ref.value))
            _verify(lp, out)
            _verify(dense, ref)
            statuses.append(out.status)
        assert {s: statuses.count(s) >= 20 for s in (
            LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED)} == dict.fromkeys(
            (LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED), True)

    @pytest.mark.parametrize("gap", [0.5, 1e-6])
    def test_large_bound_does_not_hide_infeasibility(self, gap):
        # x <= 0 and x >= gap have no solution; the bound 1e9 of the second
        # variable must not widen the acceptance threshold
        lp = _lp([0, 0], [[1, 0], [1, 0]], [LE, GE], [0, gap],
                 [-math.inf, 1.0], [math.inf, 1e9])
        out = solve(lp)
        assert out.status is LpStatus.INFEASIBLE
        _verify(lp, out, tol=1e-12)

    def test_oversized_program_is_refused_before_allocating(self):
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            lp = _lp([1, 1], rng.normal(size=(60000, 2)), [LE] * 60000,
                     np.ones(60000), [-math.inf, 0.0], [math.inf, 1.0])
            with pytest.raises(NumericalFailureError, match=r"\d+ x \d+"):
                solve(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_free_column_is_one_column(self):
        out = solve(_lp([1, 0], [[1, 1], [1, -1]], [LE, LE], [3, 1],
                        [-math.inf, -math.inf], [math.inf, math.inf]))
        assert out.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(out.x, [2.0, 1.0], atol=1e-12)

    def test_bound_flip_costs_no_pivot(self):
        # x rises from its lower to its upper bound, no row stops it
        lp = _lp([1], [[1]], [LE], [5], [0.0], [2.0])
        out = solve(lp)
        assert out.status is LpStatus.OPTIMAL and out.value == 2.0
        assert out.iterations == 1


class TestCrashStart:
    """Block rows that start tight: their ``x_p`` at the row's bound."""

    def test_crash_makes_the_start_feasible(self):
        # x0 + x1 >= 4 with x0 + t <= 2 and x1 + t <= 2 as the block: both
        # rows start tight at t = 0, so the start is optimal without a pivot
        lp = LinearProgram([0.0, 0.0, -1.0], [[1.0, 1.0, 0.0]], (GE,), [4.0],
                           [0.0, 0.0, 0.0], [math.inf, 3.0, 1.0],
                           VubRows(2, [0, 1], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]))
        assert slaterkit.lp._Tableau(lp, 1e-11).tight.tolist() == [True, True]
        out = solve(lp)
        assert out.status is LpStatus.OPTIMAL and out.iterations == 0
        np.testing.assert_array_equal(out.x, [2.0, 2.0, 0.0])
        _verify(lp, out)

    def test_crash_follows_the_greedy_rule(self):
        # the rows the crash picks, in order, against a plain loop over the
        # rule; integer data and half-integer moves keep every sum exact
        rng = np.random.default_rng(2626)
        several = 0
        for case in range(200):
            k, nb = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            A = rng.integers(-3, 4, size=(k, nb + 1)).astype(float)
            b = rng.integers(-6, 7, size=k).astype(float)
            rel = rng.choice([LE, GE, EQ], size=k)
            x0 = rng.integers(-2, 2, size=nb + 1).astype(float)
            vp = rng.permutation(nb + 1)[:nb]
            bound = x0[vp] + rng.integers(0, 5, size=nb) / 2.0
            ok = (rng.random(nb) < 0.8) & (bound > x0[vp])

            def violation(x):
                return sum(max(v, 0.0) if t == LE else max(-v, 0.0) if t == GE else abs(v)
                           for v, t in zip(A @ x - b, rel))

            x, want = x0.copy(), []
            while True:
                best, pick = violation(x), None
                for i in np.flatnonzero(ok):
                    y = x.copy()
                    y[vp[i]] = bound[i]
                    if i not in want and violation(y) < best:
                        best, pick = violation(y), i
                if pick is None:
                    break
                want.append(pick)
                x[vp[pick]] = bound[pick]
            got = slaterkit.lp._crash(A, b, rel == LE, rel == GE, x0, vp, bound, ok)
            assert got.tolist() == want, f"case {case}"
            several += len(want) > 1
        assert several >= 30

    def test_crashed_block_matches_the_oracle(self):
        # 2-3 block rows over columns with a finite lower bound and, most of
        # them, a finite upper one; the key rests at its lower or its upper
        # bound, g has either sign, and the general rows and some block rows
        # are violated at the start
        rng = np.random.default_rng(2525)
        crashed, violated, statuses = 0, 0, []
        for case in range(200):
            n = int(rng.choice([3, 4], p=[0.7, 0.3]))
            key = int(rng.integers(0, n))
            cols = rng.permutation([j for j in range(n) if j != key])[:int(rng.integers(1, n))]
            lower = rng.integers(-2, 2, size=n).astype(float)
            upper = lower + rng.integers(1, 4, size=n)
            upper[rng.random(n) < 0.3] = math.inf
            side = rng.integers(0, 3)  # the key: two-sided, lower only, upper only
            upper[key] = math.inf if side == 1 else upper[key]
            lower[key] = -math.inf if side == 2 else lower[key]
            k = int(rng.integers(1, 3))
            lp = LinearProgram(rng.integers(-3, 4, size=n).astype(float),
                               rng.integers(-2, 4, size=(k, n)).astype(float),
                               tuple(rng.choice([LE, GE, EQ], size=k, p=[0.25, 0.5, 0.25])),
                               rng.integers(-1, 8, size=k).astype(float), lower, upper,
                               VubRows(key, cols, rng.integers(1, 3, size=cols.size),
                                       rng.choice([-2, -1, 1, 2], size=cols.size),
                                       rng.integers(-2, 6, size=cols.size)))
            tb = slaterkit.lp._Tableau(lp, 1e-11)
            crashed += bool(tb.nv and tb.tight.any())
            violated += tb.nv < cols.size
            out = solve(lp)
            status, value = _oracle(lp)
            assert out.status.value == status, f"case {case}"
            if status == "optimal":
                assert abs(out.value - float(value)) <= 1e-9 * max(1.0, abs(float(value)))
            _verify(lp, out)
            statuses.append(out.status)
        assert crashed >= 40 and violated >= 40
        assert all(statuses.count(s) >= 10 for s in (
            LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED))


class TestProgramData:
    """A program keeps read-only copies; the caller's arrays stay writable."""

    def test_caller_arrays_stay_writable(self):
        c, A, b = np.ones(3), np.ones((1, 3)), np.ones(1)
        lower, upper = np.zeros(3), np.full(3, 4.0)
        col, a, g, h = np.array([1, 2]), np.ones(2), np.ones(2), np.full(2, 3.0)
        lp = LinearProgram(c, A, (LE,), b, lower, upper, VubRows(0, col, a, g, h))
        for arr in (c, A, b, lower, upper, col, a, g, h):
            arr[0] = 2
        assert np.array_equal(lp.A, np.ones((1, 3))) and lp.c[0] == 1.0 and lp.vub.h[0] == 3.0
        assert lp.vub.col[0] == 1 and lp.b[0] == 1.0 and lp.upper[0] == 4.0
        for arr in (lp.c, lp.A, lp.b, lp.lower, lp.upper, lp.vub.col, lp.vub.a, lp.vub.g,
                    lp.vub.h):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5

    @pytest.mark.parametrize("key, col, a, g", [
        (0, [0], [1], [1]), (3, [1], [1], [1]), (0, [3], [1], [1]), (0, [-1], [1], [1]),
        (0, [1, 1], [1, 1], [1, 1]), (0, [1.0], [1], [1]), (0, [1], [0], [1]),
        (0, [1], [1], [0])])
    def test_bad_block_is_refused(self, key, col, a, g):
        with pytest.raises(ValueError):
            LinearProgram(np.zeros(3), np.zeros((0, 3)), (), [], np.zeros(3), np.ones(3),
                          VubRows(key, col, a, g, np.ones(len(col))))


class TestPivotMemory:
    """A pivot's row update allocates blocks of rows, not a second tableau."""

    def test_peak_stays_near_the_tableau(self, lp_calls):
        # the multiplier LP of the log family has one row per atom: at 2048
        # atoms its working tableau takes 32 MiB, and a tableau-sized
        # temporary per pivot would double the peak
        prob, xbar, grad = log_counterexample_model(2048)
        tracemalloc.start()
        try:
            out = recover_multipliers_linear(prob, xbar, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (lp,) = lp_calls
        tableau = 8 * (lp.n_rows + 4) * (lp.n_vars + lp.n_rows + 1)
        assert out.found and tableau > 32 * 2 ** 20
        assert peak < tableau + 8 * 2 ** 20
