"""Rewrite of the linear system: implicit equalities, rank, witness."""

import math

import numpy as np
import pytest

from slaterkit import (
    EmptyPolyhedronError,
    InconsistentEqualitiesError,
    MeasureSpace,
    Problem,
    build_mfcq_system,
    detect_implicit_equalities,
    log_counterexample_model,
    pairing,
    reduce_equalities,
)
from slaterkit.fileio import load_problem
from conftest import DATA


def _prob(weights, ineq=(), eq=(), lower=None, upper=None):
    w = np.asarray(weights, dtype=float)
    m = len(w)
    lo = np.full(m, -math.inf) if lower is None else np.asarray(lower, float)
    hi = np.full(m, math.inf) if upper is None else np.asarray(upper, float)
    return Problem(MeasureSpace(w), 2.0, lo, hi, tuple(ineq), tuple(eq))


class TestDetectImplicitEqualities:
    """Rows that no point of the polyhedron (box ignored) leaves slack."""

    def test_opposed_pair_is_implicit(self):
        prob = _prob([1.0], [(np.array([1.0]), 0.5),
                             (np.array([-1.0]), -0.5)])
        assert detect_implicit_equalities(prob) == {0, 1}

    def test_single_row_has_slack(self):
        prob = _prob([1.0], [(np.array([1.0]), 1.0)])
        assert detect_implicit_equalities(prob) == set()

    def test_box_does_not_count(self):
        # The box pins x at 0 but the polyhedron alone allows x < 0, so the
        # row stays an inequality.
        prob, _, _ = log_counterexample_model(2)
        assert detect_implicit_equalities(prob) == set()

    def test_empty_polyhedron_rejected(self):
        for gap in (1.0, 0.5, 1e-6):
            prob = _prob([1.0], [(np.array([1.0]), 0.0),
                                 (np.array([-1.0]), -gap)])
            with pytest.raises(EmptyPolyhedronError):
                detect_implicit_equalities(prob)
            with pytest.raises(EmptyPolyhedronError):
                build_mfcq_system(prob)


class TestReduceEqualities:
    """Maximal independent subset with expressed dependencies."""

    def test_scalar_multiple_dropped(self):
        sp = MeasureSpace(np.ones(2))
        red = reduce_equalities(sp, ((np.array([1.0, 0.0]), 1.0),
                                     (np.array([2.0, 0.0]), 2.0)))
        assert red.kept == (0,)
        (j, combo), = red.dependencies
        assert j == 1
        assert abs(combo[0] - 2.0) <= 1e-9

    def test_contradiction_detected(self):
        sp = MeasureSpace(np.ones(2))
        with pytest.raises(InconsistentEqualitiesError) as info:
            reduce_equalities(sp, ((np.array([1.0, 0.0]), 1.0),
                                   (np.array([2.0, 0.0]), 3.0)))
        cert = info.value.certificate
        # The certificate combines the rows to 0 = nonzero.
        rows = np.array([[1.0, 0.0], [2.0, 0.0]])
        rhs = np.array([1.0, 3.0])
        np.testing.assert_allclose(cert @ rows, 0.0, atol=1e-9)
        assert abs(cert @ rhs) > 1e-9

    def test_independent_rows_kept(self):
        sp = MeasureSpace(np.ones(2))
        red = reduce_equalities(sp, ((np.array([1.0, 0.0]), 1.0),
                                     (np.array([0.0, 1.0]), 2.0)))
        assert red.kept == (0, 1)
        assert red.dependencies == ()


class TestBuildSystem:
    """End-to-end rewrite with witness and provenance."""

    def test_forced_equality(self):
        prob = _prob([1.0], [(np.array([1.0]), 0.5),
                             (np.array([-1.0]), -0.5)])
        sysm = build_mfcq_system(prob)
        assert len(sysm.ineq) == 0
        assert len(sysm.eq) == 1
        np.testing.assert_allclose(sysm.witness, [0.5], atol=1e-9)
        assert sysm.provenance[0] == "converted"
        assert sysm.provenance[1] == "dropped"

    def test_dominated_row(self):
        prob = _prob([1.0], [(np.array([1.0]), 1.0), (np.array([1.0]), 2.0)])
        sysm = build_mfcq_system(prob)
        # Solution sets agree on a line of sample points.
        for v in np.linspace(-3, 3, 13):
            x = np.array([v])
            orig = all(pairing(prob.space, g, x) <= a + 1e-9
                       for g, a in prob.ineq)
            assert orig == sysm.is_member(x)

    def test_no_constraints(self):
        prob = _prob([1.0, 1.0])
        sysm = build_mfcq_system(prob)
        assert len(sysm.ineq) == 0 and len(sysm.eq) == 0
        np.testing.assert_array_equal(sysm.witness, [0.0, 0.0])

    def test_witness_strict(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            w = rng.integers(1, 3, size=m).astype(float)
            x = rng.integers(-2, 3, size=m).astype(float)
            ineq = []
            for _ in range(int(rng.integers(1, 3))):
                g = rng.integers(-2, 3, size=m).astype(float)
                ineq.append((g, float(np.sum(g * x * w))
                             + float(rng.choice([0, 1]))))
            prob = _prob(w, ineq)
            sysm = build_mfcq_system(prob)
            for g, a in sysm.ineq:
                assert a - pairing(prob.space, g, sysm.witness) > 1e-9

    def test_idempotent(self):
        prob = _prob([1.0, 2.0],
                     [(np.array([1.0, 1.0]), 2.0),
                      (np.array([-1.0, -1.0]), -2.0),
                      (np.array([1.0, 0.0]), 5.0)],
                     [(np.array([0.0, 1.0]), 0.0)])
        first = build_mfcq_system(prob)
        again_prob = Problem(prob.space, prob.p, prob.lower, prob.upper,
                             first.ineq, first.eq)
        second = build_mfcq_system(again_prob)
        assert len(second.ineq) == len(first.ineq)
        assert len(second.eq) == len(first.eq)
        assert all(v == "kept" for v in second.provenance.values())

    def test_rank_property(self):
        sp = MeasureSpace(np.ones(3))
        eqs = ((np.array([1.0, 0.0, 0.0]), 1.0),
               (np.array([0.0, 1.0, 0.0]), 2.0),
               (np.array([1.0, 1.0, 0.0]), 3.0),
               (np.array([2.0, 0.0, 0.0]), 2.0))
        red = reduce_equalities(sp, eqs)
        kept_rows = np.array([eqs[j][0] for j in red.kept])
        base = np.linalg.matrix_rank(kept_rows)
        assert base == len(red.kept)
        for j, _ in red.dependencies:
            stacked = np.vstack([kept_rows, eqs[j][0]])
            assert np.linalg.matrix_rank(stacked) == base


class TestOneLp:
    """The rewrite is one LP, also on systems with opposite-row pairs."""

    def test_implicit_pair_instance_converts(self):
        # 25 atoms, 12 inequalities with two opposite-row pairs: the planted
        # implicit rows are 7-10
        prob, _ = load_problem(str(DATA / "implicit-pair.json"))
        sysm = build_mfcq_system(prob)
        assert {i for i, v in sysm.provenance.items() if v != "kept"} == {7, 8, 9, 10}
        assert detect_implicit_equalities(prob) == {7, 8, 9, 10}
        assert sysm.witness_margin > 1e-9
        slack = prob.a - prob.G_w @ sysm.witness
        assert np.all(slack >= -1e-9)
        np.testing.assert_allclose(prob.H_w @ sysm.witness, prob.b, atol=1e-9)

    def test_build_solves_one_lp(self, lp_calls):
        prob, _ = load_problem(str(DATA / "implicit-pair.json"))
        build_mfcq_system(prob)
        assert len(lp_calls) == 1
