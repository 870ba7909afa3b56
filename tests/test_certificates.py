"""No-interior-point certificates, degenerate slopes, refinement studies."""

import math

import numpy as np
import pytest

from slaterkit import (
    MeasureSpace,
    PreconditionError,
    Problem,
    build_bad_functional,
    build_mfcq_system,
    build_no_slater_certificate,
    constant_control_model,
    find_slater,
    log_counterexample_model,
    normal_K_contains,
    recover_multipliers_linear,
    refinement_study,
    sum_NK_NP_contains,
)
from slaterkit.fileio import load_point, load_problem
from conftest import DATA, anchored_problem


class TestBuildCertificate:
    """Constructing the nonzero separating density."""

    def test_pinned_instance(self):
        prob, xbar, _ = log_counterexample_model(2)
        cert = build_no_slater_certificate(prob, xbar)
        np.testing.assert_allclose(cert.zeta, [1.0, 1.0], atol=1e-9)
        assert cert.lam[0] == pytest.approx(1.0, abs=1e-9)
        assert cert.sign_residual <= 1e-9
        assert cert.combination_residual <= 1e-9
        assert np.max(np.abs(cert.zeta)) == pytest.approx(1.0, abs=1e-12)
        assert cert.peak_atom == 0
        assert cert.support_positive == (0, 1)
        assert cert.support_negative == ()
        assert normal_K_contains(prob, xbar, -cert.zeta, 1e-9)

    def test_default_base_point(self):
        prob, xbar, _ = log_counterexample_model(3)
        cert = build_no_slater_certificate(prob)
        np.testing.assert_allclose(cert.base_point, xbar, atol=1e-9)
        assert cert.max_residual <= 1e-9

    def test_equality_pinned_single_atom(self):
        prob = Problem(MeasureSpace(np.ones(1)), 2.0, np.zeros(1), np.ones(1),
                       (), ((np.ones(1), 0.0),))
        cert = build_no_slater_certificate(prob, np.zeros(1))
        np.testing.assert_allclose(cert.zeta, [1.0], atol=1e-9)
        assert cert.lam == {}
        np.testing.assert_allclose(cert.mu, [1.0], atol=1e-9)
        assert cert.max_residual <= 1e-9

    def test_pinched_box_rejected(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0,
                       np.array([0.0, 1.0]), np.array([1.0, 1.0]), (), ())
        with pytest.raises(PreconditionError):
            build_no_slater_certificate(prob, np.array([0.5, 1.0]))

    def test_interior_point_exists_rejected(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, np.zeros(2), np.ones(2),
                       (), ())
        with pytest.raises(PreconditionError):
            build_no_slater_certificate(prob, np.full(2, 0.5))

    def test_exactly_one_outcome(self):
        rng = np.random.default_rng(77)
        found = certified = 0
        for _ in range(60):
            m = int(rng.integers(1, 5))
            prob, x = anchored_problem(rng, m, int(rng.integers(0, 3)),
                                       int(rng.integers(0, 2)),
                                       strict_box=True)
            report = find_slater(prob)
            if report.found:
                found += 1
                with pytest.raises(PreconditionError):
                    build_no_slater_certificate(prob, x,
                                                slater_report=report)
            else:
                certified += 1
                cert = build_no_slater_certificate(prob, x,
                                                   slater_report=report)
                assert cert.max_residual <= 1e-9
                assert np.max(np.abs(cert.zeta)) == pytest.approx(1.0)
                assert normal_K_contains(prob, x, -cert.zeta, 1e-9)
        assert found > 5 and certified > 5

    def test_equalities_with_redundant_rows(self):
        # 25 atoms, 10 inequalities, 3 equalities: a pivot on a cancellation
        # residue once left the certificate LP at value zero
        prob, _ = load_problem(str(DATA / "certificate-lp-equalities.json"))
        xbar = load_point(str(DATA / "certificate-lp-equalities_x.json"))
        report = find_slater(prob)
        assert not report.found
        cert = build_no_slater_certificate(prob, xbar, slater_report=report)
        assert cert.max_residual <= 100 * 1e-9
        assert normal_K_contains(prob, xbar, -cert.zeta, 1e-9)

    def test_two_lps_given_a_slater_report(self, lp_calls):
        # one for the rewrite, one for the certificate
        pinned_by_equality = Problem(MeasureSpace(np.ones(3)), 2.0, np.zeros(3),
                                     np.ones(3), (), ((np.ones(3), 0.0),))
        for prob, xbar in (log_counterexample_model(8)[:2],
                           (pinned_by_equality, np.zeros(3))):
            report = find_slater(prob)
            del lp_calls[:]
            build_no_slater_certificate(prob, xbar, slater_report=report)
            assert len(lp_calls) == 2


class TestBadFunctional:
    """Slopes built on a certificate's support."""

    def test_log_profile_exact(self):
        prob, xbar, _ = log_counterexample_model(4)
        cert = build_no_slater_certificate(prob, xbar)
        z = build_bad_functional(prob, xbar, cert)
        expect = [math.log(1 / 8), math.log(3 / 8), math.log(5 / 8),
                  math.log(7 / 8)]
        np.testing.assert_allclose(z, expect, atol=0.0)

    def test_constant_profile(self):
        prob, xbar, _ = log_counterexample_model(3)
        cert = build_no_slater_certificate(prob, xbar)
        z = build_bad_functional(prob, xbar, cert, profile="constant")
        np.testing.assert_array_equal(z, [-1.0, -1.0, -1.0])

    def test_callable_profile(self):
        prob, xbar, _ = log_counterexample_model(2)
        cert = build_no_slater_certificate(prob, xbar)
        z = build_bad_functional(prob, xbar, cert,
                                 profile=lambda r, s: -float(r) / s)
        np.testing.assert_allclose(z, [-0.5, -1.0], atol=1e-15)

    def test_unknown_profile_rejected(self):
        prob, xbar, _ = log_counterexample_model(2)
        cert = build_no_slater_certificate(prob, xbar)
        with pytest.raises(PreconditionError):
            build_bad_functional(prob, xbar, cert, profile="cubic")

    def test_base_point_mismatch_rejected(self):
        prob, xbar, _ = log_counterexample_model(2)
        cert = build_no_slater_certificate(prob, xbar)
        with pytest.raises(PreconditionError):
            build_bad_functional(prob, xbar + 0.5, cert)


class TestRefinementStudy:
    """Minimal multiplier mass across discretization levels."""

    def test_log_law_exact(self):
        rep = refinement_study("log-counterexample", levels=(4, 16, 64, 256))
        for lv, a in zip(rep.levels, rep.alpha):
            assert a == pytest.approx(math.log(2 * lv), abs=1e-9)
        assert all(r <= 1e-9 for r in rep.residual)
        assert rep.slope == pytest.approx(1.0, abs=1e-9)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-9)
        assert "unbounded" in rep.description

    def test_control_stays_flat(self):
        rep = refinement_study("constant-control", levels=(4, 16, 64, 256))
        for a in rep.alpha:
            assert a == pytest.approx(1.0, abs=1e-9)
        assert abs(rep.slope) <= 1e-9

    def test_single_coarse_level(self):
        rep = refinement_study("log-counterexample", levels=(1,))
        assert rep.alpha[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_unknown_model_rejected(self):
        with pytest.raises(PreconditionError):
            refinement_study("no-such-model")

    def test_bad_levels_rejected(self):
        with pytest.raises(PreconditionError):
            refinement_study("log-counterexample", levels=())
        with pytest.raises(PreconditionError):
            refinement_study("log-counterexample", levels=(0, 4))

    def test_callable_model(self):
        rep = refinement_study(log_counterexample_model, levels=(2, 8))
        assert rep.alpha == (pytest.approx(math.log(4)),
                             pytest.approx(math.log(16)))

    def test_model_factories_feasible(self):
        for factory in (log_counterexample_model, constant_control_model):
            prob, xbar, grad = factory(5)
            assert prob.size == 5
            assert grad.shape == (5,)
            assert np.all(xbar == 0.0)


class TestShortReprs:
    """Result objects print their scalars and small per-constraint maps, not
    their arrays or nested results: callers format a repr eagerly (an
    f-string message), and the arrays made it several kB at 128 atoms."""

    def test_no_array_entries_at_128_atoms(self):
        prob, xbar, grad = log_counterexample_model(128)
        cert = build_no_slater_certificate(prob, xbar)
        kkt = recover_multipliers_linear(prob, xbar, grad)
        decomposition = sum_NK_NP_contains(prob, xbar, grad).decomposition
        for obj in (find_slater(prob), cert, cert.system, build_mfcq_system(prob), kkt,
                    kkt.multipliers, decomposition):
            text = repr(obj)
            assert text.startswith(type(obj).__name__ + "(")
            assert "array" not in text and "0.0078125" not in text, text[:200]
            assert len(text) < 400, len(text)
