"""One input contract at the public boundary (README, "Inputs").

Every public function that takes a per-atom array converts it through one
check: an array of the wrong shape raises DimensionMismatchError, and a NaN
or infinite entry gets the answer of the role the argument plays.  The
table lists each function once with a valid call and the role of each of
its per-atom arguments; the tests break one argument at a time and accept
only the role's documented error, so nothing else escapes.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import slaterkit as sk
from slaterkit import (
    DimensionMismatchError,
    InfeasiblePointError,
    InvalidGradientError,
    MeasureSpace,
    Multipliers,
    PreconditionError,
    Problem,
)
from slaterkit.fileio import load_point, load_problem

GOLDEN = Path(__file__).parent / "golden"

#: Answers to a non-finite entry that are not errors.
VIOLATION = "check_feasible reports a violation"
NOT_MEMBER = "is_member answers False"
NAN = "arithmetic: NaN in, NaN out"

#: Atom 0 in [0, inf), atom 1 in (-inf, 1], and x0 + x1 <= 1: an infinite
#: entry can point at a finite or at an infinite bound.
OPEN = Problem(MeasureSpace(np.ones(2)), 2.0, [0.0, -math.inf], [math.inf, 1.0],
               ((np.ones(2), 1.0),), ())
X = np.array([0.5, 0.5])  # on the row, off every bound
ZERO = np.zeros(2)
QUAD, _ = load_problem(str(GOLDEN / "quad.json"))
QUAD_X = load_point(str(GOLDEN / "quad_x.json"))
QUAD_GRAD = load_point(str(GOLDEN / "quad_grad.json"))
LOG, LOG_X, _ = sk.log_counterexample_model(2)
CERT = sk.build_no_slater_certificate(LOG, LOG_X)
MULT = sk.recover_multipliers_linear(OPEN, X, -np.ones(2)).multipliers
SYSTEM = sk.build_mfcq_system(OPEN)
PART = sk.regions(OPEN, X)


@dataclass(frozen=True)
class Case:
    """A public function, a valid call of it by keyword, and what a
    non-finite entry in each per-atom argument must produce."""

    call: object
    args: dict
    nonfinite: dict


CASES = {
    "pairing": Case(lambda g, x: sk.pairing(OPEN.space, g, x),
                    {"g": X, "x": X}, {"g": NAN, "x": NAN}),
    "lp_norm": Case(lambda x: sk.lp_norm(OPEN.space, x, 2.0), {"x": X}, {"x": NAN}),
    "QuadraticConstraint.value": Case(QUAD.nonlinear[0].value, {"x": QUAD_X}, {"x": NAN}),
    "QuadraticConstraint.grad": Case(QUAD.nonlinear[0].grad, {"x": QUAD_X}, {"x": NAN}),
    "check_feasible": Case(lambda x: sk.check_feasible(OPEN, x), {"x": X}, {"x": VIOLATION}),
    "regions": Case(lambda x: sk.regions(OPEN, x), {"x": X}, {"x": InfeasiblePointError}),
    "MfcqSystem.is_member": Case(SYSTEM.is_member, {"x": X}, {"x": NOT_MEMBER}),
    "tangent_K_contains": Case(
        lambda x, h: sk.tangent_K_contains(OPEN, x, h), {"x": X, "h": ZERO},
        {"x": InfeasiblePointError, "h": PreconditionError}),
    "radial_K_witness": Case(
        lambda x, h: sk.radial_K_witness(OPEN, x, h), {"x": X, "h": ZERO},
        {"x": InfeasiblePointError, "h": PreconditionError}),
    "normal_K_contains": Case(
        lambda x, zeta: sk.normal_K_contains(OPEN, x, zeta), {"x": X, "zeta": ZERO},
        {"x": InfeasiblePointError, "zeta": PreconditionError}),
    "tangent_P_contains": Case(
        lambda x, y: sk.tangent_P_contains(OPEN, x, y), {"x": X, "y": ZERO},
        {"x": InfeasiblePointError, "y": PreconditionError}),
    "decompose_into_normal_sum": Case(
        lambda xi, extra: sk.decompose_into_normal_sum(OPEN, PART, xi, [extra]),
        {"xi": np.ones(2), "extra": ZERO},
        {"xi": PreconditionError, "extra": InvalidGradientError}),
    "sum_NK_NP_contains": Case(
        lambda x, xi: sk.sum_NK_NP_contains(OPEN, x, xi), {"x": X, "xi": np.ones(2)},
        {"x": InfeasiblePointError, "xi": PreconditionError}),
    "closure_sequence": Case(
        lambda x, zeta_cert, xi: sk.closure_sequence(OPEN, x, zeta_cert, xi, 2.0),
        {"x": X, "zeta_cert": ZERO, "xi": ZERO},
        {"x": InfeasiblePointError, "zeta_cert": PreconditionError, "xi": PreconditionError}),
    "split_zeta": Case(
        lambda x, zeta: sk.split_zeta(OPEN, x, zeta), {"x": X, "zeta": ZERO},
        {"x": InfeasiblePointError, "zeta": PreconditionError}),
    "recover_multipliers_linear": Case(
        lambda xbar, grad_f: sk.recover_multipliers_linear(OPEN, xbar, grad_f),
        {"xbar": X, "grad_f": -np.ones(2)},
        {"xbar": InfeasiblePointError, "grad_f": InvalidGradientError}),
    "recover_multipliers_nonlinear": Case(
        lambda xbar, grad_f: sk.recover_multipliers_nonlinear(QUAD, xbar, grad_f),
        {"xbar": QUAD_X, "grad_f": QUAD_GRAD},
        {"xbar": InfeasiblePointError, "grad_f": InvalidGradientError}),
    "validate_gradients": Case(
        lambda xbar: sk.validate_gradients(QUAD, xbar), {"xbar": QUAD_X},
        {"xbar": PreconditionError}),
    "verify_stationarity": Case(
        lambda xbar, grad_f: sk.verify_stationarity(OPEN, xbar, grad_f, MULT),
        {"xbar": X, "grad_f": -np.ones(2)},
        {"xbar": PreconditionError, "grad_f": InvalidGradientError}),
    "interior_margin": Case(lambda x: sk.interior_margin(OPEN, x), {"x": X}, {"x": NAN}),
    "find_linearized_slater": Case(
        lambda xbar: sk.find_linearized_slater(QUAD, xbar), {"xbar": QUAD_X},
        {"xbar": InfeasiblePointError}),
    "density_construction": Case(
        lambda xbar, w: sk.density_construction(OPEN, xbar, w), {"xbar": X, "w": np.ones(2)},
        {"xbar": InfeasiblePointError, "w": PreconditionError}),
    "combine_slater": Case(
        lambda ring, tilde: sk.combine_slater(OPEN, ring, tilde, {0}),
        {"ring": np.full(2, 0.25), "tilde": np.full(2, 0.25)},
        {"ring": PreconditionError, "tilde": PreconditionError}),
    "build_no_slater_certificate": Case(
        lambda xbar: sk.build_no_slater_certificate(LOG, xbar), {"xbar": LOG_X},
        {"xbar": InfeasiblePointError}),
    "build_bad_functional": Case(
        lambda xbar: sk.build_bad_functional(LOG, xbar, CERT), {"xbar": LOG_X},
        {"xbar": PreconditionError}),
}

ROLES = [(name, arg) for name, case in CASES.items() for arg in case.args]
BAD_SHAPES = {"short": np.zeros(1), "long": np.zeros(3), "2-D": np.zeros((2, 2)),
              "ragged": [[0.0], [0.0, 0.0]]}


def _call(case, arg=None, value=None):
    args = dict(case.args)
    if arg is not None:
        args[arg] = value
    return case.call(**args)


def _with_entry(values, atom, entry):
    out = np.array(values, dtype=float)
    out[atom] = entry
    return out


@pytest.mark.parametrize("name", CASES)
def test_valid_call_passes(name):
    _call(CASES[name])


@pytest.mark.parametrize("shape", BAD_SHAPES)
@pytest.mark.parametrize("name, arg", ROLES)
def test_wrong_shape_raises_dimension_mismatch(name, arg, shape):
    with pytest.raises(DimensionMismatchError):
        _call(CASES[name], arg, BAD_SHAPES[shape])


@pytest.mark.parametrize("atom", [0, 1])
@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, arg", ROLES)
def test_nonfinite_entry_gets_its_role_answer(name, arg, entry, atom):
    case = CASES[name]
    role = case.nonfinite[arg]
    value = _with_entry(case.args[arg], atom, entry)
    if role == NAN:
        if math.isnan(entry):  # other non-finite arithmetic follows IEEE rules
            assert np.isnan(_call(case, arg, value)).any()
    elif role == VIOLATION:
        assert not _call(case, arg, value).feasible
    elif role == NOT_MEMBER:
        assert _call(case, arg, value) is False
    else:
        with pytest.raises(role):
            _call(case, arg, value)


def test_scalar_broadcasts():
    """A scalar stands for the constant array, as for the problem's bounds."""
    assert sk.interior_margin(OPEN, 0.5) == sk.interior_margin(OPEN, X)
    assert sk.tangent_K_contains(OPEN, X, 0.0)


class _FixedSlope:
    """An always-active smooth constraint whose ``grad`` returns ``slope``."""

    def __init__(self, slope):
        self.slope = slope

    def value(self, x):
        return 0.0

    def grad(self, x):
        return self.slope


@pytest.mark.parametrize("slope", [np.zeros(1), np.zeros(3), np.zeros((2, 2)),
                                   np.array([math.nan, 0.0]), np.array([0.0, math.inf])])
@pytest.mark.parametrize("use", ["validate", "linearize", "recover", "verify"])
def test_returned_slope_faults_are_invalid_gradients(slope, use):
    """A constraint's own slope of the wrong shape or not finite is the
    constraint's fault, whichever entry point asks for it."""
    prob = Problem(MeasureSpace(np.ones(2)), 2.0, ZERO, np.ones(2), (), (),
                   (_FixedSlope(slope),))
    hand_built = Multipliers(ZERO, ZERO, ZERO, {}, np.zeros(0), {0: 1.0})
    calls = {
        "validate": lambda: sk.validate_gradients(prob, X),
        "linearize": lambda: sk.find_linearized_slater(prob, X),
        "recover": lambda: sk.recover_multipliers_nonlinear(prob, X, ZERO),
        "verify": lambda: sk.verify_stationarity(prob, X, ZERO, hand_built),
    }
    with pytest.raises(InvalidGradientError):
        calls[use]()


class TestReproducers:
    """Inputs that were answered wrongly, or leaked a numpy error, before
    every per-atom array went through the one check."""

    def test_interior_margin_does_not_broadcast_a_short_point(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, ZERO, np.ones(2), (), ())
        for x in ([0.0], [0.5, 0.5, 0.5]):
            with pytest.raises(DimensionMismatchError):
                sk.interior_margin(prob, x)

    def test_verify_stationarity_does_not_broadcast(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, ZERO, np.ones(2),
                       ((np.ones(2), 1.0),), ())
        mult = sk.recover_multipliers_linear(prob, X, [-1.0, -1.0]).multipliers
        assert sk.verify_stationarity(prob, X, [-1.0, -1.0], mult).ok
        with pytest.raises(DimensionMismatchError):
            sk.verify_stationarity(prob, X, [-1.0], mult)
        with pytest.raises(DimensionMismatchError):
            sk.verify_stationarity(prob, [0.5], [-1.0, -1.0], mult)
        with pytest.raises(PreconditionError):
            sk.verify_stationarity(prob, [math.inf, 0.5], [-1.0, -1.0], mult)

    def test_nan_density_on_a_pinched_atom(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, ZERO, [0.0, 1.0], (), ())
        x, zeta = [0.0, 0.5], [math.nan, 0.0]
        with pytest.raises(PreconditionError):
            sk.normal_K_contains(prob, x, zeta)
        with pytest.raises(PreconditionError):
            sk.split_zeta(prob, x, zeta)

    def test_validate_gradients_base_point(self):
        with pytest.raises(PreconditionError):
            sk.validate_gradients(QUAD, [math.nan, math.nan])
        with pytest.raises(DimensionMismatchError):
            sk.validate_gradients(QUAD, [1.0])

    def test_closure_sequence_nan_certificate_with_an_active_row(self):
        prob = Problem(MeasureSpace(np.ones(2)), 2.0, ZERO, [0.0, 1.0],
                       ((np.array([1.0, 0.0]), 0.0),), ())
        with pytest.raises(PreconditionError):
            sk.closure_sequence(prob, [0.0, 0.5], [math.nan, 0.0], [1.0, 0.0], 2)

    def test_combine_slater_short_point(self):
        with pytest.raises(DimensionMismatchError):
            sk.combine_slater(OPEN, [0.0], X, [])

    def test_wrong_length_is_one_error_everywhere(self):
        with pytest.raises(DimensionMismatchError):
            sk.normal_K_contains(OPEN, X, np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            sk.density_construction(OPEN, np.zeros(3))
