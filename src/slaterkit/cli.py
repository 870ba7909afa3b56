"""Command-line front end.

Every command reads JSON problem/point files, dispatches to the library,
and writes a canonical JSON report (stdout by default, ``--out FILE``
otherwise) plus a one-line human summary on stderr.  Exit codes: 0 for a
positive finding, 1 for usage or input errors, 2 for numerical failures,
3 for negative findings (infeasible, not found, no multipliers), 4 for
not-applicable outcomes.  The default tolerance is 1e-9, overridable by
the ``SLATERKIT_TOL`` environment variable, which in turn loses to an
explicit ``--tol`` flag.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .certificates import (
    MODELS,
    build_no_slater_certificate,
    refinement_study,
)
from .errors import (
    CertificateNotFoundError,
    ConstructionFailedError,
    DimensionMismatchError,
    EmptyPolyhedronError,
    FileFormatError,
    InconsistentEqualitiesError,
    InfeasiblePointError,
    InvalidGradientError,
    NumericalFailureError,
    PreconditionError,
    VoidProblemError,
)
from .fileio import canonical_json, load_point, load_problem, problem_to_dict
from .kkt import (
    recover_multipliers_linear,
    recover_multipliers_nonlinear,
    verify_stationarity,
)
from .model import DEFAULT_TOL, Problem, check_feasible
from .preprocess import build_mfcq_system
from .slater import find_linearized_slater, find_slater

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_NEGATIVE = 3
EXIT_NOT_APPLICABLE = 4


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse finished early (``--help``); ``args[0]`` is the exit code."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on errors; the contract here wants 1.  It
    also exits after printing ``--help``; :func:`main` returns instead."""

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _Exit(status)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process.  Building it costs more than most
    commands' file parsing, so in-process callers of :func:`main` share it;
    each ``parse_args`` returns a fresh namespace, and no handler may
    change the parser."""
    parser = _Parser(prog="slaterkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def add(name, help_text, point=False, point_required=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", required=True, metavar="FILE",
                       help="problem JSON file")
        if point:
            p.add_argument("--point", required=point_required, metavar="FILE",
                           help="point JSON file (a bare array)")
        p.add_argument("--tol", type=float, default=None,
                       help="working tolerance (default 1e-9 or SLATERKIT_TOL)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the JSON report here instead of stdout")
        return p

    add("check-feasible", "check a point against every constraint",
        point=True, point_required=True)
    add("find-slater", "search for a point strictly inside the box")
    add("find-linearized-slater",
        "interior search with active smooth constraints linearized",
        point=True, point_required=True)
    p = add("preprocess", "rewrite the linear system with a strict witness")
    p.add_argument("--out-problem", metavar="FILE", default=None,
                   help="write the rewritten system as a problem file")
    p = add("kkt", "recover first-order multipliers at a point",
            point=True, point_required=True)
    p.add_argument("--grad", metavar="FILE", default=None,
                   help="objective slope at the point (overrides the problem file)")
    add("certify", "build a density certifying that no interior point exists",
        point=True)

    p = sub.add_parser("refine", help="multiplier growth across refinement levels")
    p.add_argument("--model", default="log-counterexample",
                   help=f"built-in family ({', '.join(sorted(MODELS))})")
    p.add_argument("--levels", default="4,16,64,256",
                   help="comma-separated refinement levels")
    p.add_argument("--csv", metavar="FILE", default=None,
                   help="also write rows M,alpha_min,residual here")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("selftest", help="run the bundled acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    return parser


def _resolve_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        tol = args.tol
    else:
        env = os.environ.get("SLATERKIT_TOL")
        if env is None or env == "":
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise _UsageError(f"SLATERKIT_TOL is not a number: {env!r}") from None
    if not (tol > 0 and math.isfinite(tol)):
        raise _UsageError(f"tolerance must be a positive number, got {tol!r}")
    return tol


def _write_report(args, command: str, tol: float, payload) -> None:
    text = canonical_json({
        "schema_version": 1,
        "command": command,
        "tolerance": tol,
        "payload": payload,
    })
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _opt_list(v):
    return None if v is None else np.asarray(v, dtype=float).tolist()


def _slater_payload(report) -> dict:
    return {
        "status": report.status,
        "point": _opt_list(report.point),
        "margin": report.margin,
        "optimal_t": report.optimal_t,
        "feasible_point": _opt_list(report.feasible_point),
        "message": report.message,
        "diagnostics": report.diagnostics,
    }


def _cmd_check_feasible(args, tol):
    prob, _ = load_problem(args.problem)
    x = load_point(args.point)
    rep = check_feasible(prob, x, tol)
    payload = {
        "feasible": rep.feasible,
        "violations": [{"kind": v.kind, "index": v.index,
                        "residual": v.residual} for v in rep.violations],
    }
    _write_report(args, "check-feasible", tol, payload)
    if rep.feasible:
        _say("feasible within tolerance")
        return EXIT_OK
    _say(f"infeasible: {len(rep.violations)} violation(s), worst "
         f"{rep.violations[0].kind}[{rep.violations[0].index}] by "
         f"{rep.violations[0].residual:.3g}")
    return EXIT_NEGATIVE


def _cmd_find_slater(args, tol):
    prob, _ = load_problem(args.problem)
    report = find_slater(prob, tol)
    _write_report(args, "find-slater", tol, _slater_payload(report))
    if report.found:
        _say(f"interior point found, margin {report.margin:.3g}")
        return EXIT_OK
    _say(f"no interior point: {report.message}")
    return EXIT_NEGATIVE


def _cmd_find_linearized_slater(args, tol):
    prob, _ = load_problem(args.problem)
    x = load_point(args.point)
    report = find_linearized_slater(prob, x, tol)
    _write_report(args, "find-linearized-slater", tol, _slater_payload(report))
    if report.found:
        _say(f"linearized interior point found, margin {report.margin:.3g}")
        return EXIT_OK
    _say(f"no linearized interior point: {report.message}")
    return EXIT_NEGATIVE


def _cmd_preprocess(args, tol):
    prob, objective = load_problem(args.problem)
    sysm = build_mfcq_system(prob, tol)
    payload = {
        "n_ineq": len(sysm.ineq),
        "n_eq": len(sysm.eq),
        "witness": sysm.witness.tolist(),
        "witness_margin": sysm.witness_margin,
        "provenance": {str(k): v for k, v in sysm.provenance.items()},
        "eq_sources": [[kind, idx] for kind, idx in sysm.eq_sources],
        "dependencies": [[j, {str(k): c for k, c in combo.items()}]
                         for j, combo in sysm.dependencies],
    }
    _write_report(args, "preprocess", tol, payload)
    if args.out_problem:
        tilde = Problem(prob.space, prob.p, prob.lower, prob.upper,
                        sysm.ineq, sysm.eq, prob.nonlinear)
        _write_file(args.out_problem,
                    canonical_json(problem_to_dict(tilde, objective)))
    _say(f"kept {len(sysm.ineq)} inequalities, {len(sysm.eq)} equalities; "
         f"witness margin "
         + ("unconstrained" if math.isinf(sysm.witness_margin)
            else f"{sysm.witness_margin:.3g}"))
    return EXIT_OK


def _mult_payload(prob, x, grad, mult, tol) -> dict:
    rep = verify_stationarity(prob, x, grad, mult, tol)
    return {
        "zeta": mult.zeta.tolist(),
        "zeta_lower": mult.zeta_lower.tolist(),
        "zeta_upper": mult.zeta_upper.tolist(),
        "alpha": {str(k): v for k, v in sorted(mult.alpha.items())},
        "beta": mult.beta.tolist(),
        "gamma": {str(k): v for k, v in sorted(mult.gamma.items())},
        "stationarity": {
            "residual_max": rep.residual_max,
            "residual_dual_norm": rep.residual_dual_norm,
            "sign_violation": rep.sign_violation,
            "complementarity_lower": rep.complementarity_lower,
            "complementarity_upper": rep.complementarity_upper,
            "complementarity_ineq": rep.complementarity_ineq,
            "ok": rep.ok,
        },
    }


def _cmd_kkt(args, tol):
    prob, objective = load_problem(args.problem)
    x = load_point(args.point)
    if args.grad is not None:
        grad = load_point(args.grad)
    elif objective is not None:
        grad = objective["values"]
    else:
        raise _UsageError(
            "no objective slope: pass --grad or put objective_gradient / "
            "objective_linear in the problem file")
    if prob.nonlinear:
        outcome = recover_multipliers_nonlinear(prob, x, grad, tol)
    else:
        outcome = recover_multipliers_linear(prob, x, grad, tol)
    payload = {"status": outcome.status, "diagnostics": outcome.diagnostics}
    if outcome.multipliers is not None:
        payload["multipliers"] = _mult_payload(prob, x, grad,
                                               outcome.multipliers, tol)
    if outcome.direction is not None:
        payload["direction"] = outcome.direction.tolist()
    if outcome.slater_report is not None:
        payload["linearized_slater"] = _slater_payload(outcome.slater_report)
    _write_report(args, "kkt", tol, payload)
    if outcome.status == "found":
        _say("multipliers recovered")
        return EXIT_OK
    if outcome.status == "no_multipliers":
        _say("no multipliers exist; a feasible descent direction is reported")
        return EXIT_NEGATIVE
    _say("not applicable: no linearized interior point at this base point")
    return EXIT_NOT_APPLICABLE


def _cmd_certify(args, tol):
    prob, _ = load_problem(args.problem)
    x = load_point(args.point) if args.point else None
    report = find_slater(prob, tol)
    if report.found:
        _write_report(args, "certify", tol, {
            "status": "slater_found",
            "point": _opt_list(report.point),
            "margin": report.margin,
        })
        _say("an interior point exists; nothing to certify")
        return EXIT_NEGATIVE
    cert = build_no_slater_certificate(prob, x, tol, slater_report=report)
    payload = {
        "status": "certificate_built",
        "zeta": cert.zeta.tolist(),
        "lam": {str(k): v for k, v in sorted(cert.lam.items())},
        "mu": cert.mu.tolist(),
        "base_point": cert.base_point.tolist(),
        "sign_residual": cert.sign_residual,
        "combination_residual": cert.combination_residual,
        "support_positive": list(cert.support_positive),
        "support_negative": list(cert.support_negative),
        "peak_atom": cert.peak_atom,
        "rewrite": {
            "n_ineq": len(cert.system.ineq),
            "n_eq": len(cert.system.eq),
            "witness": cert.system.witness.tolist(),
            "witness_margin": cert.system.witness_margin,
        },
    }
    _write_report(args, "certify", tol, payload)
    _say(f"certificate built; peak density at atom {cert.peak_atom}")
    return EXIT_OK


def _cmd_refine(args, tol):
    try:
        levels = tuple(int(v) for v in str(args.levels).split(",") if v != "")
    except ValueError:
        raise _UsageError(f"--levels must be comma-separated integers, "
                          f"got {args.levels!r}") from None
    if not levels:
        raise _UsageError("--levels is empty")
    rep = refinement_study(args.model, levels, tol)
    payload = {
        "model": rep.model,
        "levels": list(rep.levels),
        "alpha": list(rep.alpha),
        "residual": list(rep.residual),
        "slope": rep.slope,
        "intercept": rep.intercept,
        "r_squared": rep.r_squared,
        "description": rep.description,
    }
    _write_report(args, "refine", tol, payload)
    if args.csv:
        _write_file(args.csv, "M,alpha_min,residual\n" + "".join(
            f"{m},{format(a, '.17g')},{format(r, '.17g')}\n"
            for m, a, r in zip(rep.levels, rep.alpha, rep.residual)))
    _say(rep.description)
    return EXIT_OK


def _cmd_selftest(args, tol):
    criteria = None
    if args.criteria:
        try:
            criteria = [int(v) for v in str(args.criteria).split(",") if v != ""]
        except ValueError:
            raise _UsageError(f"--criteria must be comma-separated integers, "
                              f"got {args.criteria!r}") from None
    from . import selftest  # loads the exact oracles; no other command needs them
    try:
        results = selftest.run(tol, criteria, emit=print)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    payload = {
        "results": [{"criterion": r.number, "name": r.name,
                     "passed": r.passed, "detail": r.detail,
                     "seconds": r.seconds} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.out:
        _write_report(args, "selftest", tol, payload)
    return EXIT_OK if payload["all_passed"] else EXIT_NUMERICAL


_HANDLERS = {
    "check-feasible": _cmd_check_feasible,
    "find-slater": _cmd_find_slater,
    "find-linearized-slater": _cmd_find_linearized_slater,
    "preprocess": _cmd_preprocess,
    "kkt": _cmd_kkt,
    "certify": _cmd_certify,
    "refine": _cmd_refine,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        tol = _resolve_tol(args)
        return _HANDLERS[args.command](args, tol)
    except _Exit as exc:
        return exc.args[0]
    except _UsageError as exc:
        _say(f"usage error: {exc}")
        return EXIT_USAGE
    except (FileFormatError, DimensionMismatchError, VoidProblemError,
            PreconditionError, InvalidGradientError) as exc:
        _say(f"input error: {exc}")
        return EXIT_USAGE
    except (EmptyPolyhedronError, InconsistentEqualitiesError,
            InfeasiblePointError) as exc:
        _say(f"negative finding: {exc}")
        return EXIT_NEGATIVE
    except (NumericalFailureError, CertificateNotFoundError,
            ConstructionFailedError) as exc:
        _say(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
