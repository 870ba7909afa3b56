"""The workloads: seeded question pools in rounds of fixed make-up.

A question is one instance answered completely.  ``Question.ask`` runs the
program and returns its answer (an exception it raises is the answer);
``Question.check`` judges that answer with :mod:`checks` alone.  A round
always holds the same kinds of question in the same numbers, so a run
made of whole rounds fails the same share of questions whatever the seed.

``build(name, seed, work_dir, tiny=False)`` builds a workload's pool:
the program's input objects (``MeasureSpace``, ``Problem``, problem
files) are all made here, during set-up.  ``tiny`` shrinks every size for
the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
import instances as gen
from checks import require

import slaterkit as sk
from slaterkit import cli

NAMES = ("interior-dense", "many-small", "cli-reports")

#: Fixed instances on which the program fails every time; seed-independent.
FAULT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "faults")
FAULT_FILES = ("implicit-pair-slack-lp", "certificate-lp-equalities")


class Raised:
    """An exception that escaped the program, kept as the answer."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


@dataclass
class Question:
    key: str
    ask: Callable[[], Any]
    check: Callable[[Any], None]
    fault: str | None = None
    #: bytes two answers to the same input must share (CLI report files)
    fingerprint: Callable[[Any], bytes] | None = None
    #: files an answer left behind, removed once it has been checked
    files: Callable[[Any], list] | None = None


@dataclass
class Workload:
    name: str
    rounds: list
    closers: list = field(default_factory=list)

    @property
    def questions(self):
        return [q for r in self.rounds for q in r]


def problem(inst: gen.Instance) -> sk.Problem:
    return sk.Problem(sk.MeasureSpace(inst.weights), 2.0, inst.lower, inst.upper,
                      inst.ineq, inst.eq)


def _not_raised(answer):
    require(not isinstance(answer, Raised), f"raised {answer!r}")


# ---------------------------------------------------------------------------
# library questions

def _check_slater_or_certificate(inst, rep, cert):
    if rep.found:
        checks.slater_point(inst, rep.point)
        return
    require(cert is not None, "no certificate after an empty interior search")
    checks.certificate(inst, cert.zeta, cert.lam, cert.mu, cert.base_point,
                       cert.system.provenance, cert.system.eq_sources)
    if inst.name == "log-counterexample":
        checks.log_density(cert.zeta)


def slater_question(inst, key) -> Question:
    """find_slater, then build_no_slater_certificate when nothing is found."""
    prob = problem(inst)

    def ask():
        rep = sk.find_slater(prob)
        cert = None if rep.found else sk.build_no_slater_certificate(
            prob, inst.base, slater_report=rep)
        return rep, cert

    def check(answer):
        _not_raised(answer)
        _check_slater_or_certificate(inst, *answer)

    return Question(key, ask, check)


def _check_kkt(inst, out):
    if out.found:
        mult = out.multipliers
        checks.multipliers(inst, mult.zeta, mult.alpha, mult.beta)
    else:
        require(out.status == "no_multipliers", f"kkt status {out.status}")
        checks.refutation(inst, out.direction)


def four_questions(inst, key, fault=None) -> Question:
    """Interior search, then certificate or rewrite, then multipliers."""
    prob = problem(inst)

    def ask():
        rep = sk.find_slater(prob)
        if rep.found:
            second = sk.build_mfcq_system(prob)
        else:
            second = sk.build_no_slater_certificate(prob, inst.base, slater_report=rep)
        return rep, second, sk.recover_multipliers_linear(prob, inst.base, inst.grad)

    def check(answer):
        _not_raised(answer)
        rep, second, out = answer
        if rep.found:
            checks.slater_point(inst, rep.point)
            checks.rewrite(inst, second.witness, second.witness_margin,
                           second.provenance, second.eq_sources)
        else:
            _check_slater_or_certificate(inst, rep, second)
        _check_kkt(inst, out)

    return Question(key, ask, check, fault)


# ---------------------------------------------------------------------------
# workloads

def interior_dense(seed, work_dir, tiny=False) -> Workload:
    """Dense margin LPs at one size: half planted interior, half pinned."""
    m = 16 if tiny else 128
    n_rounds = 2 if tiny else 40
    rng = np.random.default_rng([seed, 1])
    log_q = slater_question(gen.log_counterexample(m), f"log-{m}")
    rounds = []
    for r in range(n_rounds):
        rnd = [log_q]
        for k in range(7):
            pinned = k >= 4
            inst = gen.planted(rng, m, n_active=4 if pinned else 3, n_slack=3,
                               n_eq=2, pinned=pinned)
            rnd.append(slater_question(inst, f"r{r}-{k}"))
        rounds.append(rnd)
    return Workload("interior-dense", rounds)


def many_small(seed, work_dir, tiny=False) -> Workload:
    """Thousands of small instances, each asked all four questions.

    No opposite-row pairs: with implicit equalities in the system, about one
    slack-maximization LP in a thousand ends with a basic variable far below
    zero and a NumericalFailureError, on some seeds and not others, so the
    failed count would not repeat.  The LP per inequality of the rewrite
    still runs on every instance.  One fixed instance of that fault, and
    one of the certificate fault that equalities bring to pinned systems
    (see :func:`instances.planted`), run in every round as kept faults.
    The latter takes four times as long as a seeded question; sixteen
    seeded questions per round keep it above the tail percentile.
    """
    n_rounds = 2 if tiny else 80
    rng = np.random.default_rng([seed, 2])
    fixed = [four_questions(gen.rescaled_pinned_box(1e-12), "rescaled-1e-12",
                            fault="rescaled-weights")]
    for name in FAULT_FILES:
        inst = gen.load(os.path.join(FAULT_DIR, f"{name}.json"))
        fixed.append(four_questions(inst, name, fault=name))
    rounds = []
    for r in range(n_rounds):
        rnd = list(fixed)
        for k in range(16):
            pinned = k % 2 == 1
            inst = gen.planted(
                rng, int(rng.integers(4, 33)), n_active=8 if pinned else 5, n_slack=4,
                n_eq=3, pinned=pinned,
                kkt="multipliers" if k % 4 < 2 else "refute", one_sided_share=0.2)
            rnd.append(four_questions(inst, f"r{r}-{k}"))
        rounds.append(rnd)
    return Workload("many-small", rounds)


# ---------------------------------------------------------------------------
# cli-reports

def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _bound(v):
    return "inf" if v == math.inf else "-inf" if v == -math.inf else float(v)


def _problem_file(inst, path):
    _dump(path, {
        "p": 2, "weights": inst.weights.tolist(),
        "lower": [_bound(v) for v in inst.lower],
        "upper": [_bound(v) for v in inst.upper],
        "ineq": [{"g": np.asarray(g).tolist(), "a": float(a)} for g, a in inst.ineq],
        "eq": [{"h": np.asarray(h).tolist(), "b": float(b)} for h, b in inst.eq],
    })


def _call(argv, sink):
    """One in-process CLI call; an escaping exception is the answer."""
    try:
        with contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except Exception as exc:  # the CLI contract says this cannot happen
        return Raised(exc)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _payload(path):
    report = json.loads(_read(path))
    require(report.get("schema_version") == 1, "report lacks schema_version 1")
    return report["payload"]


def _int_keys(d):
    return {int(k): float(v) for k, v in d.items()}


def _files(answer):
    return [path for _, paths in answer.values() for path in paths]


def _fingerprint(answer):
    return b"".join(_read(path) for path in _files(answer))


def cli_instance_question(inst, stem, shifted, key, sink) -> Question:
    """Seven CLI calls on one problem file set.

    ``shifted`` is ``(atom, side)``: the base point moved one unit past
    that bound, written to ``<stem>.shifted.json``.
    """
    prob_f, base_f, grad_f, shifted_f = (
        f"{stem}.{part}.json" for part in ("problem", "base", "grad", "shifted"))
    atom, side = shifted
    tilde_f = f"{stem}.out.tilde.json"
    commands = {
        "check-feasible": ["check-feasible", "--problem", prob_f, "--point", base_f],
        "check-infeasible": ["check-feasible", "--problem", prob_f, "--point", shifted_f],
        "find-slater": ["find-slater", "--problem", prob_f],
        "find-linearized-slater": ["find-linearized-slater", "--problem", prob_f,
                                   "--point", base_f],
        "preprocess": ["preprocess", "--problem", prob_f, "--out-problem", tilde_f],
        "kkt": ["kkt", "--problem", prob_f, "--point", base_f, "--grad", grad_f],
        "certify": ["certify", "--problem", prob_f, "--point", base_f],
    }

    def ask():
        answer = {}
        for name, argv in commands.items():
            out = f"{stem}.out.{name}.json"
            answer[name] = (_call(argv + ["--out", out], sink), [out])
        answer["preprocess"][1].append(tilde_f)
        return answer

    def check(answer):
        for name, (code, _) in answer.items():
            require(not isinstance(code, Raised), f"{name} raised {code!r}")
        interior = inst.interior
        want = {"check-feasible": 0, "check-infeasible": 3,
                "find-slater": 0 if interior else 3,
                "find-linearized-slater": 0 if interior else 3, "preprocess": 0,
                "kkt": 0 if inst.has_multipliers else 3,
                "certify": 3 if interior else 0}
        for name, code in want.items():
            require(answer[name][0] == code,
                    f"{name} exited {answer[name][0]}, planted truth says {code}")
        report = {name: _payload(paths[0]) for name, (_, paths) in answer.items()}
        p = report["check-feasible"]
        require(p["feasible"] is True and p["violations"] == [], "base point reported infeasible")
        p = report["check-infeasible"]
        require(p["feasible"] is False
                and any(v["kind"] == side and v["index"] == atom for v in p["violations"]),
                "the shifted point's violation is not reported")
        for name in ("find-slater", "find-linearized-slater"):
            p = report[name]
            require(p["status"] == ("found" if interior else "not_found"),
                    f"{name} status {p['status']}")
            if interior:
                checks.slater_point(inst, p["point"])
        pre = report["preprocess"]
        provenance = {int(k): v for k, v in pre["provenance"].items()}
        sources = [tuple(s) for s in pre["eq_sources"]]
        checks.rewrite(inst, pre["witness"], pre["witness_margin"], provenance, sources)
        tilde = json.loads(_read(tilde_f))
        require(len(tilde["ineq"]) == pre["n_ineq"] and len(tilde["eq"]) == pre["n_eq"],
                "the rewritten problem file disagrees with the report")
        p = report["kkt"]
        if inst.has_multipliers:
            mult = p["multipliers"]
            checks.multipliers(inst, mult["zeta"], _int_keys(mult["alpha"]), mult["beta"])
            require(mult["stationarity"]["ok"] is True, "the report's stationarity check fails")
        else:
            checks.refutation(inst, p["direction"])
        p = report["certify"]
        if interior:
            require(p["status"] == "slater_found", f"certify status {p['status']}")
            checks.slater_point(inst, p["point"])
        else:
            require(p["status"] == "certificate_built", f"certify status {p['status']}")
            checks.certificate(inst, p["zeta"], _int_keys(p["lam"]), p["mu"],
                               p["base_point"], provenance, sources)

    return Question(key, ask, check, fingerprint=_fingerprint, files=_files)


def cli_refine_question(levels, stem, sink) -> Question:
    text = ",".join(str(v) for v in levels)

    def ask():
        answer = {}
        for model in ("log-counterexample", "constant-control"):
            out, csv = f"{stem}.{model}.json", f"{stem}.{model}.csv"
            answer[model] = (_call(["refine", "--model", model, "--levels", text,
                                    "--csv", csv, "--out", out], sink), [out, csv])
        return answer

    def check(answer):
        for model, (code, (out, csv)) in answer.items():
            require(code == 0, f"refine {model} exited {code!r}")
            p = _payload(out)
            checks.refinement(model, p["levels"], p["alpha"], p["residual"])
            rows = _read(csv).decode().splitlines()
            require(rows[0] == "M,alpha_min,residual" and len(rows) == len(levels) + 1,
                    "csv does not have one row per level")
            for row, lv, a in zip(rows[1:], p["levels"], p["alpha"]):
                m_s, a_s, _ = row.split(",")
                require(int(m_s) == lv and float(a_s) == a, "csv disagrees with the report")

    return Question("refine", ask, check, fingerprint=_fingerprint, files=_files)


def cli_nan_questions(work_dir, sink) -> list:
    """Two fixed files with a NaN where a real value is required.

    A correct CLI refuses them with exit code 1 (input error) or 2; it must
    neither claim a result nor let an exception escape.
    """
    prob_f, point_f, grad_f, base_f, out_f = (
        os.path.join(work_dir, f"nan.{part}.json")
        for part in ("problem", "point", "grad", "base", "out"))
    _dump(prob_f, {"p": 2, "weights": [0.5, 0.5], "lower": [0.0, 0.0],
                   "upper": [1.0, 1.0], "ineq": [{"g": [1.0, 1.0], "a": 1.0}], "eq": []})
    with open(point_f, "w", encoding="utf-8") as fh:
        fh.write("[NaN, 0.5]")
    with open(grad_f, "w", encoding="utf-8") as fh:
        fh.write("[NaN, 1.0]")
    _dump(base_f, [0.25, 0.5])

    def refused(answer):
        code = answer["call"][0]
        require(not isinstance(code, Raised), f"raised {code!r}")
        require(code in (1, 2), f"exited {code} on a NaN input")

    def asker(argv):
        return lambda: {"call": (_call(argv + ["--out", out_f], sink), [out_f])}

    return [
        Question("nan-point",
                 asker(["check-feasible", "--problem", prob_f, "--point", point_f]),
                 refused, fault="nan-point-feasible", files=_files),
        Question("nan-grad",
                 asker(["kkt", "--problem", prob_f, "--point", base_f, "--grad", grad_f]),
                 refused, fault="nan-grad-traceback", files=_files),
    ]


def cli_reports(seed, work_dir, tiny=False) -> Workload:
    """In-process CLI calls over a generated file set, reports via --out."""
    n_rounds = 2 if tiny else 12
    rng = np.random.default_rng([seed, 4])
    sink = open(os.devnull, "w")
    levels = (4, 16, 64) if tiny else (4, 16, 64, 256)
    fixed = [cli_refine_question(levels, os.path.join(work_dir, "refine"), sink)]
    fixed += cli_nan_questions(work_dir, sink)
    rounds = []
    for r in range(n_rounds):
        rnd = list(fixed)
        for k in range(12):
            m = int(rng.integers(24, 49))
            inst = gen.planted(rng, m, n_active=3, n_slack=2, n_eq=1, pinned=k % 2 == 1,
                               kkt="multipliers" if k % 4 < 2 else "refute",
                               one_sided_share=0.2)
            stem = os.path.join(work_dir, f"r{r}-{k}")
            _problem_file(inst, f"{stem}.problem.json")
            _dump(f"{stem}.base.json", inst.base.tolist())
            _dump(f"{stem}.grad.json", inst.grad.tolist())
            atom = int(rng.integers(0, m))
            side = "upper" if np.isfinite(inst.upper[atom]) else "lower"
            shifted = inst.base.copy()
            shifted[atom] = inst.upper[atom] + 1 if side == "upper" else inst.lower[atom] - 1
            _dump(f"{stem}.shifted.json", shifted.tolist())
            rnd.append(cli_instance_question(inst, stem, (atom, side), f"r{r}-{k}", sink))
        rounds.append(rnd)
    return Workload("cli-reports", rounds, closers=[sink])


BUILDERS = {
    "interior-dense": interior_dense,
    "many-small": many_small,
    "cli-reports": cli_reports,
}


def build(name, seed, work_dir, tiny=False) -> Workload:
    return BUILDERS[name](seed, work_dir, tiny)
