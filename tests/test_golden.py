"""Byte-for-byte guard on the CLI reports of a recorded set of problem files.

Each case runs one command in-process with ``--out`` and compares the
report (and, for ``preprocess``, the ``--out-problem`` file) with the copy
recorded under ``tests/golden/reports``.  A change that alters a report on
purpose re-records it with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which reports changed and why.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from slaterkit import DEFAULT_TOL, Problem, check_feasible, pairing
from slaterkit.cli import main
from slaterkit.fileio import load_point, load_problem
from slaterkit.slater import interior_margin

GOLDEN = Path(__file__).parent / "golden"
REPORTS = GOLDEN / "reports"

#: case name -> (argv with file names relative to ``tests/golden``, exit code)
CASES = {
    "check-feasible-interior": (
        ["check-feasible", "--problem", "interior.json", "--point", "interior_x.json"], 0),
    "check-feasible-interior-out": (
        ["check-feasible", "--problem", "interior.json", "--point", "interior_x_out.json"], 3),
    "check-feasible-quad": (
        ["check-feasible", "--problem", "quad.json", "--point", "quad_x.json"], 0),
    "find-slater-interior": (["find-slater", "--problem", "interior.json"], 0),
    "find-slater-pinned": (["find-slater", "--problem", "pinned.json"], 3),
    "find-slater-pair": (["find-slater", "--problem", "pair.json"], 0),
    "find-slater-log4": (["find-slater", "--problem", "log4.json"], 3),
    "find-linearized-slater-quad": (
        ["find-linearized-slater", "--problem", "quad.json", "--point", "quad_x.json"], 0),
    "preprocess-interior": (["preprocess", "--problem", "interior.json"], 0),
    "preprocess-pinned": (["preprocess", "--problem", "pinned.json"], 0),
    "preprocess-pair": (["preprocess", "--problem", "pair.json",
                         "--out-problem", "{out_problem}"], 0),
    "kkt-interior": (["kkt", "--problem", "interior.json", "--point", "interior_x.json",
                      "--grad", "interior_grad.json"], 0),
    "kkt-interior-refute": (["kkt", "--problem", "interior.json", "--point",
                             "interior_x.json", "--grad", "interior_grad_refute.json"], 3),
    "kkt-pinned": (["kkt", "--problem", "pinned.json", "--point", "pinned_x.json",
                    "--grad", "pinned_grad.json"], 0),
    "kkt-log4": (["kkt", "--problem", "log4.json", "--point", "log4_x.json"], 0),
    "kkt-quad": (["kkt", "--problem", "quad.json", "--point", "quad_x.json",
                  "--grad", "quad_grad.json"], 0),
    "certify-pinned": (["certify", "--problem", "pinned.json", "--point", "pinned_x.json"], 0),
    "certify-pinned-default-point": (["certify", "--problem", "pinned.json"], 0),
    "certify-log4": (["certify", "--problem", "log4.json", "--point", "log4_x.json"], 0),
    "certify-interior": (["certify", "--problem", "interior.json"], 3),
    "refine-log": (["refine", "--model", "log-counterexample", "--levels", "4,16,64"], 0),
    "refine-control": (["refine", "--model", "constant-control", "--levels", "4,16"], 0),
}


def _run(name, out_dir: Path):
    """Run one case; returns the exit code and the files it wrote."""
    argv, _ = CASES[name]
    out = out_dir / f"{name}.json"
    written = [out]
    args = []
    for a in argv:
        if a == "{out_problem}":
            a = out_dir / f"{name}.problem.json"
            written.append(a)
        elif a.endswith(".json"):
            a = GOLDEN / a
        args.append(str(a))
    code = main(args + ["--out", str(out)])
    return code, written


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SLATERKIT_TOL", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    code, written = _run(name, tmp_path)
    assert code == CASES[name][1]
    for path in written:
        assert path.read_bytes() == (REPORTS / path.name).read_bytes(), path.name


#: cases whose report carries an interior point: a search that exits 0, and
#: ``certify`` exiting 3 because an interior point exists
FOUND_CASES = sorted(
    name for name, (argv, code) in CASES.items()
    if (argv[0], code) in (("find-slater", 0), ("find-linearized-slater", 0),
                           ("certify", 3)))


@pytest.mark.parametrize("name", FOUND_CASES)
def test_recorded_interior_point_is_interior(name):
    # a re-recorded report must not carry a wrong point
    payload = json.loads((REPORTS / f"{name}.json").read_text())["payload"]
    assert payload["status"] in ("found", "slater_found")
    argv = CASES[name][0]
    prob, _ = load_problem(str(GOLDEN / argv[argv.index("--problem") + 1]))
    x = np.array(payload["point"])
    if argv[0] == "find-linearized-slater":
        # the point is interior for the smooth constraints linearized at the
        # base point, not for the constraints themselves
        xbar = load_point(str(GOLDEN / argv[argv.index("--point") + 1]))
        for con in prob.nonlinear:
            if abs(con.value(xbar)) <= DEFAULT_TOL:
                assert pairing(prob.space, con.grad(xbar), x - xbar) < -DEFAULT_TOL
        prob = Problem(prob.space, prob.p, prob.lower, prob.upper, prob.ineq, prob.eq)
    assert check_feasible(prob, x, DEFAULT_TOL).feasible
    assert interior_margin(prob, x) > DEFAULT_TOL
    assert payload["margin"] > DEFAULT_TOL


def record():
    """Write every case's reports into ``tests/golden/reports``."""
    REPORTS.mkdir(exist_ok=True)
    for name in sorted(CASES):
        code, _ = _run(name, REPORTS)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit code {code}, expected {CASES[name][1]}")


if __name__ == "__main__":
    record()
