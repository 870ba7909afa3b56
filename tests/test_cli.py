"""Command-line front end: exit codes, reports, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slaterkit import log_counterexample_model, problem_to_dict, canonical_json
import slaterkit.lp
from slaterkit import cli
from slaterkit.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SLATERKIT_TOL", raising=False)


@pytest.fixture
def pinned4(tmp_path):
    """Problem file for the four-atom instance with no interior point."""
    prob, xbar, grad = log_counterexample_model(4)
    payload = problem_to_dict(prob, {"kind": "gradient", "values": grad})
    path = tmp_path / "pinned4.json"
    path.write_text(canonical_json(payload))
    xpath = tmp_path / "origin4.json"
    xpath.write_text(json.dumps(list(xbar)))
    return str(path), str(xpath)


@pytest.fixture
def open_box(tmp_path):
    """A two-atom box with plenty of room inside."""
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"weights": [1.0, 1.0], "lower": [0.0, 0.0],
                                "upper": [1.0, 1.0]}))
    xpath = tmp_path / "mid.json"
    xpath.write_text(json.dumps([0.5, 0.5]))
    return str(path), str(xpath)


def _report(capsys):
    out = capsys.readouterr().out
    return json.loads(out), out


class TestExitCodes:
    """Positive, negative, usage and not-applicable paths."""

    def test_check_feasible_pass(self, pinned4, capsys):
        prob, x = pinned4
        assert main(["check-feasible", "--problem", prob,
                     "--point", x]) == 0
        rep, _ = _report(capsys)
        assert rep["payload"]["feasible"] is True
        assert rep["command"] == "check-feasible"
        assert rep["schema_version"] == 1

    def test_check_feasible_fail(self, open_box, tmp_path, capsys):
        prob, _ = open_box
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([5.0, 0.5]))
        assert main(["check-feasible", "--problem", prob,
                     "--point", str(bad)]) == 3
        rep, _ = _report(capsys)
        assert rep["payload"]["feasible"] is False
        assert rep["payload"]["violations"][0]["kind"] == "upper"

    def test_find_slater_negative(self, pinned4, capsys):
        prob, _ = pinned4
        assert main(["find-slater", "--problem", prob]) == 3
        rep, _ = _report(capsys)
        assert rep["payload"]["status"] == "not_found"
        assert rep["payload"]["feasible_point"] == [0.0, 0.0, 0.0, 0.0]

    def test_find_slater_positive(self, open_box, capsys):
        prob, _ = open_box
        assert main(["find-slater", "--problem", prob]) == 0
        rep, _ = _report(capsys)
        assert rep["payload"]["status"] == "found"
        assert rep["payload"]["margin"] > 0.4

    def test_kkt_found(self, pinned4, capsys):
        prob, x = pinned4
        assert main(["kkt", "--problem", prob, "--point", x]) == 0
        rep, _ = _report(capsys)
        pay = rep["payload"]
        assert pay["status"] == "found"
        assert pay["multipliers"]["alpha"]["0"] == pytest.approx(
            math.log(8), abs=1e-9)

    def test_kkt_no_multipliers(self, open_box, tmp_path, capsys):
        prob, x = open_box
        grad = tmp_path / "g.json"
        grad.write_text(json.dumps([1.0, 0.0]))
        assert main(["kkt", "--problem", prob, "--point", x,
                     "--grad", str(grad)]) == 3
        rep, _ = _report(capsys)
        assert rep["payload"]["status"] == "no_multipliers"
        assert rep["payload"]["direction"] is not None

    def test_kkt_not_applicable(self, tmp_path, capsys):
        payload = {"weights": [1.0], "lower": [1.0], "upper": [2.0],
                   "quad_ineq": [{"Q": [[2.0]], "q": [0.0], "c": -1.0}],
                   "objective_gradient": [-2.0]}
        prob = tmp_path / "q.json"
        prob.write_text(json.dumps(payload))
        x = tmp_path / "x.json"
        x.write_text(json.dumps([1.0]))
        assert main(["kkt", "--problem", str(prob), "--point", str(x)]) == 4
        rep, _ = _report(capsys)
        assert rep["payload"]["status"] == "not_applicable"

    def test_nan_point_is_input_error(self, open_box, tmp_path, capsys):
        prob, _ = open_box
        for text in ("[NaN, 0.5]", "[Infinity, 0.5]"):
            bad = tmp_path / "nan.json"
            bad.write_text(text)
            assert main(["check-feasible", "--problem", prob,
                         "--point", str(bad)]) == 1
            assert capsys.readouterr().out == ""

    def test_nan_grad_is_input_error(self, open_box, tmp_path, capsys):
        prob, x = open_box
        grad = tmp_path / "g.json"
        grad.write_text("[NaN, 1.0]")
        assert main(["kkt", "--problem", prob, "--point", x,
                     "--grad", str(grad)]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_kkt_requires_some_slope(self, open_box):
        prob, x = open_box
        assert main(["kkt", "--problem", prob, "--point", x]) == 1

    def test_certify_builds(self, pinned4, capsys):
        prob, x = pinned4
        assert main(["certify", "--problem", prob, "--point", x]) == 0
        rep, _ = _report(capsys)
        pay = rep["payload"]
        assert pay["status"] == "certificate_built"
        assert pay["zeta"] == [1.0, 1.0, 1.0, 1.0]
        assert pay["sign_residual"] <= 1e-9
        assert pay["combination_residual"] <= 1e-9

    def test_certify_refuses_when_interior_exists(self, open_box, capsys):
        prob, _ = open_box
        assert main(["certify", "--problem", prob]) == 3
        rep, _ = _report(capsys)
        assert rep["payload"]["status"] == "slater_found"

    def test_infeasible_point_is_negative(self, open_box, tmp_path):
        prob, _ = open_box
        far = tmp_path / "far.json"
        far.write_text(json.dumps([9.0, 9.0]))
        assert main(["kkt", "--problem", prob, "--point", str(far),
                     "--grad", str(far)]) == 3

    def test_malformed_problem_is_usage(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"weights": [1.0,]}')
        assert main(["find-slater", "--problem", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 1 column" in err

    def test_missing_flag_is_usage(self, pinned4):
        prob, _ = pinned4
        assert main(["check-feasible", "--problem", prob]) == 1

    def test_unknown_model_is_usage(self):
        assert main(["refine", "--model", "no-such-model"]) == 1

    def test_bad_levels_is_usage(self):
        assert main(["refine", "--levels", "4,x"]) == 1


class TestPreprocess:
    """Rewriting the linear system from the command line."""

    def test_round_trip_is_fixed_point(self, tmp_path, capsys):
        raw = {"weights": [1.0, 1.0], "lower": [0.0, 0.0],
               "upper": [1.0, 1.0],
               "ineq": [{"g": [1.0, 1.0], "a": 1.0},
                        {"g": [-1.0, -1.0], "a": -1.0}]}
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(raw))
        tilde = tmp_path / "tilde.json"
        assert main(["preprocess", "--problem", str(src),
                     "--out-problem", str(tilde)]) == 0
        rep, _ = _report(capsys)
        assert rep["payload"]["n_ineq"] == 0
        assert rep["payload"]["n_eq"] == 1
        tags = set(rep["payload"]["provenance"].values())
        assert tags <= {"kept", "converted", "dropped"}

        assert main(["preprocess", "--problem", str(tilde)]) == 0
        rep2, _ = _report(capsys)
        assert rep2["payload"]["n_ineq"] == 0
        assert rep2["payload"]["n_eq"] == 1
        assert set(rep2["payload"]["provenance"].values()) <= {"kept"}


class TestRefine:
    """Refinement studies and their CSV export."""

    def test_csv_rows_exact(self, tmp_path, capsys):
        out = tmp_path / "law.csv"
        assert main(["refine", "--levels", "4,16", "--csv", str(out)]) == 0
        rep, _ = _report(capsys)
        assert rep["payload"]["alpha"][0] == pytest.approx(math.log(8))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["M", "alpha_min", "residual"]
        assert rows[1][0] == "4"
        assert float(rows[1][1]) == math.log(8)
        assert rows[2][0] == "16"
        assert float(rows[2][1]) == math.log(32)

    def test_control_model(self, capsys):
        assert main(["refine", "--model", "constant-control",
                     "--levels", "2,8"]) == 0
        rep, _ = _report(capsys)
        assert rep["payload"]["alpha"] == [1.0, 1.0]


class TestToleranceAndOutput:
    """Tolerance resolution and report plumbing."""

    def test_env_tolerance_applies(self, open_box, capsys, monkeypatch):
        prob, _ = open_box
        monkeypatch.setenv("SLATERKIT_TOL", "1e-6")
        assert main(["find-slater", "--problem", prob]) == 0
        rep, _ = _report(capsys)
        assert rep["tolerance"] == 1e-6

    def test_flag_beats_env(self, open_box, capsys, monkeypatch):
        prob, _ = open_box
        monkeypatch.setenv("SLATERKIT_TOL", "1e-6")
        assert main(["find-slater", "--problem", prob, "--tol", "1e-3"]) == 0
        rep, _ = _report(capsys)
        assert rep["tolerance"] == 1e-3

    def test_bad_tolerance_is_usage(self, open_box):
        prob, _ = open_box
        assert main(["find-slater", "--problem", prob, "--tol", "-1"]) == 1

    def test_out_file(self, pinned4, tmp_path, capsys):
        prob, x = pinned4
        out = tmp_path / "report.json"
        assert main(["certify", "--problem", prob, "--point", x,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        rep = json.loads(out.read_text())
        assert rep["payload"]["status"] == "certificate_built"

    def test_deterministic_stdout(self, pinned4, capsys):
        prob, x = pinned4
        main(["certify", "--problem", prob, "--point", x])
        first = capsys.readouterr().out
        main(["certify", "--problem", prob, "--point", x])
        second = capsys.readouterr().out
        assert first == second
        main(["kkt", "--problem", prob, "--point", x])
        third = capsys.readouterr().out
        main(["kkt", "--problem", prob, "--point", x])
        assert third == capsys.readouterr().out


class TestSelftest:
    """The bundled acceptance checks as a subcommand."""

    def test_single_criterion_passes(self, capsys):
        assert main(["selftest", "--criteria", "1"]) == 0
        out = capsys.readouterr().out
        assert "criterion 1 PASS" in out

    def test_loose_tolerance_fails_honestly(self, capsys):
        assert main(["selftest", "--criteria", "1", "--tol", "10"]) == 2
        out = capsys.readouterr().out
        assert "criterion 1 FAIL" in out

    def test_env_tolerance_reaches_selftest(self, capsys, monkeypatch):
        monkeypatch.setenv("SLATERKIT_TOL", "10")
        assert main(["selftest", "--criteria", "1"]) == 2
        monkeypatch.setenv("SLATERKIT_TOL", "10")
        assert main(["selftest", "--criteria", "1", "--tol", "1e-9"]) == 0


class TestOversizedProgram:
    """An LP too large for the dense kernel is a numerical failure, exit 2."""

    def test_refused_with_one_line(self, open_box, capsys, monkeypatch):
        monkeypatch.setattr(slaterkit.lp, "_MAX_TABLEAU_BYTES", 64)
        prob, _ = open_box
        assert main(["find-slater", "--problem", prob]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "too large" in err


class TestHelp:
    """``--help`` prints the help to stdout and returns 0 instead of exiting."""

    @pytest.mark.parametrize("argv, marker", [
        (["find-slater", "--help"], "--problem"),
        (["-h"], "find-slater"),
    ])
    def test_help_returns_zero(self, argv, marker, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: slaterkit") and marker in out


class TestOutputPaths:
    """An output file that cannot be written is a usage error, not a traceback."""

    def _refused(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write ")
        assert len(err.splitlines()) == 1

    def test_out(self, open_box, tmp_path, capsys):
        prob, _ = open_box
        self._refused(["find-slater", "--problem", prob,
                       "--out", str(tmp_path / "absent" / "r.json")], capsys)

    def test_out_problem(self, open_box, tmp_path, capsys):
        prob, _ = open_box
        self._refused(["preprocess", "--problem", prob, "--out", str(tmp_path / "r.json"),
                       "--out-problem", str(tmp_path / "absent" / "p.json")], capsys)

    def test_csv(self, tmp_path, capsys):
        self._refused(["refine", "--levels", "4", "--out", str(tmp_path / "r.json"),
                       "--csv", str(tmp_path / "absent" / "law.csv")], capsys)


def _fresh_process(argv, env_tol=None):
    """Exit code and stdout of ``argv`` as the first call of a new process."""
    env = {k: v for k, v in os.environ.items() if k != "SLATERKIT_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_tol is not None:
        env["SLATERKIT_TOL"] = env_tol
    proc = subprocess.run([sys.executable, "-m", "slaterkit", *argv],
                          capture_output=True, env=env, timeout=120, check=False)
    return proc.returncode, proc.stdout.decode("utf-8")


class TestInProcessReuse:
    """Calls of ``main`` in one process share a parser and nothing else."""

    def _same_as_fresh(self, argv, capsys, env_tol=None):
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out) == _fresh_process(argv, env_tol)
        return code, out

    def test_parser_built_once(self, open_box, capsys):
        prob, _ = open_box
        main(["find-slater", "--problem", prob])
        main(["find-slater", "--problem", prob, "--tol", "1e-6"])
        capsys.readouterr()
        info = cli._build_parser.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_tolerance_flag_does_not_stick(self, open_box, capsys):
        prob, _ = open_box
        _, out = self._same_as_fresh(["find-slater", "--problem", prob,
                                      "--tol", "1e-6"], capsys)
        assert json.loads(out)["tolerance"] == 1e-6
        _, out = self._same_as_fresh(["find-slater", "--problem", prob], capsys)
        assert json.loads(out)["tolerance"] == 1e-9

    def test_environment_read_per_call(self, open_box, capsys, monkeypatch):
        prob, _ = open_box
        monkeypatch.setenv("SLATERKIT_TOL", "1e-6")
        _, out = self._same_as_fresh(["find-slater", "--problem", prob], capsys,
                                     env_tol="1e-6")
        assert json.loads(out)["tolerance"] == 1e-6
        monkeypatch.delenv("SLATERKIT_TOL")
        _, out = self._same_as_fresh(["find-slater", "--problem", prob], capsys)
        assert json.loads(out)["tolerance"] == 1e-9

    def test_usage_error_then_valid_call(self, open_box, capsys):
        prob, x = open_box
        assert self._same_as_fresh(["check-feasible", "--problem", prob],
                                   capsys) == (1, "")
        code, _ = self._same_as_fresh(["check-feasible", "--problem", prob,
                                       "--point", x], capsys)
        assert code == 0

    def test_out_problem_does_not_stick(self, tmp_path, capsys):
        src = tmp_path / "raw.json"
        src.write_text(json.dumps({
            "weights": [1.0, 1.0], "lower": [0.0, 0.0], "upper": [1.0, 1.0],
            "ineq": [{"g": [1.0, 1.0], "a": 1.0}, {"g": [-1.0, -1.0], "a": -1.0}]}))
        here, there = tmp_path / "here.json", tmp_path / "there.json"
        code = main(["preprocess", "--problem", str(src), "--out-problem", str(here)])
        out = capsys.readouterr().out
        assert (code, out) == _fresh_process(
            ["preprocess", "--problem", str(src), "--out-problem", str(there)])
        assert here.read_bytes() == there.read_bytes()
        here.unlink()
        self._same_as_fresh(["preprocess", "--problem", str(src)], capsys)
        assert not here.exists()
