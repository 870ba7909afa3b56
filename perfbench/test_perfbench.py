"""Tests of the benchmark itself: tiny runs pass, tampered answers fail.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import instances as gen  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

import slaterkit as sk  # noqa: E402

KEPT_FAULTS = {"rescaled-weights", "nan-point-feasible", "nan-grad-traceback",
               "implicit-pair-slack-lp", "certificate-lp-equalities"}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    wl = workloads.build(name, 5, str(tmp_path), tiny=True)
    for q in wl.questions:
        try:
            answer = q.ask()
        except Exception as exc:
            answer = workloads.Raised(exc)
        if q.fault is None:
            q.check(answer)
        else:
            assert q.fault in KEPT_FAULTS
            with pytest.raises(CheckError):
                q.check(answer)
    for closer in wl.closers:
        closer.close()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_rounds_have_a_fixed_make_up(name, tmp_path):
    wl = workloads.build(name, 9, str(tmp_path))
    make_up = {tuple(sorted(str(q.fault) for q in rnd)) for rnd in wl.rounds}
    assert len(make_up) == 1
    assert len({len(rnd) for rnd in wl.rounds}) == 1
    for closer in wl.closers:
        closer.close()


def _written(seed, path):
    path.mkdir()
    wl = workloads.build("cli-reports", seed, str(path), tiny=True)
    for closer in wl.closers:
        closer.close()
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_inputs_come_from_the_seed(tmp_path):
    first = _written(3, tmp_path / "a")
    assert first == _written(3, tmp_path / "b")
    assert first != _written(4, tmp_path / "c")


def _interior_instance():
    return gen.planted(np.random.default_rng(1), 12, n_active=3, n_slack=2, n_eq=1,
                       pinned=False, kkt="multipliers")


def _pinned_instance():
    return gen.planted(np.random.default_rng(2), 12, n_active=2, n_slack=2, n_eq=1,
                       pinned=True, kkt="refute")


def test_found_point_moved_onto_a_bound_is_rejected():
    inst = _interior_instance()
    rep = sk.find_slater(workloads.problem(inst))
    checks.slater_point(inst, rep.point)
    x = rep.point.copy()
    x[0] = inst.lower[0]
    with pytest.raises(CheckError):
        checks.slater_point(inst, x)


def test_certificate_with_one_sign_flipped_is_rejected():
    inst = _pinned_instance()
    prob = workloads.problem(inst)
    cert = sk.build_no_slater_certificate(prob)
    fields = (cert.lam, cert.mu, cert.base_point, cert.system.provenance,
              cert.system.eq_sources)
    checks.certificate(inst, cert.zeta, *fields)
    zeta = cert.zeta.copy()
    atom = int(np.argmax(np.abs(zeta)))
    zeta[atom] = -zeta[atom]
    with pytest.raises(CheckError):
        checks.certificate(inst, zeta, *fields)


def test_perturbed_multiplier_is_rejected():
    inst = _interior_instance()
    out = sk.recover_multipliers_linear(workloads.problem(inst), inst.base, inst.grad)
    mult = out.multipliers
    checks.multipliers(inst, mult.zeta, mult.alpha, mult.beta)
    alpha = dict(mult.alpha)
    k = next(iter(alpha))
    alpha[k] += 0.5
    with pytest.raises(CheckError):
        checks.multipliers(inst, mult.zeta, alpha, mult.beta)


def test_negated_refutation_direction_is_rejected():
    inst = _pinned_instance()
    out = sk.recover_multipliers_linear(workloads.problem(inst), inst.base, inst.grad)
    assert out.status == "no_multipliers"
    checks.refutation(inst, out.direction)
    with pytest.raises(CheckError):
        checks.refutation(inst, -out.direction)


def test_closed_forms_are_checked():
    with pytest.raises(CheckError):
        checks.log_density(np.full(16, 0.5))
    with pytest.raises(CheckError):
        checks.refinement("log-counterexample", [4, 16], [np.log(8), 3.0], [0.0, 0.0])
    checks.refinement("constant-control", [4, 16], [1.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("trace", [0, 1])
def test_worker_prints_one_result_line(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", "cli-reports",
         "--seed", "2", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, check=True)
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert res["unexpected"] == []
    rounds = res["attempted"] // 11  # a tiny round: 8 file sets, refine, 2 NaN files
    assert res["faults"] == {"nan-point-feasible": rounds, "nan-grad-traceback": rounds}
    assert res["failed"] == 2 * rounds
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if trace:
        assert res["metrics"]["cli.self_ms"]["value"] > 0
        assert res["metrics"]["fileio.bytes_out"]["value"] > 0
        assert set(res["metrics"]) == {m["name"] for m in declared["per_layer"]}
    else:
        # run.py adds setup_s, the median over several set-up processes
        assert set(res["metrics"]) | {"setup_s"} == {m["name"] for m in declared["end_to_end"]}
    assert not list(BENCH_DIR.glob(".work-*"))
