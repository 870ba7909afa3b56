"""Run one benchmark workload (or all three) and print its metrics as JSON.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 15 --trace 0

Each workload runs in fresh worker processes, one after another, with
BLAS and OpenMP pools pinned to one thread.  Untraced (``--trace 0``): a
few set-up-only processes and one measuring process, reporting set-up time
as the median over all of them, plus the question-time metrics and peak
RSS of the measuring process.  Traced (``--trace 1``): one process that
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` prints one such line per
workload and then a combined one whose metric names carry the workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SRC_PACKAGE = BENCH_DIR.parent / "src" / "slaterkit"
WORKLOADS = ("interior-dense", "many-small", "cli-reports")

#: Set-up-only processes per untraced run, besides the measuring one.
SETUP_ONLY_RUNS = 2
#: A worker that takes longer than this is stopped and the run fails.
WORKER_TIMEOUT_S = 150

SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class RunFailed(Exception):
    pass


def worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    env.pop("SLATERKIT_TOL", None)  # the CLI would read it; reports use the default
    env.pop("PYTHONPATH", None)
    return env


def call_worker(workload, seed, seconds, trace, mode):
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--mode", mode]
    try:
        done = subprocess.run(argv, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: worker took longer than {WORKER_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """One workload's result: correct, attempted, failed and metrics."""
    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_RUNS):
            setups.append(call_worker(workload, seed, seconds, trace, "setup")["setup_s"])
    res = call_worker(workload, seed, seconds, trace, "run")
    metrics = dict(res["metrics"])
    if not trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in res["unexpected"]:
        print(f"{workload}: unexpected failure: {line}", file=sys.stderr)
    return {"correct": not res["unexpected"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not SRC_PACKAGE.is_dir():
        print(f"no package sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps(dict(res, workload=name)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
