"""One workload in one fresh process: set-up, warm-up, timed loop, checks.

Started by ``run.py`` with BLAS and OpenMP pools pinned to one thread.
Prints one JSON line.  ``--mode setup`` stops after set-up and reports
only its time; ``--mode run`` also runs the timed loop; ``--trace 1`` runs
the loop untraced for half the time and then the same rounds traced, and
reports the per-layer metrics and the tracing overhead.

Set-up time runs from the first statement of this file, before numpy or
the package is imported, to the first timed question.  Interpreter
start-up is left out: no change to the package moves it.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Tail percentile of question time; every full-size run has well over a
#: hundred questions, so at least ten lie beyond it.
TAIL_PERCENTILE = 90

def import_package():
    """Import slaterkit from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC_DIR))
    import slaterkit

    where = Path(slaterkit.__file__).resolve()
    if SRC_DIR.resolve() not in where.parents:
        raise SystemExit(f"slaterkit imported from {where}, not from {SRC_DIR}")


class Loop:
    """Runs whole rounds, checks every answer as it comes, keeps the times."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.failed = 0
        self.unexpected = []
        self.faults = Counter()
        self.first_bytes = {}
        self.seen = Counter()

    def judge(self, q, answer):
        from checks import CheckError

        try:
            q.check(answer)
            if q.fingerprint is not None:
                data = q.fingerprint(answer)
                first = self.first_bytes.setdefault(q.key, data)
                if data != first:
                    raise CheckError("output differs from an earlier call on the same input")
        except CheckError as exc:
            self.failed += 1
            if q.fault is not None:
                self.faults[q.fault] += 1
            else:
                self.unexpected.append(f"{q.key}: {exc}")
        finally:
            if q.files is not None:
                for path in q.files(answer):
                    if os.path.exists(path):
                        os.remove(path)

    def ask(self, q):
        from workloads import Raised

        t = time.perf_counter()
        try:
            answer = q.ask()
        except Exception as exc:  # an escaping exception is the answer to check
            answer = Raised(exc)
        return time.perf_counter() - t, answer

    def run(self, seconds=None, rounds=None):
        """Whole rounds until ``seconds`` of question time or ``rounds`` rounds."""
        spent, done = 0.0, 0
        pool = self.workload.rounds
        while (rounds is None and spent < seconds) or (rounds is not None and done < rounds):
            for q in pool[done % len(pool)]:
                dt, answer = self.ask(q)
                self.times.append(dt)
                spent += dt
                self.seen[q.key] += 1
                self.judge(q, answer)
            done += 1
        return spent, done

    def recheck_singles(self):
        """Ask once more every file-writing question asked only once."""
        for q in self.workload.questions:
            if q.fingerprint is not None and self.seen[q.key] == 1:
                self.seen[q.key] += 1
                self.judge(q, self.ask(q)[1])


def question_metrics(times):
    ordered = sorted(times)
    n = len(ordered)
    tail = ordered[min(n - 1, (TAIL_PERCENTILE * n) // 100)]
    return {
        "questions_per_s": (n / sum(times), "1/s"),
        "question_p50_ms": (1e3 * statistics.median(ordered), "ms"),
        "question_tail_ms": (1e3 * tail, "ms"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    import_package()
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        out = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))


def measure(args, work_dir):
    import workloads
    from layers import Tracer

    wl = workloads.build(args.workload, args.seed, work_dir, args.tiny)
    # warm-up: every code path once, on the small sizes, untimed
    warm_dir = os.path.join(work_dir, "warm-up")
    os.mkdir(warm_dir)
    warm = workloads.build(args.workload, args.seed, warm_dir, tiny=True)
    Loop(warm).run(rounds=1)
    out = {"setup_s": time.perf_counter() - T0}
    if args.mode == "run":
        loop = Loop(wl)
        if args.trace:
            plain_s, rounds = loop.run(seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            start = len(loop.times)
            try:
                traced_s, _ = loop.run(rounds=rounds)
            finally:
                tracer.uninstall()
            metrics = tracer.per_question(len(loop.times) - start)
            metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
        else:
            loop.run(seconds=args.seconds)
            metrics = question_metrics(loop.times)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak, "MB")
        loop.recheck_singles()
        out.update(attempted=len(loop.times), failed=loop.failed,
                   faults=dict(loop.faults), unexpected=loop.unexpected[:20],
                   metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    for closer in wl.closers + warm.closers:
        closer.close()
    return out


if __name__ == "__main__":
    main()
