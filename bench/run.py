"""tabrobust benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload attack-narrow --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. With --trace 0 the last line holds
the end-to-end metrics; with --trace 1 the per-layer metrics of a traced
run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_REPEATS = 17
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict:
    """Fix worker and BLAS thread counts; must run before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread counts were pinned")
    nproc = len(os.sched_getaffinity(0))
    os.environ["TABROBUST_WORKERS"] = "1"
    for var in _THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return {"nproc": nproc, "tabrobust_workers": 1, "blas_threads": min(BLAS_THREADS, nproc)}


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown'
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_source():
    """Put ./src and bench/ on the path and import from the checkout."""
    package = ROOT / "src" / "tabrobust" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package.relative_to(ROOT)} not found; run from a source checkout")
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import tabrobust

    if Path(tabrobust.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported tabrobust from {tabrobust.__file__}, not ./src")


def declared_metrics() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


class Run:
    """Counts operations and failures, and collects results."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.train_s: list[float] = []
        self.setup_digests: set[str] = set()

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"{type(e).__name__}: {e}")
            return None

    def setup(self):
        """Set up once more; every set-up must be identical."""
        start = time.perf_counter()
        s = self.workload.setup()
        self.setup_s.append(time.perf_counter() - start)
        self.train_s.append(s.train_s)
        self.setup_digests.add(s.digest())
        return s

    def same(self, first, again, what: str) -> None:
        if first is not None and again is not None and first.digest != again.digest:
            self.problems.append(f"{what}: digest {again.digest} != {first.digest}")


def untraced(run: Run, seconds: float) -> dict:
    w = run.workload
    s = run.setup()
    results = []
    measured = 0.0
    while not results or measured < seconds:
        start = time.perf_counter()
        results.append(run.attempt(w.op, s, len(results)))
        measured += time.perf_counter() - start
        # Spread the set-up repeats evenly over the run's time: the
        # machine's speed drifts over seconds, and the set-up figures
        # should not all fall in one phase.
        while len(run.setup_s) < 1 + (SETUP_REPEATS - 1) * min(1.0, measured / seconds):
            run.setup()
    if len(run.setup_digests) != 1:
        run.problems.append("set-ups with one seed differ")
    again = run.attempt(w.op, s, 0)  # determinism: the first operation once more
    run.same(results[0], again, "operation 0 repeated")
    done = [r for r in results + [again] if r is not None]
    for i, r in enumerate(results):
        if r is not None:
            print(json.dumps({"op": i, "attack_s": r.attack_s, "robust_accuracy": r.robust, "digest": r.digest}))
    if not done:
        raise SystemExit("error: every operation failed")

    # Rates pool all work over all time rather than taking a median:
    # the machine's speed switches between phases lasting seconds, and a
    # median of a few samples jumps from one phase to the other.
    attack_rows_per_s = sum(r.attack_rows for r in done) / sum(r.attack_s for r in done)
    if done[0].train_rows:
        train_rows_per_s = sum(r.train_rows for r in done) / sum(r.train_s for r in done)
    else:
        train_rows_per_s = s.train_rows * len(run.train_s) / sum(run.train_s)
    clean = done[0].clean_acc if done[0].clean_acc is not None else w.clean_acc(s)
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "attack_rows_per_s": (attack_rows_per_s, "rows/s"),
        "train_rows_per_s": (train_rows_per_s, "rows/s"),
        "clean_acc": (clean, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(run: Run) -> dict:
    from tracing import Tracer

    w = run.workload
    s = w.setup()
    start = time.perf_counter()
    plain = run.attempt(w.op, s, 0)
    plain_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        s = w.setup()
        op_start = time.perf_counter()
        first = run.attempt(w.op, s, 0)
        traced_op_s = time.perf_counter() - op_start
        for k in range(1, w.trace_ops):
            run.attempt(w.op, s, k)
        total_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    run.same(plain, first, "operation 0 with tracing on")
    missing = tracer.missing(w.name)
    if missing:
        run.problems.append(f"wrappers never fired: {missing}")
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_op_s / plain_s - 1.0
    metrics["trace.total_s"] = total_s
    units = {"calls": "count", "rows": "count", "nonfinite_rows": "count"}
    return {
        name: (value, units.get(name.rsplit(".", 1)[1], "s" if name.endswith("_s") else "frac"))
        for name, value in metrics.items()
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    env = pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_source()
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    env.update(
        git_commit=git_commit(),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
    )
    print(json.dumps({"env": env}), flush=True)

    end_to_end, per_layer = declared_metrics()
    run = Run(WORKLOADS[args.workload](args.seed))
    metrics = traced(run) if args.trace else untraced(run, args.seconds)
    expected = per_layer if args.trace else end_to_end
    if sorted(metrics) != sorted(expected):
        run.problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}"
        )
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
