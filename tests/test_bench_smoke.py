"""One-second traced runs of both bench workloads. A traced run fails if
a wrapper in `bench/tracing.py` never fires on a workload that must
reach it, or if an operation's digest differs from its untraced run; the
result line then reads `correct: false` or counts a failure."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["attack-narrow", "defend-attack-wide"])
def test_traced_bench_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "301",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
