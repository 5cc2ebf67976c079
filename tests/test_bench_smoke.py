"""Toy-size run of the benchmark's time-stepping workloads: the stepper
passes the benchmark's own output checks (masses, H non-increasing, decay
rate, restart masses)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["relax-1d", "relax-2d"])
def test_benchmark_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, "rdbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
