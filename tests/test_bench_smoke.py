"""Toy-size runs of the benchmark's workloads: the stepper passes the
benchmark's own output checks (masses, H non-increasing, decay rate,
restart masses), and the network path its decompose, equilibrium and gap
checks (0 < lambda* <= mode-0 gap), also with every public call traced."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_toy(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "rdbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--scale", "toy", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    return result["metrics"]


@pytest.mark.parametrize("workload", ["relax-1d", "relax-2d", "networks"])
def test_benchmark_workload_runs_clean(workload):
    run_toy(workload)


def test_traced_networks_run_binds_every_call():
    # the tracer wraps each public call by name, so a renamed one fails the run
    metrics = run_toy("networks", trace=1)
    for name in ("network.decompose", "equilibrium.detailed_balance_equilibrium",
                 "linearised.linearised_matrix", "linearised.weighted_spectrum"):
        assert metrics[f"{name}.calls"]["value"] > 0
