"""The benchmark still runs: every layer hook the traced run installs exists,
and every report and trace stream matches perfbench/golden.json. The
untraced oracle pass compares the reports (cycles, squashes, forwards) of
1,000 random-program runs with golden.json; criterion 10 checks only their
committed state."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["matrix", "sweep"])
def test_traced_benchmark_matches_golden(workload):
    check_result(run_benchmark(workload, 1))


def test_untraced_oracle_matches_golden():
    check_result(run_benchmark("oracle", 0))


def check_result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] > 0
