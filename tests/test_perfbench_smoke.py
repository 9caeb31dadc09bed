"""The benchmark still runs: every layer hook the traced run installs exists,
and every report and trace stream matches perfbench/golden.json. The
untraced oracle pass compares the reports (cycles, squashes, forwards) of
1,000 random-program runs with golden.json; criterion 10 checks only their
committed state. The per-layer counts find the names they wrap: one
`isa.assemble` per oracle program and one `isa.decode` per instruction."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from specsim.config import FORWARDING_POLICIES

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


# run apart from the suite: workloads.import_program replaces sys.modules' specsim
LAYER_COUNTS = """
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
from layers import Tracer
from workloads import Oracle, import_program
sim = import_program(root)
tracer = Tracer()
tracer.install(sim)
oracle = Oracle(sim, seed=1, programs=[0])
units = oracle.order()
for _, args in units:
    report, _ = oracle.run(args, False)
    assert oracle.check(args, report) is None, args
print(json.dumps({"units": [args[1] for _, args in units],
                  "instructions": len(oracle.assembled[0][0].instructions),
                  **{name: tracer.count(name) for name in (
                      "isa.assemble", "isa.decode", "reference.run_reference",
                      "core.step")}}))
"""


def test_layer_hooks_count_one_assemble_and_one_decode_per_instruction():
    proc = subprocess.run([sys.executable, "-c", LAYER_COUNTS, str(ROOT)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = json.loads(proc.stdout)
    assert counts["units"] == list(FORWARDING_POLICIES) and len(counts["units"]) == 5
    assert counts["instructions"] > 100
    assert counts["isa.assemble"] == counts["reference.run_reference"] == 1
    assert counts["isa.decode"] == counts["instructions"]
    assert counts["core.step"] > 0


def check_result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] > 0
