"""Record golden.json: the sha256 of every unit's report JSON and trace stream.

    python3 perfbench/record.py

Runs every unit any seed can draw (all matrix cells, all sweep secrets, every
program of the oracle pool under every policy) once untraced and once with
the trace collected, and refuses to record if a unit fails its check or if
its report differs between the two runs. It also records each workload's
order-free digests for RECORD_SEED, with that seed. Re-record only for a
change that is meant to alter reports or traces, and say so with the change.
"""

import json
import sys

import workloads
from run import GOLDEN, ROOT, git_revision, report_json, sha256, trace_text, workload_digest

RECORD_SEED = 1


def record_workload(wl) -> tuple:
    """unit key -> (report digest, trace digest), or exit on a failed unit."""
    digests = {}
    for key, args in wl.order():
        report, _ = wl.run(args, False)
        reason = wl.check(args, report)
        traced, events = wl.run(args, True)
        reason = reason or wl.check(args, traced)
        if reason is None and report_json(traced) != report_json(report):
            reason = "report changes when the trace is collected"
        if reason is not None:
            sys.exit(f"{wl.name} {key}: {reason}; nothing recorded")
        digests[key] = (sha256(report_json(report)), sha256(trace_text(events)))
    return digests


def main() -> int:
    sim = workloads.import_program(ROOT)
    pools = {
        "matrix": workloads.Matrix(sim, 0),
        "oracle": workloads.Oracle(sim, 0, programs=range(workloads.ORACLE_POOL)),
        "sweep": workloads.Sweep(sim, 0),
    }
    out = {"revision": git_revision(), "workloads": {}, "report": {}, "trace": {}}
    for name, pool in pools.items():
        digests = record_workload(pool)
        out["report"][name] = {k: r[:16] for k, (r, _) in digests.items()}
        out["trace"][name] = {k: t[:16] for k, (_, t) in digests.items()}
        keys = [k for k, _ in workloads.WORKLOADS[name](sim, RECORD_SEED).units]
        out["workloads"][name] = {
            "seed": RECORD_SEED,
            "report_sha256": workload_digest({k: digests[k][0] for k in keys}),
            "trace_sha256": workload_digest({k: digests[k][1] for k in keys}),
        }
        print(f"{name}: {len(digests)} units recorded", file=sys.stderr)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
