"""Run the benchmark over several seeds and summarise each metric as its
median and quartiles; optionally append the summary to trajectory.json.

    python3 perfbench/trajectory.py --seeds 1-10 [--trace 0|1]
        [--label TEXT --record]

Runs one benchmark process at a time, seed-major, over every workload of
BENCHMARK.json for its run_seconds, and waits for each. For an end-to-end
metric the spread is (q3 - q1) / median, with the quartiles of
`statistics.quantiles(values, n=4)`; it is compared with the metric's bound in
BENCHMARK.json. The exit status is 1 if a run failed or was wrong, or a spread
exceeds its bound.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1]), took


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in names}
    contexts = {w: [] for w in names}
    bad = False
    for seed in seeds:
        for w in names:
            context, result, took = run_once(w, seed, bench["run_seconds"], args.trace)
            contexts[w].append(context)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} "
                      f"units failed", file=sys.stderr)
                bad = True
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"{w} seed {seed}: {took:.1f} s, {context['passes']} passes",
                  file=sys.stderr)

    point = {"label": args.label, "revision": contexts[names[0]][0]["git_revision"],
             "python": platform.python_version(), "nproc": contexts[names[0]][0]["nproc"],
             "date": time.strftime("%Y-%m-%d"), "seconds": bench["run_seconds"],
             "trace": args.trace, "seeds": seeds, "workloads": {}}
    for w in names:
        point["workloads"][w] = {}
        print(f"\n{w}")
        for name, vals in values[w].items():
            s = summarise(vals)
            point["workloads"][w][name] = s
            line = (f"  {name:<32} median {s['median']:>14.6g}  q1 {s['q1']:>14.6g}  "
                    f"q3 {s['q3']:>14.6g}")
            if name in bounds and s["median"]:
                spread = (s["q3"] - s["q1"]) / s["median"]
                over = spread > bounds[name]
                bad = bad or over
                line += (f"  spread {spread:.4f} / bound {bounds[name]}"
                         f"{'  OVER' if over else '  >1/3' if spread > bounds[name] / 3 else ''}")
            print(line)
        for kind in ("report_sha256", "trace_sha256"):
            digests = {c[kind] for c in contexts[w] if kind in c}
            if digests:
                print(f"  {kind} over {len(seeds)} seeds: {len(digests)} distinct")

    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
