"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs `run.py --trace 0` once per seed on each workload, one run at a time,
with the run length from BENCHMARK.json.  Prints, per workload and metric,
the median, the quartiles as `statistics.quantiles(values, n=4)` gives them
and the spread (Q3 - Q1) / median next to the metric's bound, and writes the
table, with each run's duration, to `.bench_out/spread-seeds<first>-<last>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for name in args.workload or names:
        runs, run_s = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            run_s.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                            "bound": bound, "values": values}
            print(f"{name:18s} {metric:12s} median {med:10.4f}  spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bound}", flush=True)
        table[name] = {"correct": all(r["correct"] for r in runs),
                       "failed": sum(r["failed"] for r in runs),
                       "attempted": sum(r["attempted"] for r in runs), "run_s": run_s,
                       "metrics": rows}
        print(f"{name:18s} correct {table[name]['correct']}  failed "
              f"{table[name]['failed']}/{table[name]['attempted']}  "
              f"longest run {max(run_s):.1f} s", flush=True)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    last = args.first_seed + args.runs - 1
    (ROOT / ".bench_out" / f"spread-seeds{args.first_seed}-{last}.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
