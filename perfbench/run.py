"""Benchmark of the zygdist command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each call of the workload's
`zygdist` command runs in a fresh interpreter (`worker.py`), one at a time,
until the calls have taken S seconds and at least two calls were made: a
closed loop of one client.  A call of the three heavy workloads takes 10-15 s,
so with the set-up samples their runs last about twice S.  Every call's
report is checked (`checks.py`).  The summary is printed, and the last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics, each the median over the run's
calls: `wall_s` (the call into `zygdist.cli.main`), `cpu_s` (user plus
system time of that call), `peak_rss_mb` (`ru_maxrss` of the call's
process) and `setup_s` (spawn until `zygdist.cli` is imported, over every
call's interpreter and 15 more that only import, run in groups of five before
the calls and the rest after the last, so that a drift of the machine's speed
reaches them as it reaches the calls).

--trace 1 alternates traced and untraced calls, starting with a traced one,
and reports the per-layer metrics (`workloads.layer_metrics`), each the
median over the traced calls.  `trace.overhead_s` is the time the tracer
spent in its own bookkeeping; the difference of the traced and untraced
`wall_s` medians goes to result.json only, since over a few calls it shows
the order of the calls more than the tracer.

The details of a run, with machine notes, go to
`.bench_out/<workload>-seed<N>-trace<T>/result.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check, extract
from workloads import REFERENCE_SEED, WORKLOADS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_CALLS = 2          # a call's wall time varies by up to ~10% on a shared 2-vCPU VM
SETUP_SAMPLES = 15     # import-only interpreters per untraced run, about 0.4 s each
SETUP_GROUP = 5        # of them run before each call
CALL_TIMEOUT_S = 160
RUN_BUDGET_S = 165     # no call starts that could end the run past this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker(extra: list[str]) -> tuple[dict, float]:
    """Run worker.py once; return its JSON result and the seconds it took."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC),
         "--spawned", repr(t0), *extra],
        capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), elapsed


def _call(workload, seed: int, traced: bool, out_dir: Path, ref: dict | None) -> dict:
    default_inputs = seed == REFERENCE_SEED or workload.spec is None
    res, elapsed = _worker(["--workload", workload.name, "--seed", str(seed),
                            "--out", str(out_dir), "--trace", str(int(traced))])
    reports = sorted(out_dir.glob(f"{workload.command}_*.json"))
    out = extract(workload.command, json.loads(reports[-1].read_text())) if reports else None
    attempted, failed, errors = check(workload.command, out, ref, res["exit_code"], default_inputs)
    res.update(traced=traced, elapsed_s=elapsed, outputs=out, attempted=attempted,
               failed=failed, errors=errors,
               report_bytes=sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.exists() else 0)
    return res


def _layer_values(res: dict) -> dict[str, float]:
    passed = (res["outputs"] or {}).get("passed", {})
    values = {**res["layers"], "cli.report_bytes": res["report_bytes"],
              "acceptance.criteria_failed": sum(not ok for ok in passed.values())}
    return {name: values[name] for name, _ in layer_metrics() if name in values}


def _machine(blas: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zygdist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(workload, seed: int, seconds: int, trace: bool) -> dict:
    reference = json.loads((BENCH_DIR / "reference.json").read_text()).get(workload.name, {})
    ref = reference.get(str(seed if workload.spec else REFERENCE_SEED))
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    warm, _ = _worker(["--setup-only"])    # fills the bytecode and file caches
    calls: list[dict] = []
    setup_only: list[float] = []

    def sample_setup(n: int):
        for _ in range(n):
            setup_only.append(_worker(["--setup-only"])[0]["setup_s"])

    t_start = time.monotonic()
    while True:
        if not trace:
            sample_setup(min(SETUP_GROUP, SETUP_SAMPLES - len(setup_only)))
        traced = trace and len(calls) % 2 == 0
        calls.append(_call(workload, seed, traced, run_dir / f"call{len(calls)}", ref))
        elapsed = sum(c["elapsed_s"] for c in calls)
        if elapsed >= seconds and len(calls) >= MIN_CALLS:
            break
        if time.monotonic() - t_start + max(c["elapsed_s"] for c in calls) > RUN_BUDGET_S:
            break
    if not trace:
        sample_setup(SETUP_SAMPLES - len(setup_only))
    setups = [c["setup_s"] for c in calls] + setup_only

    untraced = [c for c in calls if not c["traced"]]
    traced_calls = [c for c in calls if c["traced"]]
    if trace:
        per_call = [_layer_values(c) for c in traced_calls]
        traced_wall = statistics.median(c["wall_s"] for c in traced_calls)
        metrics = {name: {"value": statistics.median(v[name] for v in per_call), "unit": unit}
                   for name, unit in layer_metrics() if name in per_call[0]}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(c["wall_s"] for c in calls), "unit": "s"},
            "cpu_s": {"value": statistics.median(c["cpu_s"] for c in calls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in calls), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {
        "correct": all(c["failed"] == 0 for c in calls),
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "metrics": metrics,
    }
    details = {
        "workload": workload.name, "argv": workload.cli_argv(seed, "<out>"),
        "seed": seed, "seconds": seconds, "trace": trace, "reference_checked": ref is not None,
        "machine": _machine(warm.get("blas", {})), "setup_samples": setups,
        "calls": [{k: v for k, v in c.items() if k != "layers"} for c in calls],
        "result": result,
    }
    if trace:
        details["layers"] = _layer_report(workload, traced_calls, metrics, traced_wall)
        details["layers"]["traced_minus_untraced_wall_s"] = (
            traced_wall - statistics.median(c["wall_s"] for c in untraced) if untraced else None)
    (run_dir / "result.json").write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    _print_summary(details)
    return result


def _layer_report(workload, traced_calls: list[dict], metrics: dict, traced_wall: float) -> dict:
    """Self-time shares of the traced wall time and the predicted-use check."""
    self_s = {name[:-len(".self_s")]: m["value"] for name, m in metrics.items()
              if name.endswith(".self_s")}
    inclusive = {k: statistics.median(c["layers"][f"{k}.total_s"] for c in traced_calls)
                 for k in self_s}

    def shares(seconds: dict) -> list:     # [name, share of traced wall_s], largest first
        return [[k, v / traced_wall] for k, v in sorted(seconds.items(), key=lambda kv: -kv[1])
                if v > 0]

    called = {k[:-len(".calls")] for c in traced_calls
              for k, v in c["layers"].items() if k.endswith(".calls") and v > 0}
    return {
        "traced_wall_s": traced_wall,
        "overhead_s": metrics["trace.overhead_s"]["value"],
        "unaccounted_s": traced_wall - sum(self_s.values()) - metrics["trace.overhead_s"]["value"],
        "self_share": shares(self_s),
        "inclusive_share": shares(inclusive),
        "predicted_not_called": [k for k in workload.uses if k not in called],
        "called_not_predicted": sorted(called - set(workload.uses)),
        "missing": sorted({m for c in traced_calls for m in c["missing"]}),
    }


def _print_summary(details: dict):
    res = details["result"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"calls {len(details['calls'])}  reference checked: {details['reference_checked']}")
    for c in details["calls"]:
        print(f"  call {'traced  ' if c['traced'] else 'untraced'} wall {c['wall_s']:.3f} s  "
              f"cpu {c['cpu_s']:.3f} s  rss {c['peak_rss_mb']:.1f} MB  exit {c['exit_code']}  "
              f"ops {c['attempted']} failed {c['failed']}")
        for err in c["errors"]:
            print(f"    check failed: {err}")
    if "layers" in details:
        lay = details["layers"]
        print(f"  traced wall {lay['traced_wall_s']:.3f} s, tracing overhead "
              f"{lay['overhead_s']:.6f} s, not covered by self times and overhead "
              f"{lay['unaccounted_s']:.6f} s")
        for key, share in lay["self_share"][:8]:
            print(f"  {share:7.1%}  {key}")
        for label in ("predicted_not_called", "called_not_predicted", "missing"):
            if lay[label]:
                print(f"  {label.replace('_', ' ')}: {', '.join(lay[label])}")
    else:
        for name, m in res["metrics"].items():
            print(f"  {name:12s} {m['value']:.4f} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zygdist" / "cli.py").is_file():
        print(f"error: no zygdist source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
