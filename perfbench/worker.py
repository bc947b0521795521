"""One benchmark call in a fresh interpreter; `run.py` spawns it.

It imports `zygdist.cli` from the given source tree, optionally installs the
tracer, calls `zygdist.cli.main(argv)` once and prints one JSON line last:
set-up time (spawn to `zygdist.cli` imported, from the parent's monotonic
clock reading), wall and CPU time of the call, peak RSS of the process and,
when traced, the per-function stats.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _blas() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import zygdist.cli as cli

    setup_s = time.monotonic() - args.spawned
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"error: zygdist imported from {cli.__file__}, not {args.src}", file=sys.stderr)
        return 3
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        result["blas"] = _blas()
        print(json.dumps(result))
        return 0

    from tracer import Tracer
    from workloads import TRACED, WORKLOADS

    workload = WORKLOADS[args.workload]
    argv = workload.cli_argv(args.seed, args.out)
    tracer = Tracer(TRACED).install() if args.trace else None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    exit_code = cli.main(argv)
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        exit_code=exit_code,
        wall_s=wall_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.per_layer()
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
