"""Span tracer that wraps zygdist's public functions from outside the package.

A function is bound in its own module and, through `from .x import f`, in
others (`distance` holds `dyadic.enlarge`, `cli` holds `gridfn.synthesize`),
and `acceptance.CRITERIA` holds the criteria in a dict.  `Tracer.install`
replaces every such binding across the loaded `zygdist.*` modules and
`uninstall` puts the originals back.

Per function it records self time (span duration minus the time its child
spans cover), inclusive time and the rise of the process's peak RSS over its
outermost calls, the number of calls, and a work count for a few functions.

The tracer also times its own bookkeeping: each wrapper's work before and
after the wrapped call, the work counts included.  That sum is the tracing
overhead (`trace.overhead_s`).  A parent span counts a child's whole wrapper
as child time, so the overhead is in no span's self time, and the self times
plus the overhead add up to the traced call's wall time.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from dataclasses import dataclass


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class SpanStats:
    self_s: float = 0.0
    total_s: float = 0.0   # inclusive time of the outermost calls
    calls: int = 0
    rss_gain_kb: int = 0
    count: int = 0     # work count, for the functions in COUNTERS
    active: int = 0    # calls of this function currently on the stack


def _cells(result) -> int:
    return result.cell_count


def _probes(result) -> int:
    return len(result.trace)


# Work counts taken from a function's return value: key -> (metric suffix, count).
COUNTERS = {
    "dyadic.enlarge": ("cells_out", _cells),
    "dyadic.threshold_set": ("cells", _cells),
    "distance.epsilon_star": ("probes", _probes),
}


class Tracer:
    def __init__(self, targets):
        self.stats = {key: SpanStats() for key in targets}
        self.missing: list[str] = []
        self.overhead_s = 0.0                # time spent in the wrappers' bookkeeping
        self._stack: list[float] = []       # child time of each open span
        self._patches: list[tuple[dict, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        _, counter = COUNTERS.get(key, (None, None))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            e0 = clock()
            outermost = stat.active == 0
            stat.active += 1
            rss0 = _maxrss_kb() if outermost else 0
            stack.append(0.0)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.self_s += dt - stack.pop()
                stat.calls += 1
                stat.active -= 1
                if outermost:
                    stat.total_s += dt
                    stat.rss_gain_kb += _maxrss_kb() - rss0
                if returned and counter is not None:
                    stat.count += counter(result)
                e1 = clock()
                self.overhead_s += (t0 - e0) + (e1 - t1)
                if stack:
                    stack[-1] += e1 - e0

        return traced

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "zygdist" or name.startswith("zygdist."))]
        for key in self.stats:
            mod_name, fn_name = key.rsplit(".", 1)
            original = getattr(importlib.import_module(f"zygdist.{mod_name}"), fn_name, None)
            if original is None:
                self.missing.append(key)
                continue
            wrapper = self._wrap(key, original)
            for mod in modules:
                namespace = vars(mod)
                for name, value in list(namespace.items()):
                    if value is original:
                        self._patch(namespace, name, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)
        return self

    def _patch(self, container: dict, key, value):
        self._patches.append((container, key, container[key]))
        container[key] = value

    def uninstall(self):
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def per_layer(self) -> dict[str, float]:
        """Flat `<module>.<function>.<stat>` values for every target."""
        out: dict[str, float] = {}
        for key, st in self.stats.items():
            out[f"{key}.self_s"] = st.self_s
            out[f"{key}.total_s"] = st.total_s
            out[f"{key}.calls"] = st.calls
            out[f"{key}.rss_gain_mb"] = st.rss_gain_kb / 1024.0
            if key in COUNTERS:
                out[f"{key}.{COUNTERS[key][0]}"] = st.count
        out["trace.spans"] = sum(st.calls for st in self.stats.values())
        out["trace.overhead_s"] = self.overhead_s
        return out
