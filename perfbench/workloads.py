"""Workload table and traced-layer list of the zygdist benchmark.

Each workload is one `zygdist` command line.  Seed 0 runs the fixed specs
below; any other seed k turns every Weierstrass term into
`signs=random seed=k`, so a claim can be checked on inputs not used while a
change was written.  `reference.json` holds the outputs of the seed commit
for the seeds it was run on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from tracer import COUNTERS

REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]      # command and flags, without --spec and --out
    spec: str | None
    why: str
    uses: tuple[str, ...]      # traced functions this workload is predicted to call

    @property
    def command(self) -> str:
        return self.argv[0]

    def spec_for(self, seed: int) -> str | None:
        if self.spec is None or seed == REFERENCE_SEED:
            return self.spec
        return re.sub(r"signs=plus", f"signs=random seed={seed}", self.spec)

    def cli_argv(self, seed: int, out: str) -> list[str]:
        argv = list(self.argv)
        spec = self.spec_for(seed)
        if spec is not None:
            argv += ["--spec", spec]
        return argv + ["--out", out]


# Traced layers: module -> public functions wrapped from outside the package.
LAYERS: dict[str, tuple[str, ...]] = {
    "gridfn": ("synthesize", "bessel_lift"),
    "wavelet": ("analyze", "reconstruct", "filter_bank", "jbmo_box_sup"),
    "secdiff": ("holder_seminorm", "second_diff_field", "continuity_check"),
    "poisson": ("d2y_extension", "derivative_field", "holder_poisson_norm",
                "bmo_norm", "lipschitz_check"),
    "dyadic": ("enlarge", "threshold_set", "carleson_sup"),
    "distance": ("method_context", "epsilon_star", "compare_methods", "inclusion_probe"),
    "acceptance": tuple(f"criterion_{k}" for k in range(1, 11)),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Functions whose calls and memory are reported besides their self time;
# the criteria and cli.main report self time only.
_SELF_ONLY = {f"acceptance.criterion_{k}" for k in range(1, 11)} | {"cli.main"}


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for key in TRACED:
        out.append((f"{key}.self_s", "s"))
        if key not in _SELF_ONLY:
            out.append((f"{key}.calls", "count"))
            out.append((f"{key}.rss_gain_mb", "MB"))
        if key in COUNTERS:
            out.append((f"{key}.{COUNTERS[key][0]}", "count"))
    out += [
        ("acceptance.criteria_failed", "count"),
        ("cli.report_bytes", "bytes"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


_COMMON = ("gridfn.synthesize", "wavelet.filter_bank", "cli.main")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="distance-n1-j20",
        argv=("distance", "--n", "1", "--jgrid", "20", "--s", "1", "--jrange", "8:16"),
        spec="weierstrass s=1 levels=16 signs=plus",
        why="headline command at the n=1 grid limit: the Poisson spectral path does most "
            "of the work, the bisection little, enlarge none",
        uses=_COMMON + ("secdiff.second_diff_field", "poisson.d2y_extension",
                        "poisson.derivative_field", "wavelet.analyze",
                        "dyadic.threshold_set", "dyadic.carleson_sup",
                        "distance.method_context", "distance.epsilon_star",
                        "distance.compare_methods"),
    ),
    Workload(
        name="seminorms-n2-j10",
        argv=("seminorms", "--n", "2", "--jgrid", "10", "--s", "1"),
        spec="sum weierstrass s=1 levels=8 signs=plus + wavelet-atom l=3 j=4 k=5,9",
        why="same layers in 2-D at full resolution without bisection: second-difference "
            "stencils, the 2-D Poisson norm, the Bessel lift and both wavelet transforms",
        uses=_COMMON + ("gridfn.bessel_lift", "wavelet.analyze", "wavelet.reconstruct",
                        "wavelet.jbmo_box_sup", "secdiff.holder_seminorm",
                        "poisson.d2y_extension", "poisson.derivative_field",
                        "poisson.holder_poisson_norm", "poisson.bmo_norm"),
    ),
    Workload(
        name="inclusion-n2-j7",
        argv=("inclusion", "--n", "2", "--jgrid", "7", "--jrange", "3:5",
              "--source", "poisson", "--target", "secdiff"),
        spec="weierstrass s=1 levels=5 signs=plus",
        why="the only run of the n=2 KD-tree enlarge, which sets its time and peak memory; "
            "J=7 is the largest grid that completes",
        uses=_COMMON + ("secdiff.second_diff_field", "poisson.d2y_extension",
                        "poisson.derivative_field", "dyadic.enlarge",
                        "dyadic.threshold_set", "dyadic.carleson_sup",
                        "distance.method_context", "distance.epsilon_star",
                        "distance.inclusion_probe"),
    ),
    Workload(
        name="validate-suite",
        argv=("validate",),
        spec=None,
        why="many small n=1 calls, so cost per call matters more than array size; "
            "the only run of the samplers, the projection witness and the n=1 enlarge",
        uses=_COMMON + tuple(f"acceptance.criterion_{k}" for k in range(1, 11)) + (
            "gridfn.bessel_lift", "wavelet.analyze", "wavelet.reconstruct",
            "wavelet.jbmo_box_sup", "secdiff.holder_seminorm", "secdiff.second_diff_field",
            "secdiff.continuity_check", "poisson.d2y_extension", "poisson.derivative_field",
            "poisson.holder_poisson_norm", "poisson.bmo_norm", "poisson.lipschitz_check",
            "dyadic.enlarge", "dyadic.threshold_set", "dyadic.carleson_sup",
            "distance.method_context", "distance.epsilon_star",
            "distance.compare_methods", "distance.inclusion_probe"),
    ),
)}
