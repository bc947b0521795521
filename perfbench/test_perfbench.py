"""Tests of the benchmark's tracer, output checks and metric list.

    python3 -m pytest perfbench -q

The tracer tests run each workload's command at a smaller grid: the same
code paths as the timed workloads, in a few seconds.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import zygdist.cli as cli  # noqa: E402
from checks import check  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import TRACED, WORKLOADS, layer_metrics  # noqa: E402

SMALL = {
    "distance-n1-j20": ["distance", "--n", "1", "--jgrid", "12", "--s", "1", "--jrange", "6:10",
                        "--spec", "weierstrass s=1 levels=9 signs=plus"],
    "seminorms-n2-j10": ["seminorms", "--n", "2", "--jgrid", "7", "--s", "1",
                         "--spec", "sum weierstrass s=1 levels=5 signs=plus + "
                                   "wavelet-atom l=3 j=3 k=2,5"],
    "inclusion-n2-j7": ["inclusion", "--n", "2", "--jgrid", "6", "--jrange", "3:4",
                        "--source", "poisson", "--target", "secdiff",
                        "--spec", "weierstrass s=1 levels=4 signs=plus"],
    "validate-suite": ["validate"],
}
REFERENCE = {name: refs["0"] for name, refs in
             json.loads((BENCH_DIR / "reference.json").read_text()).items()}


def _report(out_dir: Path) -> dict:
    (path,) = out_dir.glob("*.json")
    report = json.loads(path.read_text())
    report.pop("timestamp")
    for r in report.get("results", []):
        r.pop("seconds")     # validate records each criterion's run time
    return report


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced_and_calls_predicted_layers(name, tmp_path):
    out = tmp_path / "out"
    argv = SMALL[name] + ["--out", str(out)]
    code = cli.main(argv)
    plain = _report(out)
    with Tracer(TRACED) as tracer:
        t0 = time.perf_counter()
        assert cli.main(argv) == code
        wall_s = time.perf_counter() - t0
    assert _report(out) == plain
    called = {key for key, st in tracer.stats.items() if st.calls}
    assert set(WORKLOADS[name].uses) <= called
    assert not tracer.missing
    # Self times plus the tracer's own bookkeeping make up the traced wall time.
    self_s = sum(st.self_s for st in tracer.stats.values())
    assert tracer.overhead_s > 0
    assert abs(wall_s - self_s - tracer.overhead_s) < 1e-3


def _bindings() -> dict[tuple[str, str], object]:
    """Every value bound in a zygdist module's namespace or in a dict there."""
    found = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "zygdist" or mod_name.startswith("zygdist.")):
            continue
        for name, value in vars(mod).items():
            found[(mod_name, name)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    found[(mod_name, f"{name}[{k!r}]")] = v
    return found


def test_tracer_replaces_and_restores_every_binding():
    import zygdist.acceptance  # noqa: F401  (loads every module the tracer patches)

    before = _bindings()
    originals = {id(getattr(sys.modules[f"zygdist.{key.rsplit('.', 1)[0]}"], key.rsplit(".", 1)[1]))
                 for key in TRACED}
    with Tracer(TRACED):
        during = _bindings()
        assert not [where for where, v in during.items() if id(v) in originals]
        assert cli.synthesize is sys.modules["zygdist.gridfn"].synthesize
        assert cli.synthesize is not before[("zygdist.gridfn", "synthesize")]
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_outputs_pass_their_own_checks(name):
    ref = REFERENCE[name]
    command = WORKLOADS[name].command
    exit_code = 2 if command == "validate" else 0
    attempted, failed, errors = check(command, copy.deepcopy(ref), ref, exit_code, True)
    assert attempted >= 1 and failed == 0, errors


def _perturbed(name: str):
    out = copy.deepcopy(REFERENCE[name])
    if name.startswith("distance"):
        e = out["methods"]["poisson"]
        e["epsilon_star"] += 3 * e["resolution"]
    elif name.startswith("seminorms"):
        out["norms"]["poisson"] *= 1 + 1e-8
    elif name.startswith("inclusion"):
        out["fractions"][0][1] = out["fractions"][0][0] - 0.01
    else:
        out["passed"]["1"] = False
    return out


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_checks_catch_a_perturbed_output(name):
    command = WORKLOADS[name].command
    exit_code = 2 if command == "validate" else 0
    _, failed, errors = check(command, _perturbed(name), REFERENCE[name], exit_code, True)
    assert failed >= 1 and errors
