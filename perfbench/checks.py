"""Output checks for the benchmark workloads.

`extract` keeps the outputs of a report that are checked; `reference.json`
holds them per workload and seed, as the seed commit produced them.  Where a
reference exists the outputs must match it: discrete values exactly, each
eps0 within twice the report's own bisection resolution, norms to 1e-9
relative.  On every seed the structural checks apply: 0 <= eps0 <= eps_hi
inside its bracket, ratios equal to the quotients they name, and inclusion
fractions in [0, 1], non-decreasing in R and as c falls.  On the default
inputs every pairwise eps0 ratio must also lie in the paper's comparability
band [1/32, 32].

Each call is one operation, except `validate`, where each criterion is one:
a criterion that passed in the reference and does not pass now fails.
"""

from __future__ import annotations

import math

NORM_RTOL = 1e-9
RATIO_RTOL = 1e-12
BAND = 32.0          # the paper's comparability band for eps0 ratios


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def extract(command: str, report: dict) -> dict:
    if command == "distance":
        comp = report["comparisons"]
        keep = ("epsilon_star", "bracket", "resolution", "eps_hi", "collapsed", "monotone")
        return {"methods": {m: {k: e[k] for k in keep} for m, e in comp["methods"].items()},
                "ratios": comp["ratios"], "flagged": comp["flagged"]}
    if command == "seminorms":
        return {"norms": report["norms"], "ratios": report["ratios"]}
    if command == "inclusion":
        inc = report["inclusions"]
        return {k: inc[k] for k in ("fractions", "achieved", "source_cells")}
    if command == "validate":
        return {"passed": {str(r["number"]): r["passed"] for r in report["results"]}}
    raise ValueError(f"no extractor for command {command!r}")


def _distance(out: dict, ref: dict | None, default_inputs: bool) -> list[str]:
    errs = []
    methods = out["methods"]
    for m, e in methods.items():
        eps, (lo, hi) = e["epsilon_star"], e["bracket"]
        if not (0.0 <= lo <= eps <= hi <= e["eps_hi"]):
            errs.append(f"{m}: eps0={eps!r} outside 0 <= {lo!r} <= eps0 <= {hi!r} <= eps_hi")
    for key, r in out["ratios"].items():
        a, b = key.split("/")
        if methods[a]["collapsed"] and methods[b]["collapsed"]:
            continue  # the zero-zero convention sets the ratio to 1
        ea, eb = methods[a]["epsilon_star"], methods[b]["epsilon_star"]
        if eb != 0.0 and not _close(r, ea / eb, RATIO_RTOL):
            errs.append(f"ratio {key}={r!r} is not eps0({a})/eps0({b})")
        if default_inputs and not 1.0 / BAND <= r <= BAND:
            errs.append(f"ratio {key}={r!r} outside [1/{BAND:g}, {BAND:g}]")
    if ref is None:
        return errs
    if out["flagged"] != ref["flagged"]:
        errs.append(f"flagged {out['flagged']} != reference {ref['flagged']}")
    for m, r in ref["methods"].items():
        e = methods[m]
        for k in ("collapsed", "monotone"):
            if e[k] != r[k]:
                errs.append(f"{m}.{k}={e[k]} != reference {r[k]}")
        for k in ("eps_hi", "resolution"):
            if not _close(e[k], r[k], NORM_RTOL):
                errs.append(f"{m}.{k}={e[k]!r} != reference {r[k]!r}")
        tol = 2.0 * e["resolution"]
        if abs(e["epsilon_star"] - r["epsilon_star"]) > tol:
            errs.append(f"{m}: eps0={e['epsilon_star']!r} not within {tol:.3g} "
                        f"of reference {r['epsilon_star']!r}")
    return errs


def _seminorms(out: dict, ref: dict | None, default_inputs: bool) -> list[str]:
    errs = []
    norms = out["norms"]
    for k, v in norms.items():
        if v is not None and not (math.isfinite(v) and v >= 0.0):
            errs.append(f"norm {k}={v!r} is not finite and >= 0")
    for key, r in out["ratios"].items():
        a, b = key.split("/")
        if norms[b] and not _close(r, norms[a] / norms[b], RATIO_RTOL):
            errs.append(f"ratio {key}={r!r} is not {a}/{b}")
    if ref is None:
        return errs
    for group in ("norms", "ratios"):
        for k, r in ref[group].items():
            if not _close(out[group].get(k), r, NORM_RTOL):
                errs.append(f"{group[:-1]} {k}={out[group].get(k)!r} != reference {r!r}")
    return errs


def _inclusion(out: dict, ref: dict | None, default_inputs: bool) -> list[str]:
    errs = []
    rows = out["fractions"]     # rows: c falling; columns: R rising
    for i, row in enumerate(rows):
        if any(not 0.0 <= f <= 1.0 for f in row):
            errs.append(f"fraction row {i} outside [0, 1]: {row}")
        if any(a > b for a, b in zip(row, row[1:])):
            errs.append(f"fraction row {i} decreases in R: {row}")
    for i, (upper, lower) in enumerate(zip(rows, rows[1:])):
        if any(a > b for a, b in zip(upper, lower)):
            errs.append(f"fractions decrease as c falls between rows {i} and {i + 1}")
    if ref is None:
        return errs
    for k, r in ref.items():
        if out[k] != r:
            errs.append(f"{k}={out[k]} != reference {r}")
    return errs


_CHECKS = {"distance": _distance, "seminorms": _seminorms, "inclusion": _inclusion}


def check(command: str, out: dict | None, ref: dict | None, exit_code: int,
          default_inputs: bool) -> tuple[int, int, list[str]]:
    """Count the operations of one call and the failed ones, and say why.

    `out` is None when the call wrote no report; `ref` is None when no
    reference exists for the call's inputs, so only structural checks apply.
    """
    if command == "validate":
        criteria = ref["passed"] if ref else {}
        attempted = max(len(criteria), len(out["passed"]) if out else 1)
        if out is None:
            return attempted, attempted, [f"no report (exit code {exit_code})"]
        passed = out["passed"]
        expected_exit = 0 if all(passed.values()) else 2
        if exit_code != expected_exit:
            return attempted, attempted, [f"exit code {exit_code}, expected {expected_exit}"]
        newly_red = [k for k, ok in criteria.items() if ok and not passed.get(k, False)]
        return attempted, len(newly_red), [
            f"criterion {k} passed in the reference and fails now" for k in newly_red]
    if out is None or exit_code != 0:
        return 1, 1, [f"exit code {exit_code}" + ("" if out else ", no report")]
    errs = _CHECKS[command](out, ref, default_inputs)
    return 1, int(bool(errs)), errs
