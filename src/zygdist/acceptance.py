"""The validation suite: ten numbered end-to-end checks with pinned
tolerances, runnable from pytest or from the command line.

Each criterion returns a CriterionResult with a pass flag and the measured
quantities, so failures are reported with observed-versus-expected detail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import distance as _distance
from . import poisson as _poisson
from . import secdiff as _secdiff
from . import wavelet as _wavelet
from .dyadic import LOG2, HalfSpaceSet, carleson_sup, enlarge
from .gridfn import (CORPUS_SPECS, GridFunction, corpus, parse_function_spec,
                     sup_norm, synthesize)

THETA = 0.1


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"criterion {self.number:2d} {self.name}: {status} ({self.seconds:.1f}s)"
        if self.failures:
            line += " | " + "; ".join(self.failures[:4])
            if len(self.failures) > 4:
                line += f"; +{len(self.failures) - 4} more"
        return line


def _band_constant(values: dict[str, float]) -> float:
    """Smallest C with all pairwise ratios inside [1/C, C]."""
    vals = list(values.values())
    worst = 1.0
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            if a == 0.0 or b == 0.0:
                return math.inf
            r = a / b
            worst = max(worst, r, 1.0 / r)
    return worst


def criterion_1(theta: float = THETA) -> CriterionResult:
    """Carleson engine exactness on the full cell stack to depth 14."""
    t0 = time.perf_counter()
    failures = []
    J_top = 14
    stack = HalfSpaceSet.full_stack(1, J_top)
    m_values = carleson_sup((stack,), (0, J_top))
    [(slope, diverging)] = _distance.divergence(m_values, (0, J_top), theta)
    worst = 0.0
    for J, m in enumerate(m_values[:, 0].tolist()):
        err = abs(m - (J + 1) * LOG2)
        worst = max(worst, err)
        if err > 1e-12:
            failures.append(f"M_{J} off by {err:.2e}")
    dt = time.perf_counter() - t0
    if dt >= 1.0:
        failures.append(f"runtime {dt:.2f}s >= 1s")
    if not diverging:
        failures.append("full stack not flagged diverging")
    return CriterionResult(1, "carleson-exactness", not failures, dt,
                           {"worst_error": worst, "slope_over_log2": slope / LOG2},
                           failures)


def criterion_2() -> CriterionResult:
    """Wavelet round trip, Parseval and vanishing moments at J=12."""
    t0 = time.perf_counter()
    failures = []
    J = 12
    N = 2**J
    rng = np.random.default_rng(0)
    worst_rt = worst_pv = 0.0
    for p in (2, 8):
        bank = _wavelet.filter_bank(p)
        for i in range(20):
            f = GridFunction(1, J, rng.standard_normal(N), label=f"rand{i}")
            coeffs = _wavelet.analyze(f, bank)
            g = _wavelet.reconstruct(coeffs, bank)
            rt = float(np.max(np.abs(g.samples - f.samples))) / sup_norm(f)
            pv = abs(coeffs.coefficient_energy() - float((f.samples**2).mean()))
            pv /= float((f.samples**2).mean())
            worst_rt = max(worst_rt, rt)
            worst_pv = max(worst_pv, pv)
            if rt > 1e-10:
                failures.append(f"p={p} fn{i}: roundtrip {rt:.2e}")
            if pv > 1e-10:
                failures.append(f"p={p} fn{i}: parseval {pv:.2e}")
        const = GridFunction(1, J, np.ones(N), label="one")
        cc = _wavelet.analyze(const, bank)
        cmax = max(float(np.max(np.abs(a))) for a in cc.c.values())
        if cmax > 1e-10:
            failures.append(f"p={p}: constant leaks detail {cmax:.2e}")
    dt = time.perf_counter() - t0
    return CriterionResult(2, "wavelet-correctness", not failures, dt,
                           {"worst_roundtrip": worst_rt, "worst_parseval": worst_pv},
                           failures)


def criterion_3() -> CriterionResult:
    """Poisson closed forms, semigroup, and the finite-difference oracle."""
    t0 = time.perf_counter()
    failures = []
    J = 12
    N = 2**J
    x = np.arange(N) / N
    cosf = GridFunction(1, J, np.cos(2 * np.pi * x), label="cos")
    for y in (0.05, 0.1, 0.3, 1.0):
        u = _poisson.poisson_extend(cosf, y)
        target = math.exp(-2 * np.pi * y) * cosf.samples
        err = float(np.max(np.abs(u.samples - target))) / max(abs(target).max(), 1e-300)
        if err > 1e-10:
            failures.append(f"extend closed form at y={y}: {err:.2e}")
        d2 = _poisson.d2y_extension(cosf, y)
        target2 = (2 * np.pi) ** 2 * math.exp(-2 * np.pi * y) * cosf.samples
        err2 = float(np.max(np.abs(d2.samples - target2))) / abs(target2).max()
        if err2 > 1e-10:
            failures.append(f"d2y closed form at y={y}: {err2:.2e}")

    f = synthesize(parse_function_spec("weierstrass s=1 levels=8 signs=plus"), 1, J)
    twostep = _poisson.poisson_extend(_poisson.poisson_extend(f, 0.07), 0.05)
    onestep = _poisson.poisson_extend(f, 0.12)
    sg = float(np.max(np.abs(twostep.samples - onestep.samples))) / sup_norm(f)
    if sg > 1e-10:
        failures.append(f"semigroup defect {sg:.2e}")

    poly = np.zeros(N)
    for k in range(1, 6):
        poly += np.cos(2 * np.pi * k * x) / k
    pf = GridFunction(1, J, poly, label="poly5")
    y, h = 0.1, 0.1 / 100.0

    def d2_fd(step):
        up = _poisson.poisson_extend(pf, y + step).samples
        mid = _poisson.poisson_extend(pf, y).samples
        dn = _poisson.poisson_extend(pf, y - step).samples
        return (up - 2 * mid + dn) / step**2

    fd = (4.0 * d2_fd(h / 2) - d2_fd(h)) / 3.0  # Richardson, steps <= y/100
    exact = _poisson.d2y_extension(pf, y).samples
    fd_err = float(np.max(np.abs(fd - exact))) / float(np.max(np.abs(exact)))
    if fd_err > 1e-6:
        failures.append(f"finite-difference oracle {fd_err:.2e}")
    dt = time.perf_counter() - t0
    return CriterionResult(3, "poisson-correctness", not failures, dt,
                           {"semigroup": sg, "fd_relative": fd_err}, failures)


def criterion_4() -> CriterionResult:
    """Comparability band across the three smoothness norms on the corpus."""
    t0 = time.perf_counter()
    failures = []
    J = 12
    bank = _wavelet.filter_bank(8)
    fns = corpus(J)
    worst = 1.0
    per_fn = {}
    s_values = (0.5, 1.0)
    # probe refinement drift on one rough corpus member (recorded, not gated):
    # its refine=1 seminorm at s=1 comes from the loop
    wf = fns[4]
    for f in fns:
        coeffs = _wavelet.analyze(f, bank)
        seminorms = _secdiff.holder_seminorm(f, s_values)
        if f is wf:
            base = seminorms[s_values.index(1.0)]
        poisson_norms = _poisson.holder_poisson_norm(f, s_values)
        for s, seminorm, poisson_norm in zip(s_values, seminorms, poisson_norms):
            norms = {
                "secdiff": seminorm + sup_norm(f),
                "wavelet": _wavelet.lip_wavelet_norm(coeffs, s),
                "poisson": poisson_norm,
            }
            c = _band_constant(norms)
            per_fn[f"{f.label} s={s}"] = {**norms, "band": c}
            worst = max(worst, c)
            if c > 50.0:
                failures.append(f"{f.label} s={s}: band {c:.1f} > 50")
    [fine] = _secdiff.holder_seminorm(wf, (1.0,), refine=4)
    dt = time.perf_counter() - t0
    if dt >= 120.0:
        failures.append(f"runtime {dt:.1f}s >= 120s")
    return CriterionResult(4, "seminorm-comparability", not failures, dt,
                           {"band_constant": worst, "per_function": per_fn,
                            "refine4_drift": fine / base}, failures)


def criterion_5() -> CriterionResult:
    """Coefficient-based versus lift-based bmo-Sobolev norm on the corpus."""
    t0 = time.perf_counter()
    failures = []
    J = 12
    bank = _wavelet.filter_bank(8)
    worst = 1.0
    per_fn = {}
    for f in corpus(J):
        coeffs = _wavelet.analyze(f, bank)
        for s in (0.5, 1.0):
            a = _wavelet.jbmo_wavelet_norm(coeffs, s)
            b = _poisson.jbmo_direct_norm(f, s, J)
            c = _band_constant({"wavelet": a, "direct": b})
            per_fn[f"{f.label} s={s}"] = {"wavelet": a, "direct": b, "band": c}
            worst = max(worst, c)
            if c > 50.0:
                failures.append(f"{f.label} s={s}: band {c:.1f} > 50")
    dt = time.perf_counter() - t0
    return CriterionResult(5, "jbmo-cross-check", not failures, dt,
                           {"band_constant": worst, "per_function": per_fn}, failures)


def criterion_6() -> CriterionResult:
    """Truncation projection: exact tail norm and the box-sum bound."""
    t0 = time.perf_counter()
    failures = []
    J = 12
    bank = _wavelet.filter_bank(8)
    for f in corpus(J):
        coeffs = _wavelet.analyze(f, bank)
        for s in (0.5, 1.0):
            eps_hi = _wavelet.scale_ratio_field(coeffs, s).max_value
            for frac in (0.25, 0.5, 0.75):
                w = _distance.projection_distance_witness(coeffs, s, frac * eps_hi)
                if not w.tail_ok:
                    failures.append(
                        f"{f.label} s={s} eps={frac}*hi: tail {w.tail_norm:.3e} > eps")
                if not w.box_ok:
                    failures.append(f"{f.label} s={s} eps={frac}*hi: box bound violated")
    dt = time.perf_counter() - t0
    return CriterionResult(6, "projection-mechanics", not failures, dt, {}, failures)


def criterion_7(theta: float = THETA) -> CriterionResult:
    """Distance separation at J_grid=14 over depth range [7, 14].

    Rough lacunary functions must keep a threshold above 5 percent of their
    scale under all three methods with cross-method ratios inside [1/32, 32];
    trig polynomials and single atoms must collapse below the bisection
    resolution.  Under the second-difference and Poisson methods the smooth
    fields decay like y^(2-s), still positive far below the fit window, so
    the slope flag alone sees a full stack at every small threshold; the
    range reaches the fields' deepest level, so epsilon_star's C^2-decay
    certificate applies and the collapse comes from it.  The wavelet method,
    whose fields die at the vanishing-moment rate, collapses either way.
    """
    t0 = time.perf_counter()
    failures = []
    J = 14
    J_range = (7, 14)
    details: dict = {"weierstrass": {}, "collapse": {}, "soft_bound": {}}

    # lacunary ladders must stay rough through the slope-fit window, so the
    # level count follows the grid depth here
    rough = (("weierstrass s=0.5 levels=12 signs=plus", 0.5),
             ("weierstrass s=1 levels=12 signs=plus", 1.0))
    for spec_text, s in rough:
        f = synthesize(parse_function_spec(spec_text), 1, J)
        comp = _distance.compare_methods(f, s, J_range, theta)
        fracs = {m: e.epsilon_star / e.eps_hi for m, e in comp.estimates.items()}
        details["weierstrass"][f"{f.label} s={s}"] = {
            "eps0_over_hi": fracs, "ratios": comp.ratios}
        for m, frac in fracs.items():
            if frac <= 0.05:
                failures.append(f"{f.label} s={s} {m}: eps0/hi {frac:.3f} <= 0.05")
        for key in comp.flagged:  # compare_methods flags ratios outside [1/32, 32]
            r = comp.ratios[key]
            failures.append(f"{f.label} s={s} ratio {key}={r:.2f} outside [1/32,32]")

    s_values = (0.5, 1.0)
    # one build per method serves both s, and one lockstep bisection every field
    cases, fields = [], []
    for spec_text in (CORPUS_SPECS[2], CORPUS_SPECS[10]):
        f = synthesize(parse_function_spec(spec_text), 1, J)
        built = {m: _distance.method_context(f, s_values, m) for m in _distance.METHODS}
        for k, s in enumerate(s_values):
            for m in _distance.METHODS:
                cases.append((f.label, s, m))
                fields.append(built[m][k])
    estimates = _distance.epsilon_star(tuple(fields), tuple(s for _, s, _ in cases),
                                       J_range, theta)
    for (label, s, m), est in zip(cases, estimates):
        frac = est.epsilon_star / est.eps_hi if est.eps_hi else 0.0
        details["collapse"][f"{label} s={s} {m}"] = {
            "collapsed": est.collapsed, "eps0_over_hi": frac}
        details["soft_bound"][f"{label} s={s} {m}"] = frac <= 2.0**-10
        if not est.collapsed:
            failures.append(
                f"{label} s={s} {m}: eps0/hi {frac:.1e} above bisection resolution")
    dt = time.perf_counter() - t0
    if dt >= 600.0:
        failures.append(f"runtime {dt:.0f}s >= 600s")
    return CriterionResult(7, "distance-separation", not failures, dt, details, failures)


def criterion_8(theta: float = THETA) -> CriterionResult:
    """Divergence flags invariant under hyperbolic enlargement.

    For every corpus function, one diverging-side threshold (half the
    critical one) and one saturating-side threshold; R in {0.5, 1, 2}.

    Enlargement by R pushes a set about (R + delta_cell) / log 2 levels
    deeper at full density, so a saturating set whose deepest cell sits just
    above the slope-fit window would re-enter it after enlargement and flip
    the flag, an artifact of the finite window rather than of dilation.  The
    saturating threshold is therefore placed above every field value deep
    enough to spill into the window (empty sets are legitimate saturators).
    """
    t0 = time.perf_counter()
    failures = []
    J = 14
    J_max = 12
    J_range = (7, 12)
    per_fn = {}
    R_values = (0.5, 1.0, 2.0)
    from .dyadic import cell_diameter_bound

    spill = math.ceil((max(R_values) + cell_diameter_bound(1)) / LOG2)
    fit_start = (J_range[0] + J_range[1] + 1) // 2
    safe_top = max(fit_start - spill - 1, 0)
    # every field first, each function dropped once its field is built, then
    # one lockstep bisection over all of them
    labels, fields = [], []
    for text in CORPUS_SPECS:
        f = synthesize(parse_function_spec(text), 1, J)
        labels.append(f.label)
        fields.append(_distance.method_context(f, (1.0,), "secdiff", J_max=J_max)[0])
    del f
    estimates = _distance.epsilon_star(tuple(fields), (1.0,) * len(fields), J_range, theta)
    for label, fld, est in zip(labels, fields, estimates):
        eps_div = 0.5 * est.epsilon_star
        deep_max = max(float(fld.values[j].max()) for j in range(safe_top + 1, J_max + 1))
        eps_sat = 1.05 * deep_max
        for tag, eps in (("div", eps_div), ("sat", eps_sat)):
            A = fld.threshold(eps)
            # the set and its enlargements in one stacked walk
            m_values = carleson_sup((A,) + tuple(enlarge(A, R) for R in R_values), J_range)
            base, *after = (flag for _, flag in _distance.divergence(m_values, J_range, theta))
            flips = [R for R, flag in zip(R_values, after) if flag != base]
            per_fn[f"{label} [{tag}]"] = {"base": base, "flips": flips,
                                          "cells": A.cell_count}
            if flips:
                failures.append(f"{label} [{tag}]: flag flips at R={flips}")
    dt = time.perf_counter() - t0
    return CriterionResult(8, "dilation-stability", not failures, dt,
                           {"per_set": per_fn}, failures)


def criterion_9(theta: float = THETA) -> CriterionResult:
    """Inclusion probes between the three set constructions.

    Chain: wavelet set inside enlarged second-difference set, second
    difference inside Poisson, Poisson inside wavelet; each at half the
    source's critical threshold, witnessed somewhere on the (c, R) grid.
    """
    t0 = time.perf_counter()
    failures = []
    J = 12
    s = 1.0
    J_range = (6, 10)
    f = synthesize(parse_function_spec(CORPUS_SPECS[4]), 1, J)
    fields = {m: _distance.method_context(f, (s,), m)[0] for m in _distance.METHODS}
    chain = (("wavelet", "secdiff"), ("secdiff", "poisson"), ("poisson", "wavelet"))
    # one lockstep bisection for the three sources
    estimates = _distance.epsilon_star(tuple(fields[src] for src, _ in chain),
                                       (s,) * len(chain), J_range, theta)
    achieved = {}
    for (src, tgt), est in zip(chain, estimates):
        eps = 0.5 * est.epsilon_star
        rep = _distance.inclusion_probe(
            fields[src], fields[tgt], eps,
            c_grid=(1.0, 0.5, 0.25, 0.125), R_grid=(0.5, 1.0, 2.0, 4.0), eta=0.99)
        achieved[f"{src}->{tgt}"] = {
            "achieved": rep.achieved, "eps": eps,
            "source_cells": rep.source_cells, "best_fraction": max(map(max, rep.fractions)),
        }
        if rep.achieved is None:
            failures.append(f"{src}->{tgt}: fraction 0.99 not achieved on the grid")
    dt = time.perf_counter() - t0
    return CriterionResult(9, "inclusion-probes", not failures, dt,
                           {"witnesses": achieved}, failures)


def criterion_10() -> CriterionResult:
    """Continuity constants finite and stable under sample doubling."""
    t0 = time.perf_counter()
    failures = []
    J = 12
    base_count = 10_000
    per_fn = {}
    s_values = (0.5, 1.0)
    for f in corpus(J):
        # one Poisson pass serves both s
        hyperbolic = _poisson.lipschitz_check(f, s_values, 2 * base_count, seed=42)
        for s, lipschitz in zip(s_values, hyperbolic):
            continuity = _secdiff.continuity_check(f, s, 2 * base_count, seed=42)
            for kind, r, what in (("secdiff", continuity, "continuity"),
                                  ("poisson", lipschitz, "hyperbolic")):
                # same-seed draws are prefixes of each other: the first
                # base_count ratios are those of a base_count-sample check
                first = float(r.ratios[:base_count].max())
                drift = abs(r.max_ratio - first) / first if first else 0.0
                per_fn[f"{f.label} s={s} {kind}"] = {"max_ratio": r.max_ratio, "drift": drift}
                if not math.isfinite(r.max_ratio):
                    failures.append(f"{f.label} s={s}: {what} ratio not finite")
                if drift > 0.20:
                    failures.append(f"{f.label} s={s}: {what} drift {drift:.2f} > 0.20")
    dt = time.perf_counter() - t0
    return CriterionResult(10, "continuity-checks", not failures, dt,
                           {"per_function": per_fn}, failures)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_all(numbers=None, theta: float = THETA) -> list[CriterionResult]:
    """Run the selected criteria; theta reaches the divergence-flag checks
    (criteria pin their own grid depths and tolerances)."""
    import inspect

    selected = sorted(numbers) if numbers else sorted(CRITERIA)
    if not set(selected) <= set(CRITERIA):
        raise ValueError(f"criteria are numbered 1-{len(CRITERIA)}, got {selected}")
    results = []
    for k in selected:
        fn = CRITERIA[k]
        if "theta" in inspect.signature(fn).parameters:
            results.append(fn(theta=theta))
        else:
            results.append(fn())
    return results
