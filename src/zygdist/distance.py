"""Critical-threshold estimation for the three bad-set constructions, the
cross-method comparison, the hyperbolic inclusion probes, and the
coefficient-truncation witness.

The estimators take what they measure: LevelFields (method_context builds
one per s from a function) or, for the witness, the analysed wavelet table.
epsilon_star takes a tuple of fields and a tuple of s, one s per field, and
returns one estimate per field: epsilon_star((fld,), (s,), J_range)[0] for
one field.  It bisects all of them in lockstep, so fields the caller already
holds share each step's Carleson walk.

For each method the critical threshold is the infimum of eps for which the
eps-superlevel set stops looking like a Carleson-divergent set at desk scale.
It is bracketed by bisection on [0, eps_hi], where eps_hi is the method's own
probe-field maximum (LevelField.max_value), so the set at eps_hi is empty by
construction.  dyadic.carleson_sup gives a set's M_J; divergence is the one
place that judges from M_J whether the set diverges.

A C^2 function has |Delta^2_h f| <= ||f''|| |h|^2, so its probe field (any of
the three) is of size about y^(2-s): every superlevel set at eps > 0 is a
finite stack and therefore Carleson, and eps0 = 0.  The slope test cannot see
this when the stack runs through the whole fit window, so epsilon_star first
fits the per-level envelope; a decay at least C2_DECAY_KAPPA times the C^2
rate, over a depth range that reaches the field's deepest level, certifies
every probe as non-diverging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import poisson as _poisson
from . import secdiff as _secdiff
from . import wavelet as _wavelet
from .dyadic import LOG2, HalfSpaceSet, LevelField, carleson_sup, enlarge, threshold_set
from .gridfn import GridFunction

METHODS = ("secdiff", "wavelet", "poisson")

# Share of the C^2 decay rate -(2-s) that the envelope slope must reach for the
# decay certificate.  Smooth corpus fields measure 0.88-1.00 of it; rough
# ladders at most 0.5, flat fields (xlogx, Weierstrass) about 0.
C2_DECAY_KAPPA = 0.75

# Bisection steps after the probe at eps_hi: the bracket ends 2^-ITERATIONS
# of eps_hi wide.
ITERATIONS = 20

# The band [1/BAND, BAND] the cross-method ratios of eps0 must lie in.
BAND = 32.0

# A set diverges when its M_J slope exceeds THETA * log 2 (the default theta).
THETA = 0.1

# The inclusion probe's grid, in the order it walks it: c falling (a lower
# target threshold grows the target set), then R rising.
C_GRID = (1.0, 0.5, 0.25, 0.125)
R_GRID = (0.5, 1.0, 2.0, 4.0)


def method_context(
    f: GridFunction, s: tuple[float, ...], method: str,
    J_max: int | None = None, bank: _wavelet.FilterBank | None = None,
) -> tuple[LevelField, ...]:
    """The method's probe fields, one per entry of s, in order, on levels up
    to J_max (by default, and at most, the deepest level the method supports
    on f's grid).  One transform pass serves every s."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")
    if J_max is not None and J_max < 0:
        raise ValueError(f"J_max={J_max} must be >= 0")
    s = _secdiff._s_values(s)
    if method == "wavelet":
        coeffs = _wavelet.analyze(f, bank or _wavelet.filter_bank(8))
        fields = tuple(_wavelet.scale_ratio_field(coeffs, t) for t in s)
        if J_max is not None and J_max < coeffs.J_grid - 1:
            fields = tuple(LevelField(method, f.n, J_max,
                                      {j: fld.values[j] for j in range(J_max + 1)})
                           for fld in fields)
        return fields
    J_max = f.J_grid - 2 if J_max is None else min(J_max, f.J_grid - 2)
    if method == "secdiff":
        return _secdiff.second_diff_field(f, s, J_max)
    return _poisson.derivative_field(f, s, J_max)


@dataclass
class ProbeRecord:
    eps: float
    m_values: list[float]
    slope: float
    diverging: bool


@dataclass
class DistanceEstimate:
    method: str
    s: float
    epsilon_star: float
    bracket: tuple[float, float]
    iterations: int
    theta: float
    J_range: tuple[int, int]
    J_max: int
    eps_hi: float
    resolution: float
    collapsed: bool
    monotone: bool
    warnings: list[str] = field(default_factory=list)
    trace: list[ProbeRecord] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "s": self.s,
            "epsilon_star": self.epsilon_star,
            "bracket": list(self.bracket),
            "iterations": self.iterations,
            "theta": self.theta,
            "J_range": list(self.J_range),
            "J_max": self.J_max,
            "eps_hi": self.eps_hi,
            "resolution": self.resolution,
            "collapsed": self.collapsed,
            "monotone": self.monotone,
            "warnings": self.warnings,
            "slope_trace": [
                {"eps": p.eps, "M_J": p.m_values, "slope": p.slope, "diverging": p.diverging}
                for p in self.trace
            ],
        }


def _depths(J_range: tuple[int, int], theta: float) -> np.ndarray:
    """The depths of J_range, once J_range and theta are checked."""
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta={theta} must be finite and > 0")
    if not 0 <= J_range[0] <= J_range[1]:
        raise ValueError(f"empty or invalid depth range {J_range}")
    return np.arange(J_range[0], J_range[1] + 1)


def divergence(m_values: np.ndarray, J_range: tuple[int, int],
               theta: float) -> list[tuple[float, bool]]:
    """One (slope, diverging) per column of m_values, carleson_sup's M_J over
    the depths of J_range, in order.  The slope is a least-squares fit of M_J
    against J over the top half of the depths (both of a two-depth range; a
    one-depth range has slope 0.0); "diverging" means it exceeds theta * log 2.
    Each column is fitted alone, bitwise as in a one-column call.
    """
    js = _depths(J_range, theta)
    if len(js) < 2:
        return [(0.0, False)] * m_values.shape[1]
    fit = slice(min(len(js) // 2, len(js) - 2), None)
    slopes = [float(np.polyfit(js[fit], column[fit], 1)[0]) for column in m_values.T]
    return [(slope, slope > theta * LOG2) for slope in slopes]


def _envelope_slope(fld: LevelField, J_range: tuple[int, int]) -> float | None:
    """Least-squares slope of log2 max(values[j]) against j for j in
    [J_lo, fld.J_max].

    None where the decay certificate does not apply: the range stops above the
    field's deepest level, spans fewer than 3 levels, or meets a level whose
    maximum is not positive.
    """
    j_lo, j_hi = int(J_range[0]), int(J_range[1])
    js = list(range(j_lo, fld.J_max + 1))
    if j_hi < fld.J_max or len(js) < 3:
        return None
    env = [float(fld.values[j].max()) for j in js]
    if min(env) <= 0.0:
        return None
    return float(np.polyfit(js, np.log2(env), 1)[0])


class DistanceEstimates(tuple):
    """epsilon_star's result: one DistanceEstimate per field, in order."""

    @property
    def trace(self) -> list[ProbeRecord]:
        """The probes of every estimate, field by field: the call's whole
        probe count is len(result.trace), as for a one-field estimate."""
        return [p for est in self for p in est.trace]


class _Bisection:
    """One field's state in epsilon_star's lockstep bisection."""

    def __init__(self, fld: LevelField, s: float, J_range: tuple[int, int]):
        self.fld, self.s = fld, s
        self.eps_hi = fld.max_value
        self.lo, self.hi = 0.0, self.eps_hi
        self.warnings: list[str] = []
        self.trace: list[ProbeRecord] = []
        # cell count -> (M_J, slope, diverging): the superlevel sets are
        # nested, so a count names one set
        self.walks: dict[int, tuple[list[float], float, bool]] = {}
        # carleson_sup reads no level deeper than min(J_hi, J_max)
        self.depth = max(min(int(J_range[1]), fld.J_max), 0)
        self.certified = False
        if self.eps_hi == 0.0:
            self.warnings.append("trivial field: function has zero probe field")
            return
        decay = _envelope_slope(fld, J_range)
        c2_rate = -(2.0 - s)
        self.certified = decay is not None and decay <= C2_DECAY_KAPPA * c2_rate
        if self.certified:
            self.warnings.append(
                f"C2-decay certificate: envelope slope {decay:.4f} per level, C2 rate "
                f"-(2-s) = {c2_rate:.4f}; every superlevel set ends at finite depth, so no "
                "probe diverges")

    def record(self, eps: float, walk: tuple[list[float], float, bool], top: bool):
        """Log the probe at eps and, below the top probe, move the bracket."""
        m_values, slope, diverging = walk
        rec = ProbeRecord(eps=eps, m_values=m_values, slope=slope,
                          diverging=diverging and not self.certified)
        self.trace.append(rec)
        if top:
            if rec.diverging:
                self.warnings.append("set at eps_hi unexpectedly diverging")
        elif rec.diverging:
            self.lo = eps
        else:
            self.hi = eps

    def estimate(self, J_range: tuple[int, int], theta: float) -> DistanceEstimate:
        """The estimate; a trivial field, never probed, reads 0 throughout."""
        fld, eps_hi, lo, hi = self.fld, self.eps_hi, self.lo, self.hi
        by_eps = sorted(self.trace, key=lambda p: p.eps)
        flags = [p.diverging for p in by_eps]
        monotone = all(not (flags[i] and not flags[i - 1]) for i in range(1, len(flags)))
        if not monotone:
            self.warnings.append("divergence flags not monotone across the probe trace")
        return DistanceEstimate(
            method=fld.method, s=self.s, epsilon_star=0.5 * (lo + hi), bracket=(lo, hi),
            iterations=ITERATIONS, theta=theta, J_range=tuple(J_range), J_max=fld.J_max,
            eps_hi=eps_hi, resolution=eps_hi * 2.0**-ITERATIONS, collapsed=(lo == 0.0),
            monotone=monotone, warnings=self.warnings, trace=self.trace,
        )


def epsilon_star(
    fields: tuple[LevelField, ...], s: tuple[float, ...], J_range: tuple[int, int],
    theta: float = THETA,
) -> DistanceEstimates:
    """For each field, bisect for the smallest eps whose superlevel set is not
    diverging, fields[i] judged at s[i], in ITERATIONS steps after the probe
    at eps_hi; one DistanceEstimate per field, in order.

    The bracket invariant is: the set at the upper end never diverges, the
    lower end was observed diverging (or stayed at 0).  Divergence flags need
    not be monotone in eps at finite depth; a violated ordering in the probe
    trace is reported, not repaired.

    If the field's envelope decays at the C^2 rate (_envelope_slope at most
    -C2_DECAY_KAPPA * (2-s)), every superlevel set at eps > 0 ends at the
    finite depth J_max + log2(E_{J_max} / eps) / (2-s) and is Carleson, so
    every probe records diverging=False and eps0 collapses to the resolution;
    a warning names the fitted slope.  Without the certificate a range that
    stops above J_max keeps its finite-depth bias.

    The bisections run in lockstep.  At each step the probe sets of all
    fields with the same n and depth go through one carleson_sup call and
    one divergence call, whose columns are bitwise those of one-set calls,
    so every estimate is bitwise that of a one-field call.  A set that a
    field's bisection has already walked is not walked again: its M_J and
    verdict are reused.  theta and J_range are checked even if no field is probed.
    """
    if not isinstance(fields, tuple):
        raise TypeError(f"fields must be a tuple of LevelFields, got {type(fields).__name__}")
    s = _secdiff._s_values(s)
    if len(s) != len(fields):
        raise ValueError(f"{len(fields)} fields need as many s, got {len(s)}")
    _depths(J_range, theta)
    runs = [_Bisection(fld, t, J_range) for fld, t in zip(fields, s)]
    live = [b for b in runs if b.eps_hi > 0.0]
    for step in range(ITERATIONS + 1):
        eps = [b.eps_hi if step == 0 else 0.5 * (b.lo + b.hi) for b in live]
        sets = [threshold_set(b.fld.values, e, b.fld.n, b.depth) for b, e in zip(live, eps)]
        counts = [A.cell_count for A in sets]
        walks: dict[tuple[int, int], list] = {}
        for b, A, count in zip(live, sets, counts):
            if count not in b.walks:
                walks.setdefault((A.n, A.J_max), []).append((b, count, A))
        for group in walks.values():
            m_values = carleson_sup(tuple(A for _, _, A in group), J_range)
            verdicts = divergence(m_values, J_range, theta)
            for (b, count, _), column, verdict in zip(group, m_values.T, verdicts):
                b.walks[count] = (column.tolist(), *verdict)
        for b, e, count in zip(live, eps, counts):
            b.record(e, b.walks[count], top=step == 0)
    return DistanceEstimates(b.estimate(J_range, theta) for b in runs)


@dataclass
class MethodComparison:
    s: float
    estimates: dict[str, DistanceEstimate]
    ratios: dict[str, float]
    band: float
    within_band: bool
    flagged: list[str]

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "methods": {m: e.as_dict() for m, e in self.estimates.items()},
            "ratios": self.ratios,
            "band": self.band,
            "within_band": self.within_band,
            "flagged": self.flagged,
        }


def compare_methods(
    f: GridFunction, s: float, J_range: tuple[int, int], theta: float = THETA,
    bank: _wavelet.FilterBank | None = None,
) -> MethodComparison:
    """Critical thresholds under all three constructions plus pairwise ratios,
    flagging those outside [1/BAND, BAND]; each method's field is built and
    dropped before the next is built.

    If both thresholds of a pair sit below their bisection resolution the
    ratio is defined as 1 (the zero-zero convention).
    """
    estimates = {
        m: epsilon_star(method_context(f, (s,), m, bank=bank), (s,), J_range, theta)[0]
        for m in METHODS
    }
    ratios: dict[str, float] = {}
    flagged: list[str] = []
    for i, a in enumerate(METHODS):
        for b in METHODS[i + 1:]:
            ea, eb = estimates[a], estimates[b]
            key = f"{a}/{b}"
            if ea.collapsed and eb.collapsed:
                ratios[key] = 1.0
            elif eb.epsilon_star == 0.0:
                ratios[key] = math.inf
            else:
                ratios[key] = ea.epsilon_star / eb.epsilon_star
            r = ratios[key]
            if not (1.0 / BAND <= r <= BAND):
                flagged.append(key)
    return MethodComparison(
        s=s, estimates=estimates, ratios=ratios, band=BAND,
        within_band=not flagged, flagged=flagged,
    )


@dataclass
class InclusionReport:
    source_method: str
    target_method: str
    eps: float
    eta: float
    fractions: list[list[float]]  # rows: C_GRID; columns: R_GRID
    achieved: tuple[float, float] | None
    source_cells: int

    def as_dict(self) -> dict:
        return {
            "source": self.source_method,
            "target": self.target_method,
            "eps": self.eps,
            "eta": self.eta,
            "c_grid": list(C_GRID),
            "R_grid": list(R_GRID),
            "fractions": self.fractions,
            "achieved": list(self.achieved) if self.achieved else None,
            "source_cells": self.source_cells,
        }


def _contained_fraction(source: HalfSpaceSet, target: HalfSpaceSet) -> float:
    total = source.cell_count
    if total == 0:
        return 1.0
    inside = 0
    for j in range(source.J_max + 1):
        m = source.mask(j)
        if j <= target.J_max:
            inside += int((m & target.mask(j)).sum())
    return inside / total


def inclusion_probe(src: LevelField, tgt: LevelField, eps: float,
                    eta: float = 0.99) -> InclusionReport:
    """Fraction of src cells at eps inside the R-enlarged tgt set at c * eps,
    for c in C_GRID and R in R_GRID.

    The target threshold is lowered (c <= 1 grows the target set) and the
    target is hyperbolically enlarged; the preferred witness is the largest c
    and then the smallest R reaching the target fraction eta.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if src.n != tgt.n:
        raise ValueError(f"source field has n={src.n}, target field n={tgt.n}")
    source = src.threshold(eps)
    fractions: list[list[float]] = []
    achieved: tuple[float, float] | None = None
    for c in C_GRID:
        row = []
        base_target = tgt.threshold(c * eps)
        for R in R_GRID:
            frac = _contained_fraction(source, enlarge(base_target, R))
            row.append(frac)
            if achieved is None and frac >= eta:
                achieved = (c, R)
        fractions.append(row)
    return InclusionReport(
        source_method=src.method, target_method=tgt.method, eps=eps,
        eta=eta, fractions=fractions,
        achieved=achieved, source_cells=source.cell_count,
    )


@dataclass
class WitnessReport:
    eps: float
    tail_norm: float
    tail_ok: bool
    per_depth: list[tuple[int, float, float]]
    box_ok: bool
    kept_cells: int
    d: float


def projection_distance_witness(
    coeffs: _wavelet.WaveletCoefficients, s: float, eps: float,
) -> WitnessReport:
    """Check the mechanics of the coefficient-truncation projection of coeffs.

    (a) the discarded coefficient tail has smoothness norm <= eps exactly;
    (b) at every depth J, the kept coefficients' box sums are bounded by
        (2^n - 1) * (coefficient sup norm)^2 * M_J(bad set) / log 2,
        cell-exactly (a float slack of 1e-12 covers the arithmetic).
    Each side is one bottom-up pass over every depth 0..J_grid - 1.
    """
    g = _wavelet.truncate_projection(coeffs, s, eps)
    tail = coeffs.minus(g)
    tail_norm = _wavelet.lip_wavelet_norm(tail, s)
    tail_ok = tail_norm <= eps or (eps == 0.0 and tail_norm == 0.0)

    ratio = _wavelet.scale_ratio_field(coeffs, s)
    factor = (2**coeffs.n - 1) * ratio.max_value**2
    T = ratio.threshold(eps)

    depths = (0, coeffs.J_grid - 1)
    lhs = _wavelet.jbmo_box_sup(g, s, depths)
    m = carleson_sup((T,), depths)[:, 0]
    per_depth = [(J, lhs[J], float(factor * m[J] / LOG2)) for J in range(coeffs.J_grid)]
    box_ok = not any(l > r * (1.0 + 1e-12) + 1e-300 for _, l, r in per_depth)
    return WitnessReport(
        eps=eps, tail_norm=tail_norm, tail_ok=tail_ok,
        per_depth=per_depth, box_ok=box_ok, kept_cells=T.cell_count, d=g.d,
    )
