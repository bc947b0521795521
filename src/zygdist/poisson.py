"""Exact spectral Poisson extension to the upper half-space, its second
y-derivative, the large-hyperbolic-derivative cell sets, and the bmo norms.

On the torus the Poisson kernel is a pure Fourier multiplier exp(-2 pi |k| y)
and the derivative multiplier is (2 pi |k|)^2 exp(-2 pi |k| y), so heights
need not be grid aligned and there is no kernel truncation error.  Every
field takes one forward real (half-spectrum) transform of the function and
one inverse real transform per height.  Fields are restricted to y <= 1; the
lowest frequencies dominate above that and carry no scale information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import LevelField, pool_children, pool_max
from .gridfn import GridFunction, bessel_lift, sup_norm, _half_freq_sq
from .secdiff import CELL_FRACS

_DEFAULT_FIELD_MARGIN = 2  # deepest field level is J_grid - margin, as for second differences


def _extension_slices(f: GridFunction, heights, d2y: bool = True):
    """Yield d^2/dy^2 u(., y) (u(., y) itself if not d2y) for each height y.

    One forward half-spectrum transform of f and one table w = 2 pi |k| serve
    every height; each height costs one multiply by exp(-w y) and one inverse.
    """
    shape, axes = f.samples.shape, tuple(range(f.n))
    spec = np.fft.rfftn(f.samples)
    w = 2.0 * np.pi * np.sqrt(_half_freq_sq(f.n, f.J_grid))
    if d2y:
        spec *= w * w
    decay = np.empty_like(w)  # per-height buffers, reused
    product = np.empty_like(spec)
    for y in heights:
        np.exp(np.multiply(w, -y, out=decay), out=decay)
        yield np.fft.irfftn(np.multiply(spec, decay, out=product), s=shape, axes=axes)


def _single_height(f: GridFunction, y: float, d2y: bool) -> np.ndarray:
    if y <= 0:
        raise ValueError("height must be > 0")
    (out,) = _extension_slices(f, (y,), d2y)
    return out


def poisson_extend(f: GridFunction, y: float) -> GridFunction:
    """Harmonic extension u(., y), one exact multiplier per height."""
    return GridFunction(f.n, f.J_grid, _single_height(f, y, d2y=False),
                        label=f"{f.label}|P[{y:g}]")


def d2y_extension(f: GridFunction, y: float) -> GridFunction:
    """d^2/dy^2 of the harmonic extension at height y."""
    return GridFunction(f.n, f.J_grid, _single_height(f, y, d2y=True),
                        label=f"{f.label}|d2yP[{y:g}]")


def derivative_field(f: GridFunction, s: float, J_max: int) -> LevelField:
    """Per-cell max of y^(2-s) |d2y u| at heights CELL_FRACS * 2^-j over all
    grid columns of the cell."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    if J_max > f.J_grid:
        raise ValueError(f"J_max={J_max} exceeds grid depth {f.J_grid}")
    probes = [(j, frac * 2.0**-j) for j in range(J_max + 1) for frac in CELL_FRACS]
    values = {j: np.zeros((2**j,) * f.n) for j in range(J_max + 1)}
    for (j, y), d2 in zip(probes, _extension_slices(f, [y for _, y in probes])):
        # scaling by y^(2-s) > 0 after the max rounds exactly as before it
        np.maximum(values[j], pool_max(np.abs(d2), 2**j) * y ** (2.0 - s), out=values[j])
    return LevelField("poisson", f.n, J_max, values)


def holder_poisson_norm(f: GridFunction, s: float, J_max: int | None = None) -> float:
    """sup|f| + max over Whitney probe points of y^(2-s) |d2y u|."""
    if J_max is None:
        J_max = f.J_grid - _DEFAULT_FIELD_MARGIN
    field = derivative_field(f, s, J_max)
    return sup_norm(f) + field.max_value


@dataclass
class LipschitzReport:
    max_ratio: float
    pairs_used: int
    sample_count: int
    norm: float
    s: float
    ratios: np.ndarray  # per sample, 0 where the pair is not used


def lipschitz_check(f: GridFunction, s: float, sample_count: int, seed: int) -> LipschitzReport:
    """Hyperbolic Lipschitz constant of g = y^(2-s) d2y u, empirically.

    Samples point pairs at hyperbolic distance <= 2 (heights quantized to a
    per-octave ladder so derivative slices are computed once per height) and
    returns max |g(p) - g(q)| / (norm * rho(p, q)).  Same-seed runs with a
    larger sample count extend the same sequence, so ratios[:k].max() is the
    max_ratio of the same-seed check at k samples.
    """
    norm = holder_poisson_norm(f, s)
    if norm == 0.0:
        raise ValueError("degenerate function: zero norm")
    N = f.grid_size
    J_top = f.J_grid - _DEFAULT_FIELD_MARGIN
    fracs = np.linspace(0.5, 1.0, 9)[1:]  # (1/2, 1] in eighths
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(sample_count, 6))

    lev1 = np.floor(u[:, 0] * (J_top + 1)).astype(int)
    fr1 = np.floor(u[:, 1] * fracs.size).astype(int)
    # neighbor height: same or adjacent level, any frac
    lev2 = np.clip(lev1 + np.round(2.0 * u[:, 2] - 1.0).astype(int), 0, J_top)
    fr2 = np.floor(u[:, 3] * fracs.size).astype(int)
    y1 = fracs[fr1] * 2.0 ** (-lev1.astype(float))
    y2 = fracs[fr2] * 2.0 ** (-lev2.astype(float))

    x1 = np.floor(u[:, 4] * N).astype(int)
    dx = np.round((2.0 * u[:, 5] - 1.0) * y1 * N).astype(int)
    x2 = (x1 + dx) % N
    tx = np.abs(x1 - x2) / N
    tx = np.minimum(tx, 1.0 - tx)
    if f.n == 1:
        at1, at2 = (x1,), (x2,)
        dist_sq = tx**2
    else:
        rng2 = np.random.default_rng(seed + 1)
        v = rng2.uniform(size=(sample_count, 3))
        x1b = np.floor(v[:, 0] * N).astype(int)
        ang = 2.0 * np.pi * v[:, 1]
        dxa = np.round(dx * np.cos(ang)).astype(int)
        dxb = np.round(dx * np.sin(ang)).astype(int)
        x2 = (x1 + dxa) % N
        x2b = (x1b + dxb) % N
        at1, at2 = (x1, x1b), (x2, x2b)
        ta = np.minimum(np.abs(dxa) % N, N - np.abs(dxa) % N) / N
        tb = np.minimum(np.abs(dxb) % N, N - np.abs(dxb) % N) / N
        dist_sq = ta**2 + tb**2

    # one derivative slice per quantized height in use, streamed: each slice
    # is read at the samples whose height id matches, then dropped
    hid1 = lev1 * fracs.size + fr1
    hid2 = lev2 * fracs.size + fr2
    g1 = np.empty(sample_count)
    g2 = np.empty(sample_count)
    used = np.union1d(hid1, hid2).tolist()
    heights = [float(fracs[h % fracs.size] * 2.0 ** -(h // fracs.size)) for h in used]
    for h, y, d2 in zip(used, heights, _extension_slices(f, heights)):
        for g, hid, at in ((g1, hid1, at1), (g2, hid2, at2)):
            rows = hid == h
            g[rows] = d2[tuple(a[rows] for a in at)] * y ** (2.0 - s)

    rho = np.arccosh(1.0 + (dist_sq + (y1 - y2) ** 2) / (2.0 * y1 * y2))
    ok = (rho > 0) & (rho <= 2.0)
    ratios = np.zeros(sample_count)
    ratios[ok] = np.abs(g1 - g2)[ok] / (norm * rho[ok])
    return LipschitzReport(
        max_ratio=float(ratios.max()) if ratios.size else 0.0,
        pairs_used=int(ok.sum()),
        sample_count=sample_count,
        norm=norm,
        s=s,
        ratios=ratios,
    )


def bmo_norm(f: GridFunction, J_max: int) -> float:
    """Dyadic mean-oscillation sup plus the global L2 norm.

    sup over dyadic cubes of levels 0..J_max of the L2 mean oscillation,
    plus the L2 norm over the torus (its single unit cube).
    """
    if J_max > f.J_grid:
        raise ValueError(f"J_max={J_max} exceeds grid depth {f.J_grid}")
    N = f.grid_size
    best = 0.0
    sums = f.samples.astype(float)
    sqs = f.samples.astype(float) ** 2
    count = 1
    # walk levels J_grid .. 0; oscillation is meaningful once recorded levels <= J_max
    for j in range(f.J_grid, -1, -1):
        if j <= J_max:
            mean = sums / count
            meansq = sqs / count
            osc_sq = np.maximum(meansq - mean**2, 0.0)
            best = max(best, float(osc_sq.max()))
        if j > 0:
            sums = pool_children(sums, f.n)
            sqs = pool_children(sqs, f.n)
            count *= 2**f.n
    l2 = math.sqrt(float((f.samples**2).mean()))
    return math.sqrt(best) + l2


def jbmo_direct_norm(f: GridFunction, s: float, J_max: int) -> float:
    """bmo norm of the order -s Bessel lift (the roughened function)."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    return bmo_norm(bessel_lift(f, -s), J_max)
