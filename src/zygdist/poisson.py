"""Exact spectral Poisson extension to the upper half-space, its second
y-derivative, the large-hyperbolic-derivative cell sets, and the bmo norms.

On the torus the Poisson kernel is a pure Fourier multiplier exp(-2 pi |k| y)
and the derivative multiplier is (2 pi |k|)^2 exp(-2 pi |k| y), so heights
need not be grid aligned and there is no kernel truncation error.  Every
field takes one forward real (half-spectrum) transform of the function and,
per height, two half-length inverse real transforms: one for the even grid
columns (last axis) and one for the odd.  On grids of at least 2^16 points
the heights are shared between two threads, each with its own buffers; the
results do not depend on the schedule.  Fields are restricted to y <= 1; the
lowest frequencies dominate above that and carry no scale information.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .dyadic import LevelField, pool_children, pool_max
from .gridfn import GridFunction, bessel_lift, sup_norm, _half_freq_sq
from .secdiff import CELL_FRACS

_DEFAULT_FIELD_MARGIN = 2  # deepest field level is J_grid - margin, as for second differences
_THREAD_MIN_POINTS = 2**16  # smaller grids run their heights on the calling thread alone
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_FOLD_CHUNK = 2**12  # spectrum entries folded per pass; measured lowest peak RSS at n=1 J=20


def _extension_halves(f: GridFunction, heights, d2y: bool, consume):
    """Call consume(i, parity, half) for each height y = heights[i] and column
    parity 0 (even) and 1 (odd), where half[..., r] is d^2/dy^2 u(., y) (u
    itself if not d2y) at last-axis column 2r + parity.

    One forward half-spectrum transform of f and one table w = 2 pi |k| serve
    every height.  With P = spec * exp(-w y), each height folds the last axis
    into the half spectra of its even and odd columns, for k <= N/4,

        E_k = P_k + P_{k+N/2},   O_k = (P_k - P_{k+N/2}) exp(2 pi i k / N),

    where P_{k+N/2} = conj P_{N/2-k} (for n=2 with the first axis negated),
    and inverts each at length N/2.  half is a scratch buffer that the next
    transform overwrites; consume may modify it.  On grids of at least
    _THREAD_MIN_POINTS points the heights are dealt round-robin to the calling
    thread and one worker thread, so consume must be safe to call from both.
    """
    N = f.grid_size
    rows, cols = (N if f.n == 2 else 1), N // 4 + 1
    spec = np.fft.rfftn(f.samples).reshape(rows, -1)
    w = 2.0 * np.pi * np.sqrt(_half_freq_sq(f.n, f.J_grid)).reshape(rows, -1)
    # 1/2: a length-N/2 inverse divides by N/2 where the full one divides by N
    spec *= 0.5 * w * w if d2y else 0.5
    # [0, :, k] holds entry k and [1, :, k] entry k + N/2 as conj of row -k1, column
    # N/2 - k; w is even in k1, and conjugation commutes with the real decay
    mirror = slice(N // 2, N // 2 - cols, -1)
    w_pairs = np.stack((w[:, :cols], w[:, mirror]))
    spec_pairs = np.empty((2, rows, cols), dtype=complex)
    spec_pairs[0] = spec[:, :cols]
    np.conjugate(spec[:1, mirror], out=spec_pairs[1, :1])  # row 0 is its own negation
    np.conjugate(spec[:0:-1, mirror], out=spec_pairs[1, 1:])
    del spec, w
    step_r, step_c = max(1, _FOLD_CHUNK // cols), min(cols, _FOLD_CHUNK)
    # exp(2 pi i k / N) for k = c0 + t: one block-length table times exp(2 pi i c0 / N)
    twiddle = np.exp(2j * np.pi / N * np.arange(step_c))
    blocks = [(slice(r0, r0 + step_r), slice(c0, c0 + step_c))
              for r0 in range(0, rows, step_r) for c0 in range(0, cols, step_c)]
    fold_shape = f.samples.shape[:-1] + (cols,)
    half_shape = f.samples.shape[:-1] + (N // 2,)

    def run(share):
        even = np.empty(fold_shape, dtype=complex)
        odd = np.empty(fold_shape, dtype=complex)
        half = np.empty(half_shape)
        decay = np.empty((2, min(step_r, rows), step_c))
        pairs = np.empty(decay.shape, dtype=complex)
        views = []  # per block, height-independent: inputs, scratch, outputs
        for rs, cs in blocks:
            wv, sv = w_pairs[:, rs, cs], spec_pairs[:, rs, cs]
            _, nr, nc = wv.shape
            views.append((wv, sv, decay[:, :nr, :nc], pairs[:, :nr, :nc],
                          even.reshape(rows, cols)[rs, cs], odd.reshape(rows, cols)[rs, cs],
                          twiddle[:nc], np.exp(2j * np.pi / N * cs.start) if cs.start else None))
        for i in share:
            y = heights[i]
            for wv, sv, d, p, e, o, tw, shift in views:
                np.exp(np.multiply(wv, -y, out=d), out=d)
                np.multiply(sv, d, out=p)  # P_k, P_{k+N/2}
                np.add(p[0], p[1], out=e)
                np.subtract(p[0], p[1], out=o)
                np.multiply(o, tw, out=o)
                if shift is not None:
                    o *= shift
            for parity, folded in ((0, even), (1, odd)):
                for axis in range(f.n - 1):  # as irfftn: complex inverses first, in place
                    np.fft.ifft(folded, axis=axis, out=folded)
                np.fft.irfft(folded, n=N // 2, out=half)
                consume(i, parity, half)

    order = range(len(heights))
    if len(heights) < 2 or f.samples.size < _THREAD_MIN_POINTS or _CPUS < 2:
        run(order)
        return
    errors = []

    def worker():
        try:
            run(order[1::2])
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        run(order[0::2])
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _single_height(f: GridFunction, y: float, d2y: bool) -> np.ndarray:
    if y <= 0:
        raise ValueError("height must be > 0")
    out = np.empty(f.samples.shape)

    def interleave(i, parity, half):
        out[..., parity::2] = half

    _extension_halves(f, (y,), d2y, interleave)
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
    lock = threading.Lock()

    def pool(i, parity, half):
        j, y = probes[i]
        # a cell two or more columns wide holds both parities, a one-column cell one
        level = values[j] if 2**j < f.grid_size else values[j][..., parity::2]
        # scaling by y^(2-s) > 0 after the max rounds exactly as before it
        pooled = pool_max(np.abs(half, out=half), 2**j) * y ** (2.0 - s)
        with lock:  # both threads pool into the same levels
            np.maximum(level, pooled, out=level)

    _extension_halves(f, [y for _, y in probes], True, pool)
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

    # one derivative slice per quantized height in use, streamed in two column
    # halves; each endpoint set is sorted once by the key 2 * height id + column
    # parity, so every half reads its samples as one contiguous run of the sort
    hid1 = lev1 * fracs.size + fr1
    hid2 = lev2 * fracs.size + fr2
    g1 = np.empty(sample_count)
    g2 = np.empty(sample_count)
    used = np.union1d(hid1, hid2)
    heights = [float(fracs[h % fracs.size] * 2.0 ** -(h // fracs.size)) for h in used.tolist()]
    keys = (2 * used[:, None] + np.arange(2)).ravel()  # ascending, index 2 i + parity
    ends = []
    for g, hid, at in ((g1, hid1, at1), (g2, hid2, at2)):
        key = (2 * hid + at[-1] % 2).astype(np.int32)
        order = np.argsort(key).astype(np.int32)
        key = key[order]
        ends.append((g, at, order, np.searchsorted(key, keys), np.searchsorted(key, keys, "right")))
    del key  # the slices stream with only the sort orders held

    def gather(i, parity, half):
        scale = heights[i] ** (2.0 - s)
        for g, at, order, lo, hi in ends:
            rows = order[lo[2 * i + parity]:hi[2 * i + parity]]
            g[rows] = half[tuple(a[rows] for a in at[:-1]) + (at[-1][rows] // 2,)] * scale

    _extension_halves(f, heights, True, gather)

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
