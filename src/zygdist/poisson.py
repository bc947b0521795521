"""Exact spectral Poisson extension to the upper half-space, its second
y-derivative, the large-hyperbolic-derivative cell sets, and the bmo norms.

On the torus the Poisson kernel is a pure Fourier multiplier exp(-2 pi |k| y)
and the derivative multiplier is (2 pi |k|)^2 exp(-2 pi |k| y), so heights
need not be grid aligned and there is no kernel truncation error.  Every
field takes one forward real (half-spectrum) transform of the function,
whose segments every height reads in place, never copied, and, per height,
inverts the last axis as L interleaved phases (the columns L r + p, p < L)
of length M = N / L.  K counts the entries of the last axis whose decay is
not exactly 0.0 in float64, and M is the smallest power of two with M/2 >= K,
capped at min(N, 2^14) so that every inverse is cache-sized.
A height within the cap keeps its first K entries, one segment of the
spectrum; on grids of at most 2^14 points per axis (every n=2 grid) any other
height is one full-length inverse (L = 1), and on larger n=1 grids it sums L
segments of M entries into each phase (Bailey's four-step transform).  Only
exact zeros are dropped, so the phases change roundoff alone: each level of
a field stays within 1e-12 of its maximum of one full-length inverse per
height.  The decay is evaluated on the rows k1 >= 0 only, and the inverses
are taken in blocks of rows (n=2) or phases (n=1) of an eighth of the grid
(up to 2^16 points, all of it), each pooled as it is made.  On grids of at
least 2^16 points two threads share the work (gridfn._deal), as they share
the Bessel lift of jbmo_direct_norm and the probes of
secdiff.holder_seminorm: at n=1 each takes whole heights in its own
spectrum buffer and scratch; at n=2 the heights run one at a time in one
spectrum buffer, and the threads share each height's stages.  The
results do not depend on the schedule.
second_diff_field, bmo_norm and synthesis run on the calling thread alone.
Fields are restricted to y <= 1; the lowest frequencies dominate above
that and carry no scale information.

s enters only as the factor y^(2-s) of each height, so derivative_field,
holder_poisson_norm and lipschitz_check take a tuple of s and make one pass
over the heights for all of them; each s scales the same pooled maxima with
the operations of a one-s call, so each result is bitwise that call's.
lipschitz_check's height ladder holds the field's heights, and its norm comes
from its own pass.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .dyadic import LevelField, pool
from .gridfn import GridFunction, bessel_lift, sup_norm, _deal, _half_freq_sq, _share_count
from .secdiff import CELL_FRACS, ContinuityReport, _chunks, _pair_ratios, _report, _s_values

_DEFAULT_FIELD_MARGIN = 2  # deepest field level is J_grid - margin, as for second differences
_TWIDDLE_LENGTH = 2**12  # entries of the fine twiddle table, exp(2 pi i t / N) for t < this
_SEGMENT_LENGTH = 2**14  # longest inverse transform; 2^13 and 2^15 measured alike
# an inverse block holds an eighth of the grid, or up to this many points all
# of it (half on each thread), so that small grids make few transform and
# pooling calls per height
_BLOCK_POINTS = 2**16


def _phase_plan(N: int, heights) -> list[tuple[int, int]]:
    """(K, L) per height y: the height keeps K leading half-spectrum entries
    of the last axis and is inverted as L interleaved phases of length
    M = N / L.

    K counts the entries k whose decay exp(-2 pi k y) is not exactly 0.0; in
    float64 it underflows to zero once 2 pi k y passes about 745.  M is the
    smallest power of two with M/2 >= K, capped at min(N, _SEGMENT_LENGTH):
    a height with K <= M/2 inverts one segment of the spectrum, and any other
    is one full-length inverse (L = 1) where N <= _SEGMENT_LENGTH and sums L
    segments of M points into each phase where N is larger.
    """
    y = np.asarray(heights, dtype=float)
    # exp(-x) is at least the smallest subnormal below x = 744 and exactly 0.0
    # above 746, so the decay is evaluated only on each height's window of
    # k between the two; w = 2 pi k is the generator's table at k1 = 0
    lo = np.minimum(np.floor(744.0 / (2.0 * np.pi * y)), N // 2 + 1).astype(int)
    hi = np.minimum(np.ceil(746.0 / (2.0 * np.pi * y)) + 1, N // 2 + 1).astype(int)
    size = hi - lo
    height = np.repeat(np.arange(y.size), size)
    k = np.arange(height.size) + np.repeat(lo + size - np.cumsum(size), size)
    kept = lo + np.bincount(height[np.exp(2.0 * np.pi * k * -y[height]) != 0], minlength=y.size)
    top = min(N, _SEGMENT_LENGTH)
    return [(K, N // min(2 << (K - 1).bit_length(), top)) for K in kept.tolist()]


def _stage_twiddle(step: int, K: int, fine: np.ndarray, coarse: np.ndarray, out: np.ndarray):
    """exp(2 pi i k step / N) for k < K, from fine[t] = exp(2 pi i t / N) for
    t < S and coarse[c] = exp(2 pi i c S / N): a strided view of one of them,
    or their outer product written to out[:K]."""
    S = fine.size
    if (K - 1) * step < S:
        return fine[::step][:K]
    if step >= S:
        return coarse[::step // S][:K]
    width = S // step
    full, rest = divmod(K, width)
    np.multiply(coarse[:full, None], fine[::step], out=out[:full * width].reshape(full, width))
    np.multiply(coarse[full], fine[::step][:rest], out=out[full * width:K])
    return out[:K]


def _extension_blocks(f: GridFunction, heights, d2y: bool, consume):
    """Call consume(i, p, r, block) for each height y = heights[i] and each
    of its inverse blocks: block has shape (B, R, M), and block[q, a, c] is
    d^2/dy^2 u(., y) (u itself if not d2y) at row r + a (n=2) and last-axis
    column L c + p + q, with L = N / M from _phase_plan.  A block holds B
    phases of R rows (R = 1 at n=1; at n=2 all L phases of R rows), an eighth
    of the grid or, up to _BLOCK_POINTS, all of it split between the shares
    of _deal, and never less than one phase.  consume reads the layout from
    block.shape alone.

    One forward half-spectrum transform of f serves every height; P = spec *
    exp(-w y) with w = 2 pi |k|, a table of the rows k1 >= 0 at n=2 and, at
    n=1, 2 pi times the integer frequency, written into the scratch as each
    height is seeded.  Phase p has the half spectrum

        sum over m < L of P_{k+mM} exp(2 pi i (k + mM) p / N),   k <= M/2,

    with P_{k+N/2} = conj P_{N/2-k}.  The segments T[m, k] = P_{k+m Ms},
    m < Ls = N / Ms, k <= Ms/2, at the segment length Ms = min(N,
    _SEGMENT_LENGTH), are views of the one half spectrum, never copied: for
    m < Ls/2 its reshape, for m >= Ls/2 the reshape of its reversed entries
    N/2 - k, conjugated as they are seeded.  On grids of at most 2^14 points
    per axis (every n=2 grid) Ms = N: T is the half spectrum itself, and a
    height whose decay is nonzero beyond N/4 last-axis entries is one
    full-length inverse, L = 1.  If K <= M/2, only m = 0 is nonzero: phase 0
    is P_k, k < K, and phases h..2h-1 are phases 0..h-1 times
    exp(2 pi i k h / N).
    Otherwise (n=1 grids above 2^14 points) M = Ms, and phase p is the
    inverse transform over m of the segments, times exp(2 pi i k p / N), one
    factor per bit h of p (the four-step transform); only the segments
    holding a nonzero decay are evaluated, the others are zero.  The decay
    exp(-w y) is evaluated on rows k1 = 0..N/2 only: w is even in k1, and
    rows k1 < 0 read it reversed.

    Each height runs in a spectrum buffer (its phases) and a scratch, both
    allocated here on the calling thread, in three stages: the seeding (the
    decays, in the scratch, and their products with the segments), the column
    stage (the segment sum, the twiddles and, at n=2, the first-axis
    inverses) and the block stage (the inverse blocks, each made in the
    scratch and handed to consume).  At n=1 gridfn._deal deals whole
    heights to up to two threads, each with its own buffer and scratch.  At
    n=2 the heights run one at a time in one buffer and scratch, and _deal
    shares each stage between the threads: the seeding by halves of the
    rows k1 = 0..N/2, the column stage by halves of the K kept columns
    (whole columns for a height of one segment and L > 1 phases), each
    stage's twiddles made beforehand in the scratch, and the block stage by
    blocks, each share taking an inverse block's worth of the scratch.
    block is that scratch, which the next transform overwrites; consume may
    modify it, and must be safe to call from both threads.
    """
    N, n = f.grid_size, f.n
    rows = N if n == 2 else 1
    wrows = N // 2 + 1 if n == 2 else 1  # rows k1 = 0..N/2 of the decay
    plan = _phase_plan(N, heights)
    Ms = min(N, _SEGMENT_LENGTH)
    Ls, half = N // Ms, Ms // 2 + 1
    spec = np.fft.rfft(f.samples).reshape(rows, -1)
    if n == 2:  # as rfftn: the first axis after the last, here in place
        np.fft.fft(spec, axis=0, out=spec)
    ksq = _half_freq_sq(1, f.J_grid)  # k^2, k = 0..N/2
    w = 2.0 * np.pi * np.sqrt(ksq if n == 1 else ksq[:, None] + ksq).reshape(wrows, -1)
    del ksq
    # 1/Ls: a length-Ms inverse divides by Ms where the full one divides by N
    if d2y:
        scale = w * w
        scale /= Ls
        spec[:wrows] *= scale
        if n == 2:  # rows k1 = -N/2+1..-1 read rows N/2-1..1 of the table
            spec[wrows:] *= scale[wrows - 2:0:-1]
        del scale
    elif Ls > 1:
        spec *= 1.0 / Ls
    # the segments are views of spec: m < Ls/2 (the one segment if Ls = 1)
    # directly, the rest, entry k + N/2, as the reversed view, entry N/2 - k,
    # conjugated as they are seeded (conjugation commutes with the real decay)
    if Ls == 1:
        table = spec[None]
    else:
        def segments(a):
            return a.reshape(1, Ls // 2, Ms)[..., :half].swapaxes(0, 1)

        table, mirror = segments(spec[:, :N // 2]), segments(spec[:, N // 2:0:-1])
    if n == 1:  # the seeding writes w = 2 pi k from the integer frequencies, exactly
        del w
        ks = np.arange(half, dtype=float)
    # exp(2 pi i k / N) for k = c S + t: twiddle[t] times shifts[c]
    cols = N // 4 + 1
    S = min(cols, _TWIDDLE_LENGTH)
    twiddle = np.exp(2j * np.pi / N * np.arange(S))
    shifts = np.exp(2j * np.pi / N * S * np.arange(-(-cols // S)))
    # exp(2 pi i k h / N), k <= Ms/2, for the phases with bit h of p set
    bits = [(1 << b, _stage_twiddle(1 << b, half, twiddle, shifts, np.empty(half, dtype=complex)))
            for b in range(Ls.bit_length() - 1)]
    # per height: the kept entries K, the phases L, the segments seeded, and
    # the ranges of segments whose decays are nonzero
    layouts = []
    for K, L in plan:
        if Ls > 1 and K > N // L // 2:  # Ls segments; those m < a and m >= b hold nonzero decays
            a = min((K - 1) // Ms + 1, Ls // 2)
            b = max((N - Ms // 2 - K) // Ms + 1, Ls // 2)
            layouts.append((half, L, Ls, ((0, a), (b, Ls))))
        else:  # one segment
            layouts.append((K, L, 1, ((0, 1),)))
    shares = _share_count(range(2), f.samples.size)
    shared = n == 2  # the heights share one buffer set, else each thread holds one
    slots = shares if shared else 1  # inverse blocks per buffer set
    points = max(N**n // 8, min(N**n, _BLOCK_POINTS) // shares, Ms)  # per inverse block
    # the scratch holds the decay of the rows k1 = 0..N/2, then a height's
    # stage twiddles (one row of K entries per stage), then the inverse
    # blocks, in whole complex entries
    twiddles = max((K * ((L // seeds).bit_length() - 1) for K, L, seeds, _ in layouts), default=0)
    size = max(slots * points // 2, -(-wrows // 2) * half, twiddles)

    def height(i, buffer, scratch, deal):
        """Height i in buffer and scratch; deal(run, items) runs each stage."""
        y = heights[i]
        K, L, seeds, live = layouts[i]
        flat = scratch.view(float)
        phases = buffer[:L * rows * K].reshape(L, rows, K)
        if len(live) == 2:
            phases[live[0][1]:live[1][0]] = 0.0
        step = flat.size // (wrows * K)  # segments per decay

        def seed(share):  # the decays of rows k1 = a..b-1 and their products with the segments
            for a, b in share:
                for lo, hi in live:
                    mirrored = 2 * lo >= Ls  # segments lo..hi-1 read the reversed view
                    for m in range(lo, hi, step):
                        top = min(m + step, hi)
                        d = flat[:(top - m) * wrows * K].reshape(top - m, wrows, K)
                        if n == 1:  # w at the frequency m Ms + k, or N - m Ms - k past N/2
                            at = np.arange(m, top)[:, None, None] * Ms
                            if mirrored:
                                np.subtract(N - at, ks[:K], out=d)
                            else:
                                np.add(at, ks[:K], out=d)
                            d *= 2.0 * np.pi
                            d *= -y
                        else:
                            np.multiply(w[None, a:b, :K], -y, out=d[:, a:b])
                        np.exp(d[:, a:b], out=d[:, a:b])
                        out = phases[m:top, a:b]
                        segs = (np.conjugate(mirror[m - Ls // 2:top - Ls // 2, :, :K], out=out)
                                if mirrored else table[m:top, a:b, :K])
                        np.multiply(segs, d[:, a:b], out=out)
                        # rows k1 = -N/2+1..-1 read rows N/2-1..1 of the decay
                        c, e = max(a, 1), min(b, N // 2)
                        if n == 2 and c < e:
                            np.multiply(table[m:top, N - e + 1:N - c + 1, :K], d[:, e - 1:c - 1:-1],
                                        out=phases[m:top, N - e + 1:N - c + 1])

        # by halves of whole rows: on column halves numpy copies short strided
        # rows through buffers, and two threads were no faster than one
        deal(seed, [(0, wrows // 2), (wrows // 2, wrows)] if shared and wrows > 1 else [(0, wrows)])
        if L > Ls and seeds == 1:
            phases[0] *= Ls / L  # the table carries 1/Ls; length N / L needs 1/L
        # exp(2 pi i k h / N) for the phases h..2h-1, made from 0..h-1
        stages = []
        h = seeds
        while h < L:
            stages.append((h, _stage_twiddle(h, K, twiddle, shifts, scratch[len(stages) * K:])))
            h *= 2

        def columns(share):
            for c in share:
                part = phases[..., c]
                if seeds > 1:  # sum over the segments, then each phase's twiddle
                    np.fft.ifft(part, axis=0, norm="forward", out=part)
                    for h, tw in bits:
                        part.reshape((L // (2 * h), 2, h) + part.shape[1:])[:, 1] *= tw[c]
                if n == 2:  # as irfftn: the complex first-axis inverse first, in place
                    np.fft.ifft(part[:seeds], axis=1, out=part[:seeds])
                # the first-axis inverses commute with the last-axis twiddles
                for h, tw in stages:
                    np.multiply(part[:h], tw[c], out=part[h:2 * h])

        # an n=2 height of L > 1 phases spends this stage mostly twiddling
        # phase 0, which two threads on column halves (short strided rows,
        # that numpy copies through buffers) did no faster than one on whole rows
        piece = -(-K // (shares if shared and L == 1 else 1))
        deal(columns, [slice(c, min(c + piece, K)) for c in range(0, K, piece)])
        M = N // L
        B = min(L, points * L // N)
        R = min(rows, points * L // (B * N))
        free = [flat[s * points:(s + 1) * points] for s in range(slots)]

        def blocks(share):
            block = free.pop()[:B * R * M].reshape(B, R, M)
            for p, r in share:
                np.fft.irfft(phases[p:p + B, r:r + R], n=M, out=block)
                consume(i, p, r, block)

        deal(blocks, [(p, r) for p in range(0, L, B) for r in range(0, rows, R)])

    def sets(count):
        return [(np.empty(Ls * rows * half, dtype=complex), np.empty(size, dtype=complex))
                for _ in range(count)]

    if shared:
        [(buffer, scratch)] = sets(1)
        for i in range(len(heights)):
            height(i, buffer, scratch, lambda stage, items: _deal(stage, items, f.samples.size))
    else:
        free_sets = sets(_share_count(heights, f.samples.size))

        def run(share):
            buffer, scratch = free_sets.pop()
            for i in share:
                height(i, buffer, scratch, lambda stage, items: stage(items))

        _deal(run, range(len(heights)), f.samples.size)


def _single_height(f: GridFunction, y: float, d2y: bool) -> np.ndarray:
    if not 0.0 < y < math.inf:
        raise ValueError("height must be finite and > 0")
    out = np.empty(f.samples.shape)

    def place(i, p, r, block):
        B, R, M = block.shape
        columns = out.reshape(-1, M, f.grid_size // M)  # [row, c, p] is column L c + p
        columns[r:r + R, :, p:p + B] = np.moveaxis(block, 0, -1)

    _extension_blocks(f, (y,), d2y, place)
    return out


def poisson_extend(f: GridFunction, y: float) -> GridFunction:
    """Harmonic extension u(., y), one exact multiplier per height."""
    return GridFunction(f.n, f.J_grid, _single_height(f, y, d2y=False),
                        label=f"{f.label}|P[{y:g}]")


def d2y_extension(f: GridFunction, y: float) -> GridFunction:
    """d^2/dy^2 of the harmonic extension at height y."""
    return GridFunction(f.n, f.J_grid, _single_height(f, y, d2y=True),
                        label=f"{f.label}|d2yP[{y:g}]")


def derivative_field(f: GridFunction, s: tuple[float, ...], J_max: int) -> tuple[LevelField, ...]:
    """Per-cell max of y^(2-s) |d2y u| at heights CELL_FRACS * 2^-j over all
    grid columns of the cell, one field per entry of s, in order.

    One pass over the heights serves every s: each height's pooled maxima are
    scaled by each s's factor, so every field is bitwise that of a one-s call.
    """
    s = _s_values(s)
    if not 0 <= J_max <= f.J_grid:
        raise ValueError(f"J_max={J_max} outside [0, {f.J_grid}]")
    probes = [(j, frac * 2.0**-j) for j in range(J_max + 1) for frac in CELL_FRACS]
    tables = [{j: np.zeros((2**j,) * f.n) for j in range(J_max + 1)} for _ in s]
    lock = threading.Lock()

    def consume(i, p, r, block):
        j, y = probes[i]
        a = np.abs(block, out=block)
        B, R, M = block.shape
        L, W = f.grid_size // M, f.grid_size >> j  # phases; columns (and rows) per cell
        # the block's rows fall in the cells of rows r // W .., min(W, R) each
        rows = slice(r // W, (r + R - 1) // W + 1)
        levels = [values[j].reshape(-1, 2**j)[rows] for values in tables]
        # column L c + p lies in cell c // (W / L) if W >= L; otherwise the
        # cell of columns L c + W g .. L c + W g + W - 1 holds phases W g ..
        # W g + W - 1, and the block's B phases fill groups of min(W, B)
        a = a.reshape(B // min(W, B), min(W, B), levels[0].shape[0], min(W, R), M)
        for axis in (1, 3):  # the maximum over each group's phases and rows, in place
            h = a.shape[axis]
            while h > 1:
                h //= 2
                head = a[(slice(None),) * axis + (slice(h),)]
                np.maximum(head, a[(slice(None),) * axis + (slice(h, 2 * h),)], out=head)
        a = a[:, 0, :, 0]
        if W < L:  # [row, c, g]
            cells = slice(p // W, p // W + a.shape[0])
            levels = [level.reshape(level.shape[0], M, L // W)[..., cells] for level in levels]
            a = a.transpose(1, 2, 0)
        else:
            a = a[0]
        a = pool(a, np.maximum, levels[0].shape)  # W / L columns c per cell, if W >= L
        # scaling by y^(2-s) > 0 after the max rounds exactly as before it;
        # the last s scales a in place, the others a copy
        scaled = [a * y ** (2.0 - t) for t in s[:-1]]
        a *= y ** (2.0 - s[-1])
        scaled.append(a)
        with lock:  # both threads pool into the same levels
            for level, b in zip(levels, scaled):
                np.maximum(level, b, out=level)

    _extension_blocks(f, [y for _, y in probes], True, consume)
    return tuple(LevelField("poisson", f.n, J_max, values) for values in tables)


def holder_poisson_norm(f: GridFunction, s: tuple[float, ...]) -> tuple[float, ...]:
    """sup|f| + max over Whitney probe points of y^(2-s) |d2y u| on levels up
    to J_grid - 2, per entry of s."""
    fields = derivative_field(f, s, f.J_grid - _DEFAULT_FIELD_MARGIN)
    sup = sup_norm(f)
    return tuple(sup + field.max_value for field in fields)


def lipschitz_check(f: GridFunction, s: tuple[float, ...], sample_count: int,
                    seed: int) -> tuple[ContinuityReport, ...]:
    """Hyperbolic Lipschitz constant of g = y^(2-s) d2y u, empirically, one
    report per entry of s, in order.

    Samples point pairs at hyperbolic distance <= 2 (heights quantized to a
    per-octave ladder so derivative slices are computed once per height) and
    returns max |g(p) - g(q)| / (norm * rho(p, q)).  Same-seed runs with a
    larger sample count extend the same sequence, so ratios[:k].max() is the
    max_ratio of the same-seed check at k samples.

    The norm is holder_poisson_norm's, bitwise, from the same pass: the ladder
    holds every CELL_FRACS height of levels <= J_grid - 2, each of which keeps
    its max |d2y u| = M_y, and the norm is sup|f| + max over them of
    M_y y^(2-s) (rounding a positive scaling is monotone, so this is the
    field's maximum).  Every s reads the same pass.

    The pairs are drawn twice, SAMPLE_CHUNK samples at a time, from fresh
    generators: first for each endpoint's rung of the ladder and grid
    position, then, once the pass has stored d2y u at every endpoint, for
    the distances and the ratios.  Per sample the check holds 2 bytes of
    rungs, 16 of d2y u and 8 of ratios per s; until the pass ends, also the
    endpoints' positions and their order by rung, in the smallest unsigned
    integers that hold them (4 or 8 bytes a sample each).  Everything else
    lives for one chunk: 10^6 samples at n=1 J_grid=12 and s = (0.5, 1)
    peak at 34 MiB (tracemalloc), one sixth of the 199 MiB that a draw of
    every sample at once took.
    """
    s = _s_values(s)
    if sample_count < 0:
        raise ValueError(f"sample_count={sample_count} must be >= 0")
    N = f.grid_size
    J_top = f.J_grid - _DEFAULT_FIELD_MARGIN
    fracs = np.linspace(0.5, 1.0, 9)[1:]  # (1/2, 1] in eighths
    rungs = (J_top + 1) * fracs.size  # at most 152: a rung fits a byte
    lev, fr = np.divmod(np.arange(rungs), fracs.size)
    ladder = fracs[fr] * 2.0 ** (-lev.astype(float))  # the height of each rung
    grid = (N,) * f.n

    def draw(rngs, count, ends=None):
        """The next count samples of the generators rngs, as one draw of
        every sample makes them: the rungs of both endpoints, shape (2,
        count), drawn unless ends holds them, and per axis the first
        endpoint's position and the offset to the second."""
        u = rngs[0].uniform(size=(count, 6))
        if ends is None:
            lev1 = np.floor(u[:, 0] * (J_top + 1)).astype(int)
            # neighbor height: same or adjacent level, any frac
            lev2 = np.clip(lev1 + np.round(2.0 * u[:, 2] - 1.0).astype(int), 0, J_top)
            ends = np.stack((lev1 * fracs.size + np.floor(u[:, 1] * fracs.size).astype(int),
                             lev2 * fracs.size + np.floor(u[:, 3] * fracs.size).astype(int)))
        starts = [np.floor(u[:, 4] * N).astype(int)]
        offsets = [np.round((2.0 * u[:, 5] - 1.0) * ladder[ends[0]] * N).astype(int)]
        if f.n == 2:
            v = rngs[1].uniform(size=(count, 3))
            starts.append(np.floor(v[:, 0] * N).astype(int))
            ang = 2.0 * np.pi * v[:, 1]
            dx = offsets[0]
            offsets = [np.round(dx * np.cos(ang)).astype(int), np.round(dx * np.sin(ang)).astype(int)]
        return ends, starts, offsets

    def generators():
        return np.random.default_rng(seed), np.random.default_rng(seed + 1)

    # per sample, its two endpoints' rungs and flat grid positions
    rung = np.empty((2, sample_count), dtype=np.uint8)
    spot = np.empty((2, sample_count), dtype=np.min_scalar_type(N**f.n - 1))
    rngs = generators()
    for lo, hi in _chunks(sample_count):
        rung[:, lo:hi], starts, offsets = draw(rngs, hi - lo)
        spot[0, lo:hi] = np.ravel_multi_index(starts, grid)
        spot[1, lo:hi] = np.ravel_multi_index([x + dx for x, dx in zip(starts, offsets)], grid,
                                              mode="wrap")

    # one derivative slice per quantized height in use, by the samples or the
    # norm, streamed in inverse blocks; the endpoints are sorted once by
    # rung, so each block picks its endpoints from its height's contiguous
    # run of the sort
    order = np.argsort(rung.ravel(), kind="stable").astype(np.min_scalar_type(rung.size))
    counts = np.bincount(rung.ravel(), minlength=rungs)  # endpoints per rung
    norm_rung = np.zeros(rungs, dtype=bool)
    norm_rung[[j * fracs.size + fracs.tolist().index(frac)
               for j in range(J_top + 1) for frac in CELL_FRACS]] = True
    used = np.flatnonzero((counts > 0) | norm_rung)
    stop = np.cumsum(counts)[used]
    start = stop - counts[used]
    in_norm = norm_rung[used]
    heights = ladder[used].tolist()
    d2y = np.empty((2, sample_count))  # d2y u at each endpoint
    peaks = np.zeros(len(heights))  # max |d2y u| per norm height
    lock = threading.Lock()

    def gather(i, p, r, block):
        # column L c + p + q of row r + a (row 0 at n=1) is block[q, a, c]:
        # the flat position divided by L is (r + a) M + c
        B, R, M = block.shape
        ends = order[start[i]:stop[i]]  # empty for a height only the norm reads
        rc, q = np.divmod(spot.ravel()[ends], N // M)
        keep = (q >= p) & (q < p + B) & (rc >= r * M) & (rc < (r + R) * M)
        d2y.ravel()[ends[keep]] = block.reshape(B, R * M)[q[keep] - p, rc[keep] - r * M]
        if in_norm[i]:
            peak = float(np.abs(block, out=block).max())
            with lock:  # at n=2 both threads take blocks of one height
                peaks[i] = max(peaks[i], peak)

    _extension_blocks(f, heights, True, gather)
    del order, spot

    sup = sup_norm(f)
    norms = [sup + max(float(peaks[i]) * heights[i] ** (2.0 - t) for i in np.flatnonzero(in_norm))
             for t in s]
    if 0.0 in norms:
        raise ValueError("degenerate function: zero norm")
    # y^(2-s) per rung and s: the Python floats by which the field scales
    # each height
    scales = np.zeros((len(s), rungs))
    for i, h in enumerate(used.tolist()):
        scales[:, h] = [heights[i] ** (2.0 - t) for t in s]
    ratios = [np.zeros(sample_count) for _ in s]
    rngs = generators()

    def hyperbolic(ends, offsets):
        """rho of each pair, from its rungs and its offsets per axis."""
        # the torus distance along an axis is |dx| or N - |dx| grid steps
        dist_sq = sum((np.minimum(np.abs(dx) % N, N - np.abs(dx) % N) / N) ** 2 for dx in offsets)
        y1, y2 = ladder[ends]
        return np.arccosh(1.0 + (dist_sq + (y1 - y2) ** 2) / (2.0 * y1 * y2))

    def score(lo, hi):
        """Write the ratios of samples lo..hi-1 into each s's ratios; return
        the number of admissible pairs."""
        ends = rung[:, lo:hi]
        rho = hyperbolic(ends, draw(rngs, hi - lo, ends)[2])
        ok = (rho > 0) & (rho <= 2.0)
        for scale, norm, out in zip(scales, norms, ratios):
            g1, g2 = d2y[:, lo:hi] * scale[ends]
            _pair_ratios(g1, g2, norm, rho, ok, out[lo:hi])
        return int(ok.sum())

    pairs_used = sum(score(lo, hi) for lo, hi in _chunks(sample_count))
    return tuple(_report(r, pairs_used, norm, t) for r, norm, t in zip(ratios, norms, s))


def bmo_norm(f: GridFunction, J_max: int) -> float:
    """Dyadic mean-oscillation sup plus the global L2 norm.

    sup over dyadic cubes of levels 0..J_max of the L2 mean oscillation,
    plus the L2 norm over the torus (its single unit cube).  The squares are
    the one full-size array; the sums start as the samples themselves.
    """
    if not 0 <= J_max <= f.J_grid:
        raise ValueError(f"J_max={J_max} outside [0, {f.J_grid}]")
    best = 0.0
    sums = f.samples
    sqs = f.samples**2
    l2 = math.sqrt(float(sqs.mean()))
    count = 1
    # walk levels J_grid .. 0; oscillation is meaningful once recorded levels <= J_max.
    # A single point oscillates by x^2 - x^2 = 0 (nan if x^2 overflows, which
    # max(0.0, nan) drops), so the finest level is skipped: best stays 0.0 either way
    for j in range(f.J_grid, -1, -1):
        if j <= J_max and count > 1:
            mean = sums / count
            np.square(mean, out=mean)
            osc_sq = sqs / count
            osc_sq -= mean
            np.maximum(osc_sq, 0.0, out=osc_sq)
            best = max(best, float(osc_sq.max()))
        if j > 0:
            sums = pool(sums, np.add, 2 ** (j - 1))
            sqs = pool(sqs, np.add, 2 ** (j - 1))
            count *= 2**f.n
    return math.sqrt(best) + l2


def jbmo_direct_norm(f: GridFunction, s: float, J_max: int) -> float:
    """bmo norm of the order -s Bessel lift (the roughened function)."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    return bmo_norm(bessel_lift(f, -s), J_max)
