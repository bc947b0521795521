"""Maximal second differences, Holder/Zygmund seminorms over probe scales,
the large-second-difference cell sets, and empirical continuity checks.

The maximal second difference at (x, y) is the sup over directions |h| = y of
|f(x+h) - 2 f(x) + f(x-h)|.  On the grid, h is a lattice vector (exact for
n=1; rounded to within 2 percent of |h| = y for n=2).  On a probe lattice
x = k * stride, f(x + h) and f(x - h) are strided slices of the samples cut
where either wraps around the torus and added piece by piece into one buffer
per lattice, so a direction allocates nothing; sampled positions gather by
index.

second_diff_field and holder_seminorm take a tuple of s: each probe's
|Delta2| is divided by y^s for every s, so one pass over the probes serves
all of them, each bitwise as a call with its s alone.  continuity_check
stays one s, since its sampling depends on whether s = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import LevelField, pool
from .gridfn import GridFunction, _deal, _share_count

# probe heights inside a Whitney cell, as fractions of the cube side
CELL_FRACS = (0.625, 0.75, 0.875, 1.0)
# probe x points per cell and axis, where the grid is that fine
PROBES_PER_CELL = 8


def _lattice_directions(m, K: int):
    """For each of K angles pi i / K, the rounded lattice vector (ha, hb) of
    norm m and whether it is within 2 percent of m.  m may be an int or an
    int array; ha, hb and valid then have its shape."""
    K = max(K, 1)
    for i in range(K):
        theta = math.pi * i / K
        ha = np.round(m * math.cos(theta)).astype(int)
        hb = np.round(m * math.sin(theta)).astype(int)
        norm = np.hypot(ha, hb)
        yield ha, hb, (norm > 0) & (np.abs(norm - m) <= 0.02 * m)


def _directions(n: int, m: int, K: int) -> list[tuple[int, ...]]:
    """Lattice direction vectors of norm m (grid units), K angles for n=2,
    without repeats or opposite pairs.  Angle 0 always yields (m, 0)."""
    if m < 1:
        raise ValueError("probe scale below grid resolution")
    if n == 1:
        return [(m,)]
    dirs: list[tuple[int, ...]] = []
    for ha, hb, valid in _lattice_directions(m, K):
        h = (int(ha), int(hb))
        if valid and h not in dirs and (-h[0], -h[1]) not in dirs:
            dirs.append(h)
    return dirs


def _wrapped_pieces(shape: tuple[int, ...], h: tuple[int, ...], stride: int):
    """(dst, plus, minus) index triples covering the probe lattice
    p = k * stride: at the lattice points dst, samples[(p + h) % N] is
    samples[plus] and samples[(p - h) % N] is samples[minus].

    On each axis the lattice reads samples[o % stride :: stride] from step
    s = (o // stride) % M on (floor division, so o may be negative) and
    wraps to its start at k = M - s; cut at the wrap points of o = +h and
    o = -h, the axis falls into at most three pieces that wrap neither.
    """
    axes = []
    for hk, N in zip(h, shape):
        M = N // stride
        reads = [(o % stride, (o // stride) % M) for o in (hk, -hk)]  # (r, s)
        cuts = sorted({0, M} | {M - s for _, s in reads if s})
        pieces = []
        for k0, k1 in zip(cuts, cuts[1:]):
            starts = [r + (k0 + s) % M * stride for r, s in reads]
            pieces.append((slice(k0, k1), *(slice(a, a + (k1 - k0) * stride, stride)
                                            for a in starts)))
        axes.append(pieces)
    for combo in itertools.product(*axes):
        yield tuple(zip(*combo))


def _d2_lattice(samples: np.ndarray, h: tuple[int, ...], stride: int,
                twice_center: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|f(p+h) - 2 f(p) + f(p-h)| on the probe lattice p = k * stride, periodic,
    written into out and returned.

    twice_center is 2 * samples[::stride, ...], computed once per lattice
    by the caller, and out a caller-owned buffer of its shape, reused across
    directions.  f(p+h) + f(p-h) is added into out piece by piece
    (_wrapped_pieces), then 2 f(p) is subtracted and abs taken in place:
    (f(p+h) + f(p-h)) - 2 f(p), so the value is exactly even in h.
    """
    for dst, plus, minus in _wrapped_pieces(samples.shape, h, stride):
        np.add(samples[plus], samples[minus], out=out[dst])
    out -= twice_center
    return np.abs(out, out=out)


def _default_K(n: int) -> int:
    return 1 if n == 1 else 8


def _s_values(s) -> tuple[float, ...]:
    """s, checked: a nonempty tuple of smoothness orders in (0, 1]."""
    if not isinstance(s, tuple):
        raise TypeError(f"s must be a tuple of values in (0, 1], got {s!r}")
    if not s:
        raise ValueError("s must hold at least one value")
    if not all(0.0 < t <= 1.0 for t in s):
        raise ValueError("s must lie in (0, 1]")
    return s


def holder_seminorm(f: GridFunction, s: tuple[float, ...], K: int | None = None,
                    refine: int = 1) -> tuple[float, ...]:
    """max over grid x, probe scales and directions of Delta2 f / y^s, one
    value per entry of s, in order, from one pass over the probes.

    refine=1 probes the dyadic scales y = 2^-j, j = 1..J_grid-1; refine=r
    subdivides each octave into r scales (the declared resolution bias of the
    probe maximum shrinks as r grows).  The probes are dealt to two threads
    by gridfn._deal, each with its own stencil buffer, allocated on the
    calling thread.
    """
    s = _s_values(s)
    if refine < 1:
        raise ValueError("refine must be >= 1")
    K = _default_K(f.n) if K is None else K
    N = f.grid_size
    probes = []  # (y, h) per probe scale and direction
    for j in range(1, f.J_grid):
        base = 2 ** (f.J_grid - j)
        ms = sorted({int(round(base * (0.5 + q / (2.0 * refine)))) for q in range(1, refine + 1)})
        probes += [(m / N, h) for m in ms if 1 <= m < N for h in _directions(f.n, m, K)]
    twice_center = 2.0 * f.samples
    free = [np.empty_like(twice_center) for _ in range(_share_count(probes, f.samples.size))]

    def run(share):
        buf = free.pop()
        best = [0.0] * len(s)
        for y, h in share:
            val = float(_d2_lattice(f.samples, h, 1, twice_center, buf).max())
            best = [max(b, val / y**t) for b, t in zip(best, s)]
        return best

    return tuple(map(max, zip(*_deal(run, probes, f.samples.size))))


def second_diff_field(f: GridFunction, s: tuple[float, ...], J_max: int,
                      K: int | None = None) -> tuple[LevelField, ...]:
    """Per-cell max of Delta2 f(x, y) / y^s over the cell's probe points, one
    field per entry of s, in order, from one pass over the probes.

    Probe heights are the CELL_FRACS multiples of the cube side that land on
    the grid (all four at levels j <= J_grid-3, the representable pair at
    J_grid-2); probe x points are stride-coarsened so each cell sees about
    PROBES_PER_CELL points per axis.
    """
    s = _s_values(s)
    if not 0 <= J_max <= f.J_grid - 2:
        raise ValueError(f"J_max={J_max} outside [0, J_grid-2={f.J_grid - 2}]")
    K = _default_K(f.n) if K is None else K
    levels = [_level_probe_max(f, s, j, K) for j in range(J_max + 1)]
    return tuple(LevelField("secdiff", f.n, J_max, dict(enumerate(values)))
                 for values in zip(*levels))


def _level_probe_max(f: GridFunction, s: tuple[float, ...], j: int, K: int) -> list[np.ndarray]:
    """Level j of second_diff_field, per entry of s.  Its lattice arrays are
    freed before the pooling and the next level allocate theirs.  The last s
    divides the stencil buffer in place and the others a copy, so each s
    takes the operations of a one-s build."""
    N = f.grid_size
    base = 2 ** (f.J_grid - j)
    stride = base // min(base, PROBES_PER_CELL)
    twice_center = 2.0 * f.samples[(slice(None, None, stride),) * f.n]
    buf = np.empty_like(twice_center)
    probe_max = [np.zeros(twice_center.shape) for _ in s]
    scaled = np.empty_like(buf) if len(s) > 1 else None
    for frac in CELL_FRACS:
        m_exact = base * frac
        m = int(round(m_exact))
        if abs(m - m_exact) > 1e-9 or m < 1:
            continue
        y = m / N
        for h in _directions(f.n, m, K):
            _d2_lattice(f.samples, h, stride, twice_center, buf)
            for t, most in zip(s[:-1], probe_max):
                np.divide(buf, y**t, out=scaled)
                np.maximum(most, scaled, out=most)
            buf /= y**s[-1]
            np.maximum(probe_max[-1], buf, out=probe_max[-1])
    del twice_center, buf, scaled  # pooling's first halving would sit on top of them
    return [pool(most, np.maximum, 2**j) for most in probe_max]


def _d2_vector(samples: np.ndarray, pos, m: np.ndarray, K: int) -> np.ndarray:
    """Maximal second difference at per-sample positions and scales m."""
    N = samples.shape[0]
    if samples.ndim == 1:
        i = pos[0]
        return np.abs((samples[(i + m) % N] + samples[(i - m) % N]) - 2.0 * samples[i])
    out = np.zeros(m.shape)
    i, j = pos
    for ha, hb, valid in _lattice_directions(m, K):
        vals = np.abs(
            (samples[(i + ha) % N, (j + hb) % N]
             + samples[(i - ha) % N, (j - hb) % N])
            - 2.0 * samples[i, j]
        )
        np.maximum(out, np.where(valid, vals, 0.0), out=out)
    return out


@dataclass
class ContinuityReport:
    """The empirical constant of continuity_check and poisson.lipschitz_check:
    the max over sampled pairs of |g(p) - g(q)| / (norm * modulus(p, q))."""
    max_ratio: float
    pairs_used: int
    sample_count: int
    norm: float
    s: float
    ratios: np.ndarray  # per sample, 0 where the pair is not admissible

    def __eq__(self, other) -> bool:
        """Field by field; the ratios elementwise, where the generated
        comparison raised for more than one sample."""
        if not isinstance(other, ContinuityReport):
            return NotImplemented
        return ((self.max_ratio, self.pairs_used, self.sample_count, self.norm, self.s)
                == (other.max_ratio, other.pairs_used, other.sample_count, other.norm, other.s)
                and np.array_equal(self.ratios, other.ratios))


def _pair_report(g1: np.ndarray, g2: np.ndarray, norm: float, distance: np.ndarray,
                 ok: np.ndarray, s: float) -> ContinuityReport:
    """Ratios |g1 - g2| / (norm * distance) on the admissible pairs ok, one
    per sample, and their max."""
    ratios = np.zeros(ok.size)
    ratios[ok] = np.abs(g1 - g2)[ok] / (norm * distance[ok])
    return ContinuityReport(
        max_ratio=float(ratios.max()) if ratios.size else 0.0,
        pairs_used=int(ok.sum()),
        sample_count=ok.size,
        norm=norm,
        s=s,
        ratios=ratios,
    )


def continuity_check(f: GridFunction, s: float, sample_count: int, seed: int) -> ContinuityReport:
    """Empirical constant for the second-difference modulus of continuity.

    Samples admissible pairs (x, y), (x', y') with 1/2 < y/y' < 2 (and
    |x - x'| < y/2 when s = 1) and returns the max of
    |Delta2(x,y) - Delta2(x',y')| / (seminorm * modulus), where the modulus is
    |x-x'|^s + |y-y'|^s for s < 1 and the log-corrected variant at s = 1.
    Drawing more samples with the same seed extends the same sequence, so
    ratios[:k].max() is the max_ratio of the same-seed check at k samples.
    """
    if sample_count < 0:
        raise ValueError(f"sample_count={sample_count} must be >= 0")
    [norm] = holder_seminorm(f, (s,))
    if norm == 0.0:
        raise ValueError("degenerate function: zero seminorm")
    N = f.grid_size
    K = _default_K(f.n)
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(sample_count, 6))

    m1 = (1 + np.floor(u[:, 0] * (N // 2 - 1))).astype(int)
    ratio = 0.5 + 1.5 * u[:, 1]
    m2 = np.clip(np.round(m1 * ratio).astype(int), 1, N - 1)
    ok = (2 * m2 > m1) & (m2 < 2 * m1)

    if s == 1.0:
        span = np.maximum(np.ceil(m1 / 2.0) - 1.0, 0.0)
    else:
        span = m1.astype(float)
    dx = np.round((2.0 * u[:, 2] - 1.0) * span).astype(int)
    if f.n == 1:
        x1 = np.floor(u[:, 3] * N).astype(int)
        x2 = (x1 + dx) % N
        pos1, pos2 = (x1,), (x2,)
        dist_x = np.abs(dx) / N
    else:
        x1a = np.floor(u[:, 3] * N).astype(int)
        x1b = np.floor(u[:, 4] * N).astype(int)
        ang = 2.0 * np.pi * u[:, 5]
        dxa = np.round(dx * np.cos(ang)).astype(int)
        dxb = np.round(dx * np.sin(ang)).astype(int)
        pos1 = (x1a, x1b)
        pos2 = ((x1a + dxa) % N, (x1b + dxb) % N)
        dist_x = np.hypot(dxa, dxb) / N
        if s == 1.0:
            ok &= dist_x < m1 / (2.0 * N)

    d2_1 = _d2_vector(f.samples, pos1, m1, K)
    d2_2 = _d2_vector(f.samples, pos2, m2, K)

    y1 = m1 / N
    dy = np.abs(m1 - m2) / N
    if s == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            tx = np.where(dist_x > 0, dist_x * np.log(np.e + y1 / np.where(dist_x > 0, dist_x, 1.0)), 0.0)
            ty = np.where(dy > 0, dy * np.log(np.e + y1 / np.where(dy > 0, dy, 1.0)), 0.0)
        modulus = tx + ty
    else:
        modulus = dist_x**s + dy**s
    ok &= modulus > 0
    return _pair_report(d2_1, d2_2, norm, modulus, ok, s)
