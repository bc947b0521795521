"""Sampled periodic functions on the n-torus (n in {1,2}), the Bessel lift,
and a one-line DSL for generating a test corpus.

All analysis in this package lives on [0,1)^n with a uniform dyadic grid of
2^J_grid points per axis.  Frequencies are integers k, with the multiplier
convention xi = 2*pi*k.

The Weierstrass, lacunary and log-kink kinds of synthesis evaluate their
transcendentals on one axis, once per distinct argument (the Weierstrass
levels share half of theirs; the log-kink is evaluated once per coordinate),
and lay the values out on the grid.  The Bessel multiplier is evaluated
once per (|k1|, k2) with |k1| <= k2 (131,841 values at n=2 J_grid=10, where
the distinct |k|^2 number 82,799) and read row by row.  The samples are
bitwise those of a pointwise evaluation.

_deal shares the work of one stage between the calling thread and one
worker on grids of at least 2^16 points: the Bessel lift's transforms and
multiplier table here, the Poisson heights and the Holder seminorm's probes.
Each share's buffers are allocated on the calling thread (_share_count).
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

J_GRID_MIN = 4
J_GRID_MAX = {1: 20, 2: 11}

# points per block of the Weierstrass level sum: its scratch buffer and the
# steps k/N of a block are 512 KiB each however large the grid
_LEVEL_BLOCK = 2**16
# points of the Bessel lift's real transforms in flight, half per thread: each
# thread's longdouble copy of its row block is 512 KiB at n=2 (a whole row at
# n=1)
_ROW_BLOCK = 2**16
_THREAD_MIN_POINTS = 2**16  # smaller grids run their work on the calling thread alone
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# n=1 reference corpus used by the validation suite and the comparability
# bands.  Rough (Weierstrass/lacunary) entries sit outside the bmo-Sobolev
# space; trig polynomials, the atom and the log-kink function are inside.
CORPUS_SPECS = (
    "trig k=1 a=1",
    "trig k=3 a=0.7 phase=0.4",
    "sum trig k=1 a=1 + trig k=7 a=0.2",
    "weierstrass s=0.5 levels=9 signs=plus",
    "weierstrass s=1 levels=9 signs=plus",
    "weierstrass s=1 levels=9 seed=7 signs=random",
    "weierstrass s=0.7 levels=9 seed=11 signs=random",
    "lacunary-random s=0.5 levels=9 seed=3",
    "lacunary-random s=1 levels=9 seed=5",
    "xlogx",
    "wavelet-atom l=1 j=3 k=2",
    "sum weierstrass s=1 levels=8 signs=plus + trig k=2 a=0.5",
)


class SpecError(ValueError):
    """Malformed or out-of-range function spec."""


def _check_grid(n: int, J_grid: int):
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if not J_GRID_MIN <= J_grid <= J_GRID_MAX[n]:
        raise ValueError(f"J_grid={J_grid} outside [{J_GRID_MIN}, {J_GRID_MAX[n]}] for n={n}")


def _deal(run, items, points: int) -> list:
    """Run run(share) over shares of items and return the results, the
    calling thread's first.

    On a grid of at least _THREAD_MIN_POINTS points, with two CPUs and two
    items, items[0::2] run on the calling thread and items[1::2] on one
    worker thread, whose exception is raised on the caller once both are
    done; otherwise run(items) runs on the calling thread alone.  run must be
    safe to call from both threads at once.
    """
    if _share_count(items, points) == 1:
        return [run(items)]
    results, errors = [None, None], []

    def worker():
        try:
            results[1] = run(items[1::2])
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        results[0] = run(items[0::2])
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _share_count(items, points: int) -> int:
    """How many shares _deal makes of items: 2 where it starts a worker, else
    1.  A stage allocates that many per-share buffers on the calling thread
    and hands them in, so that the worker's malloc arena stays empty: memory
    a worker allocates can stay there after the stage and raise a later
    stage's process peak."""
    return 2 if len(items) >= 2 and points >= _THREAD_MIN_POINTS and _CPUS >= 2 else 1


@dataclass(frozen=True)
class GridFunction:
    """Real samples of a periodic function on the dyadic grid of [0,1)^n."""

    n: int
    J_grid: int
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        _check_grid(self.n, self.J_grid)
        arr = np.ascontiguousarray(np.asarray(self.samples, dtype=float))
        expected = (2**self.J_grid,) * self.n
        if arr.shape != expected:
            raise ValueError(f"samples shape {arr.shape}, expected {expected}")
        # NaN propagates through max and min, and an infinity is one of them;
        # no full-size boolean array is made
        if not (np.isfinite(arr.max()) and np.isfinite(arr.min())):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def grid_size(self) -> int:
        return 2**self.J_grid

    def scaled(self, lam: float) -> "GridFunction":
        return replace(self, samples=lam * self.samples, label=f"{lam:g}*({self.label})")


@dataclass(frozen=True)
class FunctionSpec:
    kind: str
    params: dict

    def canonical(self) -> str:
        if self.kind == "sum":
            return " + ".join(t.canonical() for t in self.params["terms"])
        items = []
        for key in sorted(self.params):
            v = self.params[key]
            if isinstance(v, tuple):
                items.append(f"{key}={','.join(str(x) for x in v)}")
            else:
                items.append(f"{key}={v:g}" if isinstance(v, float) else f"{key}={v}")
        return " ".join([self.kind] + items)


_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_value(key: str, raw: str, pos: int):
    if "," in raw:
        parts = raw.split(",")
        if not all(_INT_RE.match(p) for p in parts):
            raise SpecError(f"bad integer pair for '{key}' at position {pos}: {raw!r}")
        return tuple(int(p) for p in parts)
    if _INT_RE.match(raw):
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        return raw


_KNOWN_KEYS = {
    "trig": {"k", "a", "phase"},
    "weierstrass": {"s", "levels", "seed", "signs"},
    "lacunary-random": {"s", "levels", "seed"},
    "xlogx": {"eps"},
    "wavelet-atom": {"l", "j", "k", "p"},
    "file": {"path"},
}


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse the one-line function DSL into a validated FunctionSpec."""
    text = text.strip()
    if not text:
        raise SpecError("empty spec")
    if text.startswith("sum "):
        parts = [p.strip() for p in text[4:].split(" + ")]
        if len(parts) < 2:
            raise SpecError("sum needs at least two '+'-separated terms")
        terms = []
        for part in parts:
            if part.startswith("sum "):
                raise SpecError("nested sum specs are not supported")
            terms.append(parse_function_spec(part))
        return FunctionSpec("sum", {"terms": tuple(terms)})

    tokens = text.split()
    kind = tokens[0]
    if kind not in _KNOWN_KEYS:
        raise SpecError(f"unknown kind {kind!r} at position 0")
    params: dict = {}
    pos = len(kind) + 1
    for tok in tokens[1:]:
        if "=" not in tok:
            raise SpecError(f"expected key=value at position {pos}, got {tok!r}")
        key, raw = tok.split("=", 1)
        if key not in _KNOWN_KEYS[kind]:
            raise SpecError(f"unknown key {key!r} for kind {kind!r} at position {pos}")
        params[key] = raw if key in ("signs", "path") else _parse_value(key, raw, pos)
        pos += len(tok) + 1
    _validate_params(kind, params)
    return FunctionSpec(kind, params)


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(msg)


def _as_float(p: dict, key: str, kind: str) -> float:
    try:
        return float(p[key])
    except (TypeError, ValueError):
        raise SpecError(f"{kind}: {key}={p[key]!r} is not a number") from None


def _require_index(p: dict, kind: str):
    # _parse_value gives an int, a tuple of ints, or a float or raw string
    _require(isinstance(p["k"], (int, tuple)),
             f"{kind}: k={p['k']!r} is not an integer or integer pair")


def _validate_params(kind: str, p: dict):
    if kind == "trig":
        _require("k" in p and "a" in p, "trig requires k=<int>[,<int>] and a=<real>")
        _require_index(p, kind)
        p.setdefault("phase", 0.0)
        p["a"] = _as_float(p, "a", kind)
        p["phase"] = _as_float(p, "phase", kind)
    elif kind in ("weierstrass", "lacunary-random"):
        _require("s" in p and "levels" in p, f"{kind} requires s=<real> and levels=<int>")
        p["s"] = _as_float(p, "s", kind)
        _require(0.0 < p["s"] <= 1.0, f"{kind}: s must lie in (0, 1], got {p['s']}")
        _require(isinstance(p["levels"], int) and p["levels"] >= 1,
                 f"{kind}: levels must be an integer >= 1")
        if "seed" in p:  # numpy would read seed=1,2 as a sequence seed
            _require(isinstance(p["seed"], int) and p["seed"] >= 0,
                     f"{kind}: seed must be an integer >= 0")
        if kind == "lacunary-random":
            _require("seed" in p, "lacunary-random requires seed=<int> (random kinds are seeded)")
        else:
            p.setdefault("signs", "plus")
            _require(p["signs"] in ("plus", "random"), "signs must be 'plus' or 'random'")
            if p["signs"] == "random":
                _require("seed" in p, "weierstrass signs=random requires seed=<int>")
            else:  # the seed would enter the label but draw nothing
                _require("seed" not in p, "weierstrass signs=plus draws no sign, so it takes no seed")
    elif kind == "xlogx":
        p.setdefault("eps", 0.0)
        p["eps"] = _as_float(p, "eps", kind)
        _require(p["eps"] >= 0.0, "xlogx: eps must be >= 0")
    elif kind == "wavelet-atom":
        _require("l" in p and "j" in p and "k" in p, "wavelet-atom requires l=, j=, k=")
        _require(isinstance(p["l"], int) and p["l"] >= 1, "wavelet-atom: l must be >= 1")
        _require(isinstance(p["j"], int) and p["j"] >= 0, "wavelet-atom: j must be >= 0")
        _require_index(p, kind)
        p.setdefault("p", 8)
        _require(isinstance(p["p"], int) and 2 <= p["p"] <= 10,
                 "wavelet-atom: p must be an integer in 2..10")
    elif kind == "file":
        _require("path" in p, "file requires path=<path>")


def synthesize(spec: FunctionSpec, n: int, J_grid: int) -> GridFunction:
    """Evaluate a FunctionSpec pointwise on the 2^J_grid dyadic grid.

    The Weierstrass, lacunary and log-kink kinds evaluate their
    transcendentals on one axis, and the result is bitwise what a pointwise
    evaluation over the full grid gives.  The Weierstrass and lacunary terms
    depend on x1 + x2 only, and on the grid that sum is exactly m/N,
    m = 0..M-1 with M = n(N-1)+1 (i1/N + i2/N and (i1+i2)/N are the same
    double), so the level sum runs on that one axis and is laid out on the
    grid as row i1 = profile[i1:i1+N].  The log-kink is a sum of one function
    per coordinate, evaluated on one axis.  Only the trig and log-kink kinds
    build the coordinate axis, and a sum adds its terms into one grid in
    order, holding one term at a time.

    The level sum adds w_j * cos(2 pi 2^j m/N + phase_j) into the profile
    one level at a time, in blocks of _LEVEL_BLOCK points, and keeps the
    unscaled cosines of the last level.  Scaling by 2 is exact, so level j's
    argument at m is bitwise level j-1's at 2m; where neither level has a
    phase (every Weierstrass level) the cosines at m < ceil(M/2) are read
    from the last level's at 2m, and cos runs on [ceil(M/2), M) only: one
    cosine per distinct argument, 9 * 2^20 for the 17 * 2^20 terms at n=1
    J_grid=20, levels=16.  The lacunary kind has a phase at every level and
    evaluates every term.
    """
    _check_grid(n, J_grid)  # before the grid is allocated
    N = 2**J_grid
    kind, p = spec.kind, spec.params
    if kind in ("trig", "xlogx"):  # the coordinate axis, which only these kinds read
        x = np.arange(N) / N

    if kind == "sum":
        # the terms in order from 0.0, bitwise sum() from 0 (a -0.0 term reads
        # 0.0 either way), each freed once added
        total = np.zeros((N,) * n)
        for t in p["terms"]:
            total += synthesize(t, n, J_grid).samples
        return GridFunction(n, J_grid, total, label=spec.canonical())

    if kind == "trig":
        k = _index_tuple(kind, p["k"], n)
        if max(abs(v) for v in k) > N // 2:
            raise SpecError(f"trig frequency {p['k']} not resolvable at J_grid={J_grid}")
        dot = sum(kt * xt for kt, xt in zip(k, np.meshgrid(*(x,) * n, indexing="ij", sparse=True)))
        samples = p["a"] * np.cos(2 * np.pi * dot + p["phase"])
    elif kind in ("weierstrass", "lacunary-random"):
        levels = p["levels"]
        if levels > J_grid - 2:
            raise SpecError(
                f"{kind}: levels={levels} under-resolved at J_grid={J_grid} (need levels <= J_grid-2)"
            )
        s = p["s"]
        M = n * (N - 1) + 1  # x1 + ... + xn: the exact m/N, m < M
        if kind == "weierstrass":
            if p.get("signs", "plus") == "random":
                rng = np.random.default_rng(p["seed"])
                signs = rng.choice((-1.0, 1.0), size=levels + 1)
            else:
                signs = np.ones(levels + 1)
            phases = np.zeros(levels + 1)
        else:
            rng = np.random.default_rng(p["seed"])
            signs = rng.choice((-1.0, 1.0), size=levels + 1)
            phases = rng.uniform(0.0, 2 * np.pi, size=levels + 1)
        # the unscaled cosines of the level last summed; whether they lie
        # before or after the samples on the heap does not move the peak RSS
        # of distance at n=1 J_grid=20, which the Poisson field sets
        cosines = np.empty(M)
        samples = np.zeros(M)
        steps = np.arange(min(M, _LEVEL_BLOCK)) / N  # lo/N + k/N is m/N exactly
        scratch = np.empty_like(steps)
        for j in range(levels + 1):
            # level j's argument at m is level j-1's at 2m when neither has a phase
            shared = (M + 1) // 2 if j and phases[j] == phases[j - 1] == 0.0 else 0
            for lo in range(0, M, scratch.size):
                hi = min(lo + scratch.size, M)
                c, mid = scratch[:hi - lo], min(max(shared, lo), hi)
                c[:mid - lo] = cosines[2 * lo:2 * mid:2]  # read before the block is overwritten
                arg = c[mid - lo:]
                np.add(steps[:hi - mid], mid / N, out=arg)
                arg *= 2 * np.pi * 2**j
                if phases[j] != 0.0:  # arg holds no -0.0, so adding 0.0 would change nothing
                    arg += phases[j]
                np.cos(arg, out=arg)
                cosines[lo:hi] = c  # later blocks read only indices from 2 * hi on
                c *= signs[j] * 2.0 ** (-j * s)
                samples[lo:hi] += c
        if n == 2:  # row i1 is profile[i1:i1+N]
            samples = sliding_window_view(samples, N)
    elif kind == "xlogx":
        a = _xlogx_axis(x, p["eps"])
        # a sum of per-axis terms from 0, so a -0.0 term reads 0.0
        samples = sum(np.meshgrid(*(a,) * n, indexing="ij", sparse=True, copy=False))
    elif kind == "wavelet-atom":
        from . import wavelet  # local import, avoids a module cycle

        bank = wavelet.filter_bank(p["p"])
        l, j, k = p["l"], p["j"], p["k"]
        if l > 2**n - 1:
            raise SpecError(f"wavelet-atom: l={l} exceeds 2^n-1={2**n - 1}")
        if j > J_grid - 1:
            raise SpecError(f"wavelet-atom: level j={j} too deep for J_grid={J_grid}")
        idx = _index_tuple(kind, k, n)
        if any(not 0 <= v < 2**j for v in idx):
            raise SpecError(f"wavelet-atom: index k={k} outside [0, 2^{j})^{n}")
        coeffs = wavelet.WaveletCoefficients.zeros(n, J_grid)
        coeffs.c[j][(l - 1,) + idx] = 1.0
        g = wavelet.reconstruct(coeffs, bank)
        samples = g.samples
    elif kind == "file":
        data = np.loadtxt(p["path"], dtype=float)
        if data.size != N**n:
            raise SpecError(f"file has {data.size} samples, expected {N**n}")
        samples = data.reshape((N,) * n)
    else:  # pragma: no cover - parse_function_spec guards this
        raise SpecError(f"unknown kind {kind!r}")

    return GridFunction(n, J_grid, samples, label=spec.canonical())


def _index_tuple(kind: str, k, n: int) -> tuple[int, ...]:
    """A frequency or position index k as a tuple of one integer per axis."""
    idx = (k,) if np.isscalar(k) else tuple(k)
    if len(idx) != n:
        got = ",".join(str(v) for v in idx)
        raise SpecError(f"{kind}: k={got} needs {n} ind{'ex' if n == 1 else 'ices'} at n={n}")
    return idx


def _xlogx_axis(x: np.ndarray, eps: float) -> np.ndarray:
    # Odd log-modulated kink: g*log(|g|+eps) with g = sin(2*pi*x)/pi.
    # Continuous and periodic, second differences of exact order y per scale
    # at the kinks x=0 and x=1/2, derivative has a log singularity.
    # Two arrays of x's size, g and mag, then in place: where mag is 0 the
    # result is mag itself, +0.0.
    g = np.sin(2 * np.pi * x)
    g /= np.pi
    mag = np.abs(g)
    mag += eps
    nz = mag > 0
    np.log(mag, out=mag, where=nz)
    np.multiply(g, mag, out=mag, where=nz)
    return mag


def _half_freq_sq(n: int, J: int) -> np.ndarray:
    """|k|^2 on the half spectrum of a real transform (rfftn layout: the last
    axis holds k = 0..N/2), the table every spectral multiplier is built on."""
    N = 2**J
    k_half = np.fft.rfftfreq(N, d=1.0 / N)
    if n == 1:
        return k_half * k_half
    k = np.fft.fftfreq(N, d=1.0 / N)
    return (k * k)[:, None] + (k_half * k_half)[None, :]


def bessel_lift(f: GridFunction, r: float) -> GridFunction:
    """Spectral multiplier (1 + |2*pi*k|^2)^(-r/2); order -s roughens by s.

    Runs in extended precision: the multiplier spans ~8 decades at deep
    grids, and composing orders r and -r through float64 sample space would
    re-amplify FFT roundoff on the attenuated modes.  numpy >= 2.0 transforms
    longdouble input in longdouble (numpy 1.x dropped to float64).

    One clongdouble half spectrum is the only full-size buffer: it is filled
    by real transforms of longdouble row blocks, transformed along the first
    axis in place (n=2), multiplied row by row by the quadrant table of
    _bessel_multiplier, transformed back in place, and inverted row block by
    row block straight into the float64 samples.  These are the 1-D
    transforms rfftn and irfftn make, so the samples are bitwise theirs.
    The row blocks, and the two column halves of the first-axis transforms
    and the multiply, are dealt to two threads by _deal; each share's
    longdouble row block, the input of its forward and the output of its
    inverse transforms, is allocated here, on the calling thread.
    """
    N = f.grid_size
    # the table first: its temporaries are gone before the spectrum exists
    quad = _bessel_multiplier(f.n, f.J_grid, r)
    rows = f.samples.reshape(-1, N)
    blocks = range(0, rows.shape[0], max(1, _ROW_BLOCK // (2 * N)))
    step = blocks.step
    spec = np.empty((rows.shape[0], N // 2 + 1), dtype=np.clongdouble)
    row_blocks = [np.empty((min(step, rows.shape[0]), N), dtype=np.longdouble)
                  for _ in range(_share_count(blocks, f.samples.size))]
    free = list(row_blocks)

    def forward(share):
        block = free.pop()
        for i in share:
            part = block[:len(rows[i:i + step])]
            part[...] = rows[i:i + step]
            np.fft.rfft(part, out=spec[i:i + step])

    def columns(share):
        for c in share:
            half = spec[:, c]
            for axis in range(f.n - 1):  # as rfftn: the other axes after the last
                np.fft.fft(half, axis=axis, out=half)
            # row k1 >= 0 is quadrant row k1; row N + k1 (k1 < 0) is quadrant row -k1
            half[:N // 2 + 1] *= quad[:, c]
            half[N // 2 + 1:] *= quad[N // 2 - 1:0:-1, c]
            for axis in range(f.n - 1):  # as irfftn: complex inverses first
                np.fft.ifft(half, axis=axis, out=half)

    def inverse(share):
        block = free.pop()
        for i in share:
            part = block[:len(out[i:i + step])]
            # into longdouble, then rounded: an irfft straight into float64
            # allocates that longdouble block itself
            np.fft.irfft(spec[i:i + step], n=N, out=part)
            out[i:i + step] = part

    cols = N // 2 + 1
    _deal(forward, blocks, f.samples.size)
    _deal(columns, (slice(0, cols // 2), slice(cols // 2, cols)), f.samples.size)
    del quad  # before the samples are allocated
    samples = np.empty(f.samples.shape)
    out = samples.reshape(-1, N)
    free = row_blocks  # the inverse pops them all: none is held past it
    _deal(inverse, blocks, f.samples.size)
    return GridFunction(f.n, f.J_grid, samples, label=f"{f.label}|bessel{r:+g}")


def _bessel_multiplier(n: int, J: int, r: float) -> np.ndarray:
    """(1 + 4 pi^2 (k1^2 + k2^2))^(-r/2) in longdouble for 0 <= k1, k2 <= N/2,
    shape (N/2 + 1,) * 2; at n=1 the single row k1 = 0 (the half spectrum).

    The powers are taken in place, in two halves of the entries dealt to two
    threads by _deal, so that the worker allocates nothing: temporaries of
    its own stayed in its malloc arena and raised the peak of a later stage.
    """
    N = 2**J
    if n == 1:
        ksq = _half_freq_sq(1, J)
    else:  # |k|^2 is symmetric in (k1, k2): evaluate the upper triangle and mirror it
        a, b = np.triu_indices(N // 2 + 1)
        ksq = a * a + b * b
    m = ksq.astype(np.longdouble)
    del ksq
    m *= 4.0 * np.longdouble(np.pi) ** 2
    m += 1.0

    def power(share):
        for part in share:
            np.power(m[part], np.longdouble(-r / 2.0), out=m[part])

    _deal(power, (slice(0, m.size // 2), slice(m.size // 2, m.size)), N**n)
    if n == 1:
        return m[None]
    quad = np.empty((N // 2 + 1,) * 2, dtype=np.longdouble)
    quad[a, b] = quad[b, a] = m
    return quad


def sup_norm(f: GridFunction) -> float:
    return float(np.max(np.abs(f.samples)))


def corpus(J_grid: int = 12) -> list[GridFunction]:
    """The shipped one-dimensional reference corpus, synthesized at the
    requested depth."""
    return [synthesize(parse_function_spec(text), 1, J_grid) for text in CORPUS_SPECS]
