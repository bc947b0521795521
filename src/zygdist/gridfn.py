"""Sampled periodic functions on the n-torus (n in {1,2}), the Bessel lift,
and a one-line DSL for generating a test corpus.

All analysis in this package lives on [0,1)^n with a uniform dyadic grid of
2^J_grid points per axis.  Frequencies are integers k, with the multiplier
convention xi = 2*pi*k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

J_GRID_MIN = 4
J_GRID_MAX = {1: 20, 2: 11}

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


@dataclass(frozen=True)
class GridFunction:
    """Real samples of a periodic function on the dyadic grid of [0,1)^n."""

    n: int
    J_grid: int
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not J_GRID_MIN <= self.J_grid <= J_GRID_MAX[self.n]:
            raise ValueError(
                f"J_grid={self.J_grid} outside [{J_GRID_MIN}, {J_GRID_MAX[self.n]}] for n={self.n}"
            )
        arr = np.ascontiguousarray(np.asarray(self.samples, dtype=float))
        expected = (2**self.J_grid,) * self.n
        if arr.shape != expected:
            raise ValueError(f"samples shape {arr.shape}, expected {expected}")
        if not np.all(np.isfinite(arr)):
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


def _validate_params(kind: str, p: dict):
    if kind == "trig":
        _require("k" in p and "a" in p, "trig requires k=<int>[,<int>] and a=<real>")
        p.setdefault("phase", 0.0)
        p["a"] = _as_float(p, "a", kind)
        p["phase"] = _as_float(p, "phase", kind)
    elif kind in ("weierstrass", "lacunary-random"):
        _require("s" in p and "levels" in p, f"{kind} requires s=<real> and levels=<int>")
        p["s"] = _as_float(p, "s", kind)
        _require(0.0 < p["s"] <= 1.0, f"{kind}: s must lie in (0, 1], got {p['s']}")
        _require(isinstance(p["levels"], int) and p["levels"] >= 1,
                 f"{kind}: levels must be an integer >= 1")
        if kind == "lacunary-random":
            _require("seed" in p, "lacunary-random requires seed=<int> (random kinds are seeded)")
        else:
            p.setdefault("signs", "plus")
            _require(p["signs"] in ("plus", "random"), "signs must be 'plus' or 'random'")
            if p["signs"] == "random":
                _require("seed" in p, "weierstrass signs=random requires seed=<int>")
    elif kind == "xlogx":
        p.setdefault("eps", 0.0)
        p["eps"] = _as_float(p, "eps", kind)
        _require(p["eps"] >= 0.0, "xlogx: eps must be >= 0")
    elif kind == "wavelet-atom":
        _require("l" in p and "j" in p and "k" in p, "wavelet-atom requires l=, j=, k=")
        _require(isinstance(p["l"], int) and p["l"] >= 1, "wavelet-atom: l must be >= 1")
        _require(isinstance(p["j"], int) and p["j"] >= 0, "wavelet-atom: j must be >= 0")
        p.setdefault("p", 8)
        _require(p["p"] in range(2, 11), "wavelet-atom: p must be in 2..10")
    elif kind == "file":
        _require("path" in p, "file requires path=<path>")


def _grid(n: int, J: int):
    N = 2**J
    x = np.arange(N) / N
    if n == 1:
        return (x,)
    return np.meshgrid(x, x, indexing="ij")


def _dot_freq(coords, k):
    if len(coords) == 1:
        return k * coords[0] if np.isscalar(k) else k[0] * coords[0]
    k1, k2 = (k, k) if np.isscalar(k) else (k[0], k[1])
    return k1 * coords[0] + k2 * coords[1]


def synthesize(spec: FunctionSpec, n: int, J_grid: int) -> GridFunction:
    """Evaluate a FunctionSpec pointwise on the 2^J_grid dyadic grid."""
    N = 2**J_grid
    coords = _grid(n, J_grid)
    kind, p = spec.kind, spec.params

    if kind == "sum":
        parts = [synthesize(t, n, J_grid) for t in p["terms"]]
        total = sum(g.samples for g in parts)
        return GridFunction(n, J_grid, total, label=spec.canonical())

    if kind == "trig":
        k = p["k"]
        kmax = abs(k) if np.isscalar(k) else max(abs(v) for v in k)
        if kmax > N // 2:
            raise SpecError(f"trig frequency {k} not resolvable at J_grid={J_grid}")
        if n == 2 and np.isscalar(k):
            raise SpecError("trig with n=2 requires k=<int>,<int>")
        samples = p["a"] * np.cos(2 * np.pi * _dot_freq(coords, k) + p["phase"])
    elif kind in ("weierstrass", "lacunary-random"):
        levels = p["levels"]
        if levels > J_grid - 2:
            raise SpecError(
                f"{kind}: levels={levels} under-resolved at J_grid={J_grid} (need levels <= J_grid-2)"
            )
        s = p["s"]
        base = sum(coords)  # direction (1,...,1); single coordinate for n=1
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
        samples = np.zeros_like(base)
        for j in range(levels + 1):
            samples += signs[j] * 2.0 ** (-j * s) * np.cos(2 * np.pi * 2**j * base + phases[j])
    elif kind == "xlogx":
        samples = sum(_xlogx_axis(c, p["eps"]) for c in coords)
    elif kind == "wavelet-atom":
        from . import wavelet  # local import, avoids a module cycle

        bank = wavelet.filter_bank(p["p"])
        l, j, k = p["l"], p["j"], p["k"]
        if l > 2**n - 1:
            raise SpecError(f"wavelet-atom: l={l} exceeds 2^n-1={2**n - 1}")
        if j > J_grid - 1:
            raise SpecError(f"wavelet-atom: level j={j} too deep for J_grid={J_grid}")
        idx = (int(k),) if np.isscalar(k) else tuple(int(v) for v in k)
        if len(idx) != n or any(not 0 <= v < 2**j for v in idx):
            raise SpecError(f"wavelet-atom: index k={k} outside [0, 2^{j})^{n}")
        coeffs = wavelet.WaveletCoefficients.zeros(n, J_grid)
        if n == 1:
            coeffs.c[j][idx[0]] = 1.0
        else:
            coeffs.c[j][l - 1, idx[0], idx[1]] = 1.0
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


def _xlogx_axis(x: np.ndarray, eps: float) -> np.ndarray:
    # Odd log-modulated kink: g*log(|g|+eps) with g = sin(2*pi*x)/pi.
    # Continuous and periodic, second differences of exact order y per scale
    # at the kinks x=0 and x=1/2, derivative has a log singularity.
    g = np.sin(2 * np.pi * x) / np.pi
    mag = np.abs(g) + eps
    out = np.zeros_like(g)
    nz = mag > 0
    out[nz] = g[nz] * np.log(mag[nz])
    return out


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
    """
    x = f.samples.astype(np.longdouble)
    ksq = _half_freq_sq(f.n, f.J_grid).astype(np.longdouble)
    mult = (1.0 + 4.0 * np.longdouble(np.pi) ** 2 * ksq) ** np.longdouble(-r / 2.0)
    out = np.fft.irfftn(np.fft.rfftn(x) * mult, s=x.shape, axes=tuple(range(f.n)))
    samples = np.ascontiguousarray(out, dtype=float)
    return GridFunction(f.n, f.J_grid, samples, label=f"{f.label}|bessel{r:+g}")


def sup_norm(f: GridFunction) -> float:
    return float(np.max(np.abs(f.samples)))


def corpus(n: int = 1, J_grid: int = 12) -> list[GridFunction]:
    """The shipped reference corpus, synthesized at the requested depth."""
    if n != 1:
        raise ValueError("the shipped corpus is one-dimensional")
    return [synthesize(parse_function_spec(text), n, J_grid) for text in CORPUS_SPECS]
