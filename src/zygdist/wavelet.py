"""Periodized compactly supported orthonormal wavelet analysis on the torus,
the smoothness / bmo-Sobolev coefficient norms, threshold sets, and the
coefficient-truncation projection.

Coefficient layout for grid depth J: one scaling coefficient d (the torus has
a single unit cube at level 0) plus detail tables c[j] for levels
j = 0 .. J-1 of shape (2^n - 1,) + (2^j,) * n, so c[j][l - 1, k1, .., kn] is
the coefficient of orientation l on the dyadic cube (j, k); n = 1 stores its
one orientation as c[j][0].  Orientation l = 1 .. 2^n - 1 is the tensor
product that carries the wavelet (detail) on axis t iff bit t of l is set and
the scaling function (approximation) on the other axes: at n = 2, l = 1, 2, 3
are detail on axis 0, on axis 1, and on both.  Detail indices are rolled so
that a coefficient's energy sits over its nominal cube; without that
correction the filter group delay would park level-j coefficients about p
cubes away from the features they measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dyadic import LevelField, box_sup
from .gridfn import GridFunction

# Daubechies extremal-phase scaling filters (orthonormal, sum = sqrt 2),
# indexed by vanishing moments p; standard published values.
_DB_LO = {
    2: [0.48296291314469025, 0.836516303737469, 0.22414386804185735,
        -0.12940952255092145],
    3: [0.3326705529509569, 0.8068915093133388, 0.4598775021193313,
        -0.13501102001039084, -0.08544127388224149, 0.035226291882100656],
    4: [0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
        -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
        0.032883011666982945, -0.010597401784997278],
    5: [0.160102397974125, 0.6038292697974729, 0.7243085284385744,
        0.13842814590110342, -0.24229488706619015, -0.03224486958502952,
        0.07757149384006515, -0.006241490213011705, -0.012580751999015526,
        0.003335725285001549],
    6: [0.11154074335008017, 0.4946238903983854, 0.7511339080215775,
        0.3152503517092432, -0.22626469396516913, -0.12976686756709563,
        0.09750160558707936, 0.02752286553001629, -0.031582039318031156,
        0.0005538422009938016, 0.004777257511010651, -0.00107730108499558],
    7: [0.07785205408506236, 0.39653931948230575, 0.7291320908465551,
        0.4697822874053586, -0.14390600392910627, -0.22403618499416572,
        0.07130921926705004, 0.0806126091510659, -0.03802993693503463,
        -0.01657454163101562, 0.012550998556013784, 0.00042957797300470274,
        -0.0018016407039998328, 0.0003537138000010399],
    8: [0.05441584224308161, 0.3128715909144659, 0.6756307362980128,
        0.5853546836548691, -0.015829105256023893, -0.2840155429624281,
        0.00047248457399797254, 0.128747426620186, -0.01736930100202211,
        -0.04408825393106472, 0.013981027917015516, 0.008746094047015655,
        -0.00487035299301066, -0.0003917403729959771, 0.0006754494059985568,
        -0.00011747678400228192],
    9: [0.03807794736316728, 0.24383467463766728, 0.6048231236767786,
        0.6572880780366389, 0.13319738582208895, -0.29327378327258685,
        -0.09684078322087904, 0.14854074933476008, 0.030725681478322865,
        -0.06763282905952399, 0.00025094711499193845, 0.022361662123515244,
        -0.004723204757894831, -0.004281503681904723, 0.0018476468829611268,
        0.00023038576399541288, -0.0002519631889981789,
        3.9347319995026124e-05],
    10: [0.026670057900950818, 0.18817680007762133, 0.5272011889309198,
         0.6884590394525921, 0.2811723436604265, -0.24984642432648865,
         -0.19594627437659665, 0.12736934033574265, 0.09305736460380659,
         -0.07139414716586077, -0.02945753682194567, 0.03321267405893324,
         0.0036065535669883944, -0.010733175482979604, 0.0013953517469940798,
         0.00199240529499085, -0.0006858566950046825, -0.0001164668549943862,
         9.358867000108985e-05, -1.326420300235487e-05],
}


@dataclass(frozen=True)
class FilterBank:
    p: int
    lo: np.ndarray
    hi: np.ndarray

    @property
    def length(self) -> int:
        return self.lo.size

    @property
    def shift_detail(self) -> int:
        # group delay of a detail coefficient, in cells of its own level
        return (self.length - 1) // 2

    @property
    def shift_approx(self) -> int:
        # fixpoint of the approximation-chain energy centroid
        return int(round(float(np.sum(np.arange(self.length) * self.lo**2))))


def _polish(lo: np.ndarray, p: int) -> np.ndarray:
    """Newton-refine table taps against the defining equations.

    Published tables carry ~1e-11 residuals in the quadratic orthonormality
    relations; three Newton steps on {sum h[k] h[k+2t] = delta_t} united with
    the p alternating moment conditions push them to float64 roundoff.
    """
    L = lo.size
    k = np.arange(L, dtype=float)
    mono = np.stack([(((k - (L - 1) / 2.0) / L) ** q) for q in range(p)])
    signs = (-1.0) ** np.arange(L)
    h = lo.copy()
    for _ in range(3):
        F = np.empty(2 * p)
        Jac = np.zeros((2 * p, L))
        for t in range(p):
            F[t] = float(np.dot(h[: L - 2 * t], h[2 * t:])) - (1.0 if t == 0 else 0.0)
            row = np.zeros(L)
            row[: L - 2 * t] += h[2 * t:]
            row[2 * t:] += h[: L - 2 * t]
            Jac[t] = row
        for q in range(p):
            F[p + q] = float(np.dot(signs * mono[q], h))
            Jac[p + q] = signs * mono[q]
        h = h - np.linalg.solve(Jac, F)
    return h


def filter_bank(p: int) -> FilterBank:
    if p not in _DB_LO:
        raise ValueError(f"unsupported vanishing-moment count p={p} (supported: 2..10)")
    lo = _polish(np.asarray(_DB_LO[p], dtype=float), p)
    k = np.arange(lo.size)
    hi = ((-1.0) ** k) * lo[::-1]
    return FilterBank(p=p, lo=lo, hi=hi)


@dataclass
class WaveletCoefficients:
    """Full periodized multiresolution table: scaling d plus details c[j]."""

    n: int
    J_grid: int
    d: float
    c: dict[int, np.ndarray]

    @staticmethod
    def level_shape(n: int, j: int) -> tuple[int, ...]:
        """Shape of c[j]: the orientations, then one axis per dimension."""
        return (2**n - 1,) + (2**j,) * n

    def __post_init__(self):
        for j in range(self.J_grid):
            shape = self.level_shape(self.n, j)
            arr = np.asarray(self.c[j], dtype=float)
            if arr.shape != shape:
                raise ValueError(f"c[{j}] has shape {arr.shape}, expected {shape}")
            self.c[j] = arr

    @classmethod
    def zeros(cls, n: int, J_grid: int) -> "WaveletCoefficients":
        c = {j: np.zeros(cls.level_shape(n, j)) for j in range(J_grid)}
        return cls(n=n, J_grid=J_grid, d=0.0, c=c)

    def sup_abs(self, j: int) -> np.ndarray:
        """Per-cube sup over orientations of |c|."""
        return functools.reduce(np.maximum, map(np.abs, self.c[j]))

    def coefficient_energy(self) -> float:
        return self.d**2 + sum(float((a**2).sum()) for a in self.c.values())

    def minus(self, other: "WaveletCoefficients") -> "WaveletCoefficients":
        if (self.n, self.J_grid) != (other.n, other.J_grid):
            raise ValueError("coefficient tables are incompatible")
        return WaveletCoefficients(
            n=self.n, J_grid=self.J_grid, d=self.d - other.d,
            c={j: self.c[j] - other.c[j] for j in self.c},
        )


def _step_axis(a: np.ndarray, taps_lo: np.ndarray, taps_hi: np.ndarray, axis: int):
    """out[k] = sum_l a[(2k + l) % N] taps[l], read from windows of the
    wrap-extended row.  The matmul picks its own order for the L products, so
    outputs match a gather-plus-matmul within 1e-13 * max|a|, not bit for bit."""
    a = np.moveaxis(a, axis, -1)
    N = a.shape[-1]
    L = taps_lo.size
    ext = a.take(np.arange(N + L - 1), axis=-1, mode="wrap")
    win = sliding_window_view(ext, L, axis=-1)[..., 0:N:2, :]
    return (np.moveaxis(win @ taps_lo, -1, axis),
            np.moveaxis(win @ taps_hi, -1, axis))


def _istep_axis(lo_part: np.ndarray, hi_part: np.ndarray,
                taps_lo: np.ndarray, taps_hi: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of _step_axis: out[(2i + l) % N] += lo[i] taps_lo[l] + hi[i] taps_hi[l].

    Tap l slice-adds into the parity-(l % 2) outputs shifted by l // 2, split
    where the shift wraps the row (wrap w reads i = q - l // 2 + w * half).
    Running the (w, l) slice-adds in ascending (w * half - l // 2, l) adds
    each output's terms in ascending (i, l), the order np.add.at takes over an
    (i, l) table, so the result is bitwise equal to it, also on coarse levels
    where the filter wraps the row more than once.  The slices index the step
    axis in place, each part's products go into one contiguous scratch array,
    and out is C-contiguous.  A part that is all zero is not multiplied: its products are
    +-0, out starts at +0.0 and never holds -0.0, so adding them changes no bit.
    """
    lead = (slice(None),) * axis
    half = lo_part.shape[axis]
    shape = list(lo_part.shape)
    shape[axis] = 2 * half
    out = np.zeros(shape)
    live = [(part, taps, np.empty(part.size))
            for part, taps in ((lo_part, taps_lo), (hi_part, taps_hi)) if part.any()]
    if not live:
        return out
    for offset, l in sorted((w * half - l // 2, l) for l in range(taps_lo.size)
                            for w in range(l // 2 // half + 2)):
        q0, q1 = max(0, -offset), min(half, half - offset)  # outputs q with i = q + offset
        if q0 < q1:
            i = lead + (slice(q0 + offset, q1 + offset),)
            shape_i = lo_part[i].shape  # products are contiguous: strided ones run slower
            prods = [np.multiply(part[i], taps[l], out=buf[:math.prod(shape_i)].reshape(shape_i))
                     for part, taps, buf in live]
            if len(prods) == 2:
                prods[0] += prods[1]
            out[lead + (slice(l % 2 + 2 * q0, 2 * q1, 2),)] += prods[0]
    return out


def _rolls(n: int, l: int, bank: FilterBank) -> tuple[int, ...]:
    """Per-axis roll of orientation l: shift_detail on its detail axes,
    shift_approx on the others."""
    return tuple(bank.shift_detail if l >> t & 1 else bank.shift_approx for t in range(n))


def analyze(f: GridFunction, bank: FilterBank) -> WaveletCoefficients:
    """Full periodized decomposition; exact Parseval partner of reconstruct.

    Each level splits every part along each axis, last axis first; the part
    with detail bits l is orientation l, and part 0 the next approximation."""
    if f.grid_size < bank.length:
        raise ValueError(
            f"grid of 2^{f.J_grid} points too coarse for a length-{bank.length} filter"
        )
    n, J = f.n, f.J_grid
    axes = tuple(range(n))
    parts = {0: f.samples * 2.0 ** (-n * J / 2.0)}
    c: dict[int, np.ndarray] = {}
    for j in range(J - 1, -1, -1):
        for t in reversed(axes):
            for l in list(parts):
                parts[l], parts[l | 1 << t] = _step_axis(parts[l], bank.lo, bank.hi, axis=t)
        c[j] = np.stack([np.roll(parts.pop(l), _rolls(n, l, bank), axis=axes)
                         for l in range(1, 2**n)])
    return WaveletCoefficients(n=n, J_grid=J, d=float(parts[0][(0,) * n]), c=c)


def reconstruct(coeffs: WaveletCoefficients, bank: FilterBank) -> GridFunction:
    """Inverse of analyze: each level joins the parts l and l | 1 << t along
    axis t, axis 0 first, down to the next approximation."""
    n, J = coeffs.n, coeffs.J_grid
    axes = tuple(range(n))
    a = np.full((1,) * n, coeffs.d)
    for j in range(J):
        parts = {l: np.roll(coeffs.c[j][l - 1], [-r for r in _rolls(n, l, bank)], axis=axes)
                 for l in range(1, 2**n)}
        parts[0] = a
        for t in axes:
            for l in sorted(m for m in parts if not m >> t & 1):
                parts[l] = _istep_axis(parts[l], parts.pop(l | 1 << t),
                                       bank.lo, bank.hi, axis=t)
        a = parts[0]
    samples = a * 2.0 ** (n * J / 2.0)
    return GridFunction(n, J, samples, label="reconstructed")


def scale_ratio_field(coeffs: WaveletCoefficients, s: float) -> LevelField:
    """Per-cube 2^(j(n/2+s)) * sup_l |c|, the quantity thresholded by the
    coefficient smoothness norm and the bad-cube sets: cubes with
    sup_l |c| > eps * 2^(-j(n/2+s)) form field.threshold(eps)."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    ex = coeffs.n / 2.0 + s
    values = {j: 2.0 ** (j * ex) * coeffs.sup_abs(j) for j in range(coeffs.J_grid)}
    return LevelField("wavelet", coeffs.n, coeffs.J_grid - 1, values)


def lip_wavelet_norm(coeffs: WaveletCoefficients, s: float) -> float:
    """|d| + sup over coefficients of 2^(j(n/2+s)) |c|."""
    return abs(coeffs.d) + scale_ratio_field(coeffs, s).max_value


def jbmo_box_sup(coeffs: WaveletCoefficients, s: float,
                 J_range: tuple[int, int]) -> list[float]:
    """sup over dyadic boxes Q of (1/|Q|) sum_{omega under Q} 4^(js) |c|^2 at
    each truncation depth J of J_range, the sum taking coefficient levels
    <= J.  As in carleson_sup, depths beyond the deepest level J_grid - 1
    continue its value, and one box_sup pass serves every depth."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    return box_sup(lambda j: 4.0 ** (j * s) * (coeffs.c[j] ** 2).sum(axis=0),
                   coeffs.n, J_range, coeffs.J_grid - 1).tolist()


def jbmo_wavelet_norm(coeffs: WaveletCoefficients, s: float) -> float:
    """|d| + sup_Q ((1/|Q|) sum_{omega under Q} 4^(js) |c|^2)^(1/2)."""
    top = coeffs.J_grid - 1
    return abs(coeffs.d) + math.sqrt(jbmo_box_sup(coeffs, s, (top, top))[0])


def truncate_projection(coeffs: WaveletCoefficients, s: float, eps: float) -> WaveletCoefficients:
    """Keep every orientation on cubes whose threshold ratio exceeds eps,
    zero the rest, keep d.  The discarded part has coefficient smoothness
    norm at most eps by construction.  eps must be finite and >= 0."""
    kept = scale_ratio_field(coeffs, s).threshold(eps)
    c = {j: np.where(kept.mask(j), coeffs.c[j], 0.0) for j in range(coeffs.J_grid)}
    return WaveletCoefficients(n=coeffs.n, J_grid=coeffs.J_grid, d=coeffs.d, c=c)

