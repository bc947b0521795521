"""Periodized compactly supported orthonormal wavelet analysis on the torus,
the smoothness / bmo-Sobolev coefficient norms, threshold sets, and the
coefficient-truncation projection.

Coefficient layout for grid depth J: one scaling coefficient d (the torus has
a single unit cube at level 0) plus detail tables c[j] for levels
j = 0 .. J-1, indexed by the dyadic cube (j, k) with 2^n - 1 orientations for
n = 2.  Detail indices are rolled so that a coefficient's energy sits over
its nominal cube; without that correction the filter group delay would park
level-j coefficients about p cubes away from the features they measure.
"""

from __future__ import annotations

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


def orthonormality_residual(bank: FilterBank) -> float:
    """Worst defect of the defining quadratic filter equations."""
    lo = bank.lo
    res = abs(float(lo.sum()) - math.sqrt(2.0))
    for t in range(1, bank.p):
        res = max(res, abs(float(np.dot(lo[: lo.size - 2 * t], lo[2 * t:]))))
    res = max(res, abs(float(np.dot(lo, lo)) - 1.0))
    return res


def moment_residuals(bank: FilterBank) -> list[float]:
    """Normalized discrete moments of the high-pass filter, orders 0..p-1.

    Residual q is |sum_k k^q hi[k]| / sum_k |k^q hi[k]| (order 0 normalizes
    by sum |hi|), so the cancellation test is scale free in q.
    """
    k = np.arange(bank.length, dtype=float)
    out = []
    for q in range(bank.p):
        w = k**q * bank.hi
        denom = float(np.sum(np.abs(w)))
        out.append(abs(float(w.sum())) / denom if denom > 0 else 0.0)
    return out


@dataclass
class WaveletCoefficients:
    """Full periodized multiresolution table: scaling d plus details c[j]."""

    n: int
    J_grid: int
    d: float
    c: dict[int, np.ndarray]

    def __post_init__(self):
        for j in range(self.J_grid):
            shape = (2**j,) if self.n == 1 else (3, 2**j, 2**j)
            arr = np.asarray(self.c[j], dtype=float)
            if arr.shape != shape:
                raise ValueError(f"c[{j}] has shape {arr.shape}, expected {shape}")
            self.c[j] = arr

    @classmethod
    def zeros(cls, n: int, J_grid: int) -> "WaveletCoefficients":
        c = {
            j: np.zeros((2**j,) if n == 1 else (3, 2**j, 2**j))
            for j in range(J_grid)
        }
        return cls(n=n, J_grid=J_grid, d=0.0, c=c)

    def copy(self) -> "WaveletCoefficients":
        return WaveletCoefficients(
            n=self.n, J_grid=self.J_grid, d=self.d,
            c={j: a.copy() for j, a in self.c.items()},
        )

    def sup_abs(self, j: int) -> np.ndarray:
        """Per-cube sup over orientations of |c|."""
        a = np.abs(self.c[j])
        return a if self.n == 1 else a.max(axis=0)

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
    where the filter wraps the row more than once.
    """
    lo_part = np.moveaxis(lo_part, axis, -1)
    hi_part = np.moveaxis(hi_part, axis, -1)
    half = lo_part.shape[-1]
    out = np.zeros(lo_part.shape[:-1] + (2 * half,))
    for offset, l in sorted((w * half - l // 2, l) for l in range(taps_lo.size)
                            for w in range(l // 2 // half + 2)):
        q0, q1 = max(0, -offset), min(half, half - offset)  # outputs q with i = q + offset
        if q0 < q1:
            i = slice(q0 + offset, q1 + offset)
            out[..., l % 2::2][..., q0:q1] += lo_part[..., i] * taps_lo[l] + hi_part[..., i] * taps_hi[l]
    return np.moveaxis(out, -1, axis)


def analyze(f: GridFunction, bank: FilterBank) -> WaveletCoefficients:
    """Full periodized decomposition; exact Parseval partner of reconstruct."""
    if f.grid_size < bank.length:
        raise ValueError(
            f"grid of 2^{f.J_grid} points too coarse for a length-{bank.length} filter"
        )
    J = f.J_grid
    a = f.samples * 2.0 ** (-f.n * J / 2.0)
    rd, ra = bank.shift_detail, bank.shift_approx
    c: dict[int, np.ndarray] = {}
    if f.n == 1:
        for j in range(J - 1, -1, -1):
            a, detail = _step_axis(a, bank.lo, bank.hi, axis=0)
            c[j] = np.roll(detail, rd)
        return WaveletCoefficients(n=1, J_grid=J, d=float(a[0]), c=c)

    for j in range(J - 1, -1, -1):
        A1, D1 = _step_axis(a, bank.lo, bank.hi, axis=1)
        a, DA = _step_axis(A1, bank.lo, bank.hi, axis=0)
        AD, DD = _step_axis(D1, bank.lo, bank.hi, axis=0)
        c[j] = np.stack([
            np.roll(DA, (rd, ra), axis=(0, 1)),
            np.roll(AD, (ra, rd), axis=(0, 1)),
            np.roll(DD, (rd, rd), axis=(0, 1)),
        ])
    return WaveletCoefficients(n=2, J_grid=J, d=float(a[0, 0]), c=c)


def reconstruct(coeffs: WaveletCoefficients, bank: FilterBank) -> GridFunction:
    J = coeffs.J_grid
    rd, ra = bank.shift_detail, bank.shift_approx
    if coeffs.n == 1:
        a = np.array([coeffs.d])
        for j in range(J):
            detail = np.roll(coeffs.c[j], -rd)
            a = _istep_axis(a, detail, bank.lo, bank.hi, axis=0)
        samples = a * 2.0 ** (J / 2.0)
        return GridFunction(1, J, samples, label="reconstructed")

    a = np.array([[coeffs.d]])
    for j in range(J):
        DA = np.roll(coeffs.c[j][0], (-rd, -ra), axis=(0, 1))
        AD = np.roll(coeffs.c[j][1], (-ra, -rd), axis=(0, 1))
        DD = np.roll(coeffs.c[j][2], (-rd, -rd), axis=(0, 1))
        A1 = _istep_axis(a, DA, bank.lo, bank.hi, axis=0)
        D1 = _istep_axis(AD, DD, bank.lo, bank.hi, axis=0)
        a = _istep_axis(A1, D1, bank.lo, bank.hi, axis=1)
    samples = a * 2.0**J
    return GridFunction(2, J, samples, label="reconstructed")


def scale_ratio_field(coeffs: WaveletCoefficients, s: float) -> LevelField:
    """Per-cube 2^(j(n/2+s)) * sup_l |c|, the quantity thresholded by the
    coefficient smoothness norm and the bad-cube sets: cubes with
    sup_l |c| > eps * 2^(-j(n/2+s)) form field.threshold(eps)."""
    ex = coeffs.n / 2.0 + s
    values = {j: 2.0 ** (j * ex) * coeffs.sup_abs(j) for j in range(coeffs.J_grid)}
    return LevelField("wavelet", coeffs.n, coeffs.J_grid - 1, values)


def lip_wavelet_norm(coeffs: WaveletCoefficients, s: float) -> float:
    """|d| + sup over coefficients of 2^(j(n/2+s)) |c|."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    return abs(coeffs.d) + scale_ratio_field(coeffs, s).max_value


def jbmo_box_sup(coeffs: WaveletCoefficients, s: float, max_level: int | None = None) -> float:
    """sup over dyadic boxes Q of (1/|Q|) sum_{omega under Q} 4^(js) |c|^2,
    restricted to coefficient levels <= max_level; one bottom-up pass."""
    top = coeffs.J_grid - 1 if max_level is None else min(max_level, coeffs.J_grid - 1)

    def levels():
        for j in range(top, -1, -1):
            sq = coeffs.c[j] ** 2
            if coeffs.n == 2:
                sq = sq.sum(axis=0)
            yield j, 4.0 ** (j * s) * sq

    return box_sup(levels(), coeffs.n)


def jbmo_wavelet_norm(coeffs: WaveletCoefficients, s: float) -> float:
    """|d| + sup_Q ((1/|Q|) sum_{omega under Q} 4^(js) |c|^2)^(1/2)."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    return abs(coeffs.d) + math.sqrt(jbmo_box_sup(coeffs, s))


def truncate_projection(coeffs: WaveletCoefficients, s: float, eps: float) -> WaveletCoefficients:
    """Keep every orientation on cubes whose threshold ratio exceeds eps,
    zero the rest, keep d.  The discarded part has coefficient smoothness
    norm at most eps by construction."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    field = scale_ratio_field(coeffs, s)
    out = coeffs.copy()
    for j in range(coeffs.J_grid):
        keep = field.values[j] > eps
        if coeffs.n == 1:
            out.c[j] = np.where(keep, coeffs.c[j], 0.0)
        else:
            out.c[j] = np.where(keep[None, :, :], coeffs.c[j], 0.0)
    return out

