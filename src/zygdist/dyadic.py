"""Dyadic cubes, Whitney cells, half-space sets, the Carleson functional,
and the hyperbolic geometry of the upper half-space over the torus.

A Whitney cell over the dyadic cube Q of level j is the slab
T(Q) = Q x [l(Q)/2, l(Q)].  Against the measure dx dy / y it carries exactly
|Q| * log 2, which makes the Carleson functional of any finite cell union an
exact finite sum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class DyadicCube:
    n: int
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        idx = tuple(int(v) for v in self.index)
        if len(idx) != self.n or any(not 0 <= v < 2**self.level for v in idx):
            raise ValueError(f"index {idx} outside [0, 2^{self.level})^{self.n}")
        object.__setattr__(self, "index", idx)

    @property
    def side(self) -> float:
        return 2.0**-self.level

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.n * self.level)

    def contains(self, other: "DyadicCube") -> bool:
        """True iff other is a descendant of (or equal to) this cube."""
        if other.n != self.n or other.level < self.level:
            return False
        shift = other.level - self.level
        return all(o >> shift == s for o, s in zip(other.index, self.index))


@dataclass(frozen=True)
class WhitneyCell:
    cube: DyadicCube

    @property
    def y_range(self) -> tuple[float, float]:
        side = self.cube.side
        return (side / 2.0, side)

    @property
    def weight(self) -> float:
        # integral of dy/y over [l/2, l] times |Q|
        return self.cube.volume * LOG2

    def center(self) -> tuple[tuple[float, ...], float]:
        side = self.cube.side
        x = tuple((k + 0.5) * side for k in self.cube.index)
        return x, 0.75 * side


@dataclass(frozen=True)
class HalfSpacePoint:
    x: tuple[float, ...]
    y: float

    def __post_init__(self):
        if self.y <= 0:
            raise ValueError("y must be > 0")
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))


class HalfSpaceSet:
    """Finite union of Whitney cells, stored as per-level boolean masks."""

    def __init__(self, n: int, J_max: int, masks: dict[int, np.ndarray] | None = None):
        if n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if J_max < 0:
            raise ValueError("J_max must be >= 0")
        self.n = n
        self.J_max = J_max
        self._masks = {}
        for j in range(J_max + 1):
            shape = (2**j,) * n
            if masks is not None and j in masks:
                m = np.asarray(masks[j], dtype=bool)
                if m.shape != shape:
                    raise ValueError(f"mask at level {j} has shape {m.shape}, expected {shape}")
                self._masks[j] = m
            else:
                self._masks[j] = np.zeros(shape, dtype=bool)

    @classmethod
    def from_cells(cls, n: int, J_max: int, cells) -> "HalfSpaceSet":
        out = cls(n, J_max)
        for item in cells:
            j, idx = item[0], tuple(item[1:]) if not isinstance(item[1], tuple) else item[1]
            if j > J_max:
                raise ValueError(f"cell level {j} exceeds J_max={J_max}")
            out._masks[j][idx] = True
        return out

    @classmethod
    def full_stack(cls, n: int, J_max: int) -> "HalfSpaceSet":
        out = cls(n, J_max)
        for j in range(J_max + 1):
            out._masks[j][...] = True
        return out

    def mask(self, j: int) -> np.ndarray:
        return self._masks[j]

    def cells(self):
        for j in range(self.J_max + 1):
            for idx in np.argwhere(self._masks[j]):
                yield WhitneyCell(DyadicCube(self.n, j, tuple(int(v) for v in idx)))

    @property
    def cell_count(self) -> int:
        return int(sum(m.sum() for m in self._masks.values()))

    def is_empty(self) -> bool:
        return self.cell_count == 0

    def __contains__(self, cell) -> bool:
        if isinstance(cell, WhitneyCell):
            j, idx = cell.cube.level, cell.cube.index
        else:
            j, idx = cell[0], tuple(cell[1]) if isinstance(cell[1], (tuple, list)) else (cell[1],)
        if j > self.J_max:
            return False
        return bool(self._masks[j][idx])

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfSpaceSet) or self.n != other.n or self.J_max != other.J_max:
            return False
        return all(np.array_equal(self._masks[j], other._masks[j]) for j in self._masks)

    def issubset(self, other: "HalfSpaceSet") -> bool:
        if self.n != other.n:
            return False
        for j in range(self.J_max + 1):
            mine = self._masks[j]
            if j > other.J_max:
                if mine.any():
                    return False
                continue
            if np.any(mine & ~other._masks[j]):
                return False
        return True

    def as_dict(self) -> dict:
        cells = [[j] + [int(v) for v in idx]
                 for j in range(self.J_max + 1)
                 for idx in np.argwhere(self._masks[j])]
        return {"n": self.n, "J_max": self.J_max, "cells": cells}

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level"] + [f"k{i+1}" for i in range(self.n)])
            for j in range(self.J_max + 1):
                for idx in np.argwhere(self._masks[j]):
                    writer.writerow([j] + [int(v) for v in idx])


def threshold_set(values: dict[int, np.ndarray], eps: float, n: int, J_max: int) -> HalfSpaceSet:
    """Cells whose per-cell value strictly exceeds eps (ties excluded)."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    out = HalfSpaceSet(n, J_max)
    for j in range(J_max + 1):
        if j in values:
            out._masks[j] = values[j] > eps
    return out


@dataclass
class LevelField:
    """Per-cell values of one construction on the Whitney cells of levels
    0..J_max; its eps-superlevel set is the construction's bad set."""

    method: str
    n: int
    J_max: int
    values: dict[int, np.ndarray]

    @property
    def max_value(self) -> float:
        return max((float(v.max()) for v in self.values.values() if v.size), default=0.0)

    def threshold(self, eps: float) -> HalfSpaceSet:
        return threshold_set(self.values, eps, self.n, self.J_max)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "index", "value"])
            for j in sorted(self.values):
                for pos, val in enumerate(self.values[j].ravel()):
                    writer.writerow([j, pos, repr(float(val))])


def pool_children(arr: np.ndarray, n: int) -> np.ndarray:
    """Sum each dyadic cube's 2^n children: a level-(j+1) table to level j."""
    if n == 1:
        return arr[0::2] + arr[1::2]
    h, w = arr.shape
    return arr.reshape(h // 2, 2, w // 2, 2).sum(axis=(1, 3))


def box_sup(levels, n: int) -> float:
    """sup over dyadic boxes Q of (1/|Q|) * (mass on the cubes under Q), in one
    bottom-up pass.

    levels yields (j, own) from the deepest level up, own holding the mass each
    level-j cube carries itself; each level adds its children's pooled sums.
    Given a generator, only two levels' tables are alive at a time.
    """
    best = 0.0
    acc = None
    for j, own in levels:
        acc = own if acc is None else own + pool_children(acc, n)
        best = max(best, float(acc.max()) * 2.0 ** (n * j))
    return best


def pool_max(arr: np.ndarray, cells: int) -> np.ndarray:
    """Max over each of the cells^n equal dyadic blocks of arr, halving each axis pairwise."""
    for axis in reversed(range(arr.ndim)):
        lead = (slice(None),) * axis
        while arr.shape[axis] > cells:
            arr = np.maximum(arr[lead + (slice(0, None, 2),)], arr[lead + (slice(1, None, 2),)])
    return arr


def carleson_box_value(A: HalfSpaceSet, Q: DyadicCube, max_level: int | None = None) -> float:
    """(1/|Q|) * integral over Q x (0, l(Q)] of chi_A dy dx / y, exactly.

    Each cell T(P) with P inside Q contributes |P| * log 2.
    """
    if Q.n != A.n:
        raise ValueError("dimension mismatch")
    top = A.J_max if max_level is None else min(max_level, A.J_max)
    vol = 0.0
    for j in range(Q.level, top + 1):
        shift = j - Q.level
        sl = tuple(slice(k << shift, (k + 1) << shift) for k in Q.index)
        vol += float(A._masks[j][sl].sum()) * 2.0 ** (-A.n * j)
    return vol * 2.0 ** (A.n * Q.level) * LOG2


@dataclass
class CarlesonReport:
    """Depth-truncated Carleson suprema with a divergence diagnosis.

    m_values[i] is M_J at depth J = j_values[i]: the sup over dyadic boxes of
    level <= J of the box value computed from cells of level <= J.  M_J is
    constant in J beyond the deepest cell of the set.  The slope is a least
    squares fit of M_J against J over the top half of the depth range;
    "diverging" means it exceeds theta * log 2.
    """

    j_values: list[int]
    m_values: list[float]
    slope: float
    theta: float
    diverging: bool


def carleson_sup(A: HalfSpaceSet, J_range: tuple[int, int], theta: float) -> CarlesonReport:
    """M_J over a depth range, with the slope-based divergence flag.

    Depths beyond A.J_max are allowed: truncation there already includes every
    cell, so M_J continues with its final value.
    """
    j_lo, j_hi = int(J_range[0]), int(J_range[1])
    if j_lo < 0 or j_hi < j_lo:
        raise ValueError(f"empty or invalid depth range {J_range}")
    js = list(range(j_lo, j_hi + 1))

    def levels(top):
        for j in range(top, -1, -1):  # a level-j cell's mass is its volume
            yield j, A._masks[j].astype(float) * 2.0 ** (-A.n * j)

    m_values = [box_sup(levels(min(J, A.J_max)), A.n) * LOG2 for J in js]

    fit_j = js[len(js) // 2:]
    if len(fit_j) < 2:
        fit_j = js[-2:] if len(js) >= 2 else js
    if len(fit_j) >= 2:
        ys = [m_values[js.index(j)] for j in fit_j]
        slope = float(np.polyfit(fit_j, ys, 1)[0])
    else:
        slope = 0.0
    return CarlesonReport(
        j_values=js,
        m_values=m_values,
        slope=slope,
        theta=theta,
        diverging=bool(slope > theta * LOG2),
    )


def torus_dist_sq(x1, x2) -> float:
    d = 0.0
    for a, b in zip(x1, x2):
        t = abs(a - b) % 1.0
        t = min(t, 1.0 - t)
        d += t * t
    return d


def hyperbolic_distance(p: HalfSpacePoint, q: HalfSpacePoint) -> float:
    """rho = arccosh(1 + (d_T(x,x')^2 + (y-y')^2) / (2 y y'))."""
    d2 = torus_dist_sq(p.x, q.x)
    num = d2 + (p.y - q.y) ** 2
    return float(np.arccosh(1.0 + num / (2.0 * p.y * q.y)))


def cell_diameter_bound(n: int) -> float:
    """Upper bound on the hyperbolic diameter of any Whitney cell.

    Worst pair inside T(Q): x-separation sqrt(n) l, y in [l/2, l]; the cosh
    argument is then at most 1 + 2 (n + 1/4), at every level.
    """
    return float(np.arccosh(1.0 + 2.0 * (n + 0.25)))


def _nearest_seeds(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest seed rows below and above each row, per column, over three periods.

    S is (L, C) with a seed in every column.  Row r + L of `below` holds the
    largest k <= r with S[k mod L] set, row r + L of `above` the smallest
    k >= r, for r in [-L, 2L); k may lie one period outside [0, L).
    """
    L = S.shape[0]
    k = np.arange(-L, 2 * L)[:, None]
    S3 = np.concatenate([S, S, S])
    below = np.maximum.accumulate(np.where(S3, k, -3 * L), axis=0)
    above = np.minimum.accumulate(np.where(S3, k, 3 * L)[::-1], axis=0)[::-1]
    return below, above


def _mark_windows(shape: tuple[int, int], row, lo, hi) -> np.ndarray:
    """Boolean (rows, width) array, row[t] set on lo[t]..hi[t] taken mod width."""
    rows, width = shape
    full = hi - lo + 1 >= width
    lo = np.where(full, 0, lo % width)
    hi = np.where(full, width - 1, hi % width)
    start = row * (width + 1)
    wrap = lo > hi
    size = rows * (width + 1)
    diff = (np.bincount(np.concatenate([start + lo, start[wrap]]), minlength=size)
            - np.bincount(np.concatenate([start + hi + 1, start[wrap] + width]), minlength=size))
    return np.cumsum(diff.reshape(rows, width + 1), axis=1)[:, :width] > 0


def enlarge(A: HalfSpaceSet, R: float) -> HalfSpaceSet:
    """Cell-discretized hyperbolic R-neighborhood.

    Includes every cell (level <= J_max) whose center lies within hyperbolic
    distance R + delta_cell of some cell center of A, so the result always
    contains A and over-approximates the continuum neighborhood consistently
    across levels.

    With t = R + delta_cell, a center (x, yc) is that close to a seed center
    (xs, ys) iff d_T(x, xs)^2 < b = 2 yc ys (cosh t - 1) - (yc - ys)^2.  Every
    cell center of every level lies on the grid of step u = 2^-(J_max+1), so
    in steps of u the squared torus distance is an integer and, u^2 being a
    power of two, B = b / u^2 is exact: the test d^2 < B is exact.  The
    distance is separable.  For n = 2, the seed mask of each level gives,
    per seed column, the distance g along the first axis from every target
    row to the nearest seed of that column; for n = 1 there is one row and
    g = 0.  A target center in that row is then in range of a column's seeds
    iff its offset k along the last axis has k^2 < B - g^2: a window of
    integer half-width around the column, marked with a difference array.
    Memory is O(2^j 2^js) per pair of target and seed levels, whatever the
    number of cells.
    """
    if R < 0:
        raise ValueError("R must be >= 0")
    cosh_m1 = math.cosh(R + cell_diameter_bound(A.n)) - 1.0
    out = HalfSpaceSet(A.n, A.J_max)
    inv_u_sq = 4.0 ** (A.J_max + 1)
    farthest = A.n * 4**A.J_max  # largest squared torus distance, in steps of u

    seeds = []
    for js in range(A.J_max + 1):
        S = A._masks[js].reshape(-1, 2**js)  # one row when n = 1
        cols = np.flatnonzero(S.any(axis=0))
        if cols.size:
            seeds.append((js, cols, _nearest_seeds(S[:, cols]) if A.n == 2 else None))

    for j in range(A.J_max + 1):
        m = out._masks[j]
        h = 2 ** (A.J_max - j)  # level-j centers sit at (2i + 1) h
        yc = 0.75 * 2.0**-j
        for js, cols, near in seeds:
            ys = 0.75 * 2.0**-js
            B = (2.0 * yc * ys * cosh_m1 - (yc - ys) ** 2) * inv_u_sq
            if B <= 0:
                continue
            if B > farthest:
                m[...] = True
                break
            hs = 2 ** (A.J_max - js)
            if near is None:
                g_sq = np.zeros((1, cols.size), dtype=np.int64)
            else:
                below, above = near
                r = (2 * np.arange(2**j) + 1) * h
                q = (r - hs) // (2 * hs) + 2**js  # seed-lattice row at or below r, + L
                r = r[:, None]
                g = np.minimum(r - (2 * below[q] + 1) * hs, (2 * above[q + 1] + 1) * hs - r)
                g_sq = g * g
            # largest integer k with k^2 + g^2 < B (k = -1 when there is none)
            k = np.floor(np.sqrt(np.maximum(B - g_sq, 0.0))).astype(np.int64)
            k -= k * k + g_sq >= B
            k += (k + 1) * (k + 1) + g_sq < B
            xs = (2 * cols + 1) * hs
            lo = -((k - xs + h) // (2 * h))  # level-j centers in [xs - k, xs + k]
            hi = (xs + k - h) // (2 * h)
            row, col = np.nonzero(hi >= lo)
            m |= _mark_windows((g_sq.shape[0], 2**j), row,
                               lo[row, col], hi[row, col]).reshape(m.shape)
            if m.all():
                break
    return out
