"""Sets of Whitney cells as per-level boolean masks, the Carleson functional
on them, and their hyperbolic enlargement.

A Whitney cell over the dyadic cube Q of level j is the slab
T(Q) = Q x [l(Q)/2, l(Q)].  Against the measure dx dy / y it carries exactly
|Q| * log 2, which makes the Carleson functional of any finite cell union an
exact finite sum.  A set holds one (2^j,)^n mask per level j <= J_max, and
entry idx of level j stands for the cell over the cube of that index.

carleson_sup takes a tuple of sets that share n and J_max and returns their
M_J, one column per set, in order: carleson_sup((A,), J_range)[:, 0] for one
set.  The sets are walked side by side in one box_sup pass, and each column
is bitwise that of a one-set call.  This module computes M_J only; whether a
set diverges is decided by distance.divergence.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)


class HalfSpaceSet:
    """Finite union of Whitney cells, stored as per-level boolean masks."""

    def __init__(self, n: int, J_max: int, masks: dict[int, np.ndarray] | None = None):
        """The cells of masks[j] at each level j <= J_max, held as given; a
        level that masks lacks is empty."""
        if n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if J_max < 0:
            raise ValueError("J_max must be >= 0")
        self.n = n
        self.J_max = J_max
        masks = masks or {}
        self._masks = {j: masks[j] if j in masks else np.zeros((2**j,) * n, dtype=bool)
                       for j in range(J_max + 1)}

    @classmethod
    def full_stack(cls, n: int, J_max: int) -> "HalfSpaceSet":
        return cls(n, J_max, {j: np.ones((2**j,) * n, dtype=bool) for j in range(J_max + 1)})

    def mask(self, j: int) -> np.ndarray:
        return self._masks[j]

    @property
    def cell_count(self) -> int:
        return sum(int(np.count_nonzero(m)) for m in self._masks.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfSpaceSet) or self.n != other.n or self.J_max != other.J_max:
            return False
        return all(np.array_equal(self._masks[j], other._masks[j]) for j in self._masks)

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
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps={eps} must be finite and >= 0")
    return HalfSpaceSet(n, J_max, {j: values[j] > eps for j in range(J_max + 1) if j in values})


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


def box_sup(mass, n: int, J_range: tuple[int, int], J_max: int) -> np.ndarray:
    """sup over dyadic boxes Q of (1/|Q|) * (mass on the cubes under Q), at
    each truncation depth J of J_range, the mass taking levels <= J, in one
    bottom-up pass; entry i of the result is depth J_range[0] + i.

    mass(j) gives the mass each level-j cube carries itself, for j <= J_max.
    Depths beyond J_max take every level, so they continue the value at
    J_max.  mass is called once per level, from top = min(J_hi, J_max) down
    to 0, so only two levels' tables are alive at a time.  Each distinct
    truncation level starts a row of box sums, and every level adds its own
    mass to each open row after pooling the row into its parents.  The stack
    of rows is C-ordered whatever the layout of a table, so each level's
    block sums add row-first, and a row is bitwise what a one-depth walk
    from its own top gives.

    A table may carry leading axes ahead of its n cube axes, a stack of
    tables walked side by side; the result then has shape (depths,) + those
    axes.  pool and the per-level max act on each table apart, so every entry
    is bitwise what the walk of its table alone gives.
    """
    j_lo, j_hi = int(J_range[0]), int(J_range[1])
    if j_lo < 0 or j_hi < j_lo:
        raise ValueError(f"empty or invalid depth range {J_range}")
    tops = [min(J, J_max) for J in range(j_lo, j_hi + 1)]
    rows = tops[-1] - tops[0] + 1
    best = acc = None
    for j in range(tops[-1], -1, -1):
        own = mass(j)
        if acc is None:
            acc = np.empty((0,) + own.shape)
            best = np.zeros((rows,) + own.shape[:own.ndim - n])
        acc = pool(acc, np.add, (len(acc),) + own.shape) + own
        if len(acc) < rows:
            acc = np.concatenate([acc, own[None]])
        open_rows = best[:len(acc)]
        np.maximum(open_rows, acc.reshape(open_rows.shape + (-1,)).max(axis=-1)
                   * 2.0 ** (n * j), out=open_rows)
    return best[[tops[-1] - top for top in tops]]


def pool(arr: np.ndarray, op, cells) -> np.ndarray:
    """Reduce each of the cells^n equal dyadic blocks of arr with the binary
    ufunc op (np.add or np.maximum); cells may also be a tuple, one count
    per axis.  The axes are halved pairwise in memory order, smallest
    stride first, and the root's 2^n children are one op.reduce: the order
    numpy's reshape(h/2, 2, w/2, 2).sum(axis=(1, 3)) adds in, so one level
    of sums is bitwise equal to it, (a00 + a01) + (a10 + a11) on a C-ordered
    table and ((a00 + a01) + a10) + a11 on the root's."""
    if cells == 1 and arr.size == 2**arr.ndim:
        return op.reduce(arr, axis=None, keepdims=True)
    counts = cells if isinstance(cells, tuple) else (cells,) * arr.ndim
    for axis in sorted(range(arr.ndim), key=arr.strides.__getitem__):
        lead = (slice(None),) * axis
        while arr.shape[axis] > counts[axis]:
            arr = op(arr[lead + (slice(0, None, 2),)], arr[lead + (slice(1, None, 2),)])
    return arr


def carleson_sup(sets: tuple[HalfSpaceSet, ...], J_range: tuple[int, int]) -> np.ndarray:
    """M_J over a depth range for each of a tuple of sets sharing n and
    J_max: entry [i, k] is M_J of sets[k] at depth J = J_range[0] + i, the
    sup over dyadic boxes of level <= J of the box value computed from cells
    of level <= J, in units that include the log 2 of each cell.

    Depths beyond J_max are allowed: truncation there already includes every
    cell, so M_J continues with its final value.

    All depths and all sets share one box_sup pass over the sets' stacked
    masses, one row per distinct truncation depth top = min(J, J_max).  A
    level-j cell's mass is its volume 2^(-n j), so in units of 2^(-n top)
    every partial sum is an integer below 2^53: the sums are exact, their
    order is free, and each column is bitwise that of a one-set call.
    """
    if not isinstance(sets, tuple):
        raise TypeError(f"sets must be a tuple of HalfSpaceSets, got {type(sets).__name__}")
    if not sets:
        raise ValueError("sets must hold at least one HalfSpaceSet")
    n, J_max = sets[0].n, sets[0].J_max
    if any((A.n, A.J_max) != (n, J_max) for A in sets):
        raise ValueError("the sets must share n and J_max, got "
                         f"{sorted({(A.n, A.J_max) for A in sets})} as (n, J_max)")
    return box_sup(lambda j: np.array([A._masks[j] for A in sets]) * 2.0 ** (-n * j),
                   n, J_range, J_max) * LOG2


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
