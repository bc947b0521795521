import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import carleson, is_subset, same_carleson
from zygdist.dyadic import (LOG2, HalfSpaceSet, box_sup, carleson_sup, cell_diameter_bound,
                            enlarge, pool, threshold_set)


# ---------------------------------------------------------------- oracles

def cell_set(n, J_max, cells):
    """The set of the cells (j, idx), idx a tuple of n indices."""
    out = HalfSpaceSet(n, J_max)
    for j, idx in cells:
        out.mask(j)[idx] = True
    return out


def brute_box_value(cells, Q_level, Q_index, n, max_level):
    """Independent box value: explicit containment loop over cells."""
    total = 0.0
    for (j, idx) in cells:
        if j < Q_level or j > max_level:
            continue
        shift = j - Q_level
        if all(v >> shift == q for v, q in zip(idx, Q_index)):
            total += 2.0 ** (-n * j)
    return total * 2.0 ** (n * Q_level) * LOG2


def brute_m_value(cells, n, J):
    """Independent M_J: enumerate every dyadic box of level <= J."""
    best = 0.0
    for q in range(J + 1):
        for flat in range(2 ** (n * q)):
            if n == 1:
                idx = (flat,)
            else:
                idx = (flat // 2**q, flat % 2**q)
            best = max(best, brute_box_value(cells, q, idx, n, J))
    return best


def one_row_box_sup(levels, n):
    """The box sup of a single truncation depth as the walk of zygdist 0.2.1
    computed it: one table of box sums, pooled in the memory order of the
    masses, and the root's 2^n children summed by one np.add.reduce."""
    best = 0.0
    acc = None
    for j, own in levels:
        acc = own if acc is None else own + pool(acc, np.add, 2**j)
        best = max(best, float(acc.max()) * 2.0 ** (n * j))
    return best


def per_top_m_values(A, J_range):
    """M_J by one one-row walk from each distinct depth top = min(J, J_max)."""
    tops = [min(J, A.J_max) for J in range(J_range[0], J_range[1] + 1)]
    mass = [A.mask(j).astype(float) * 2.0 ** (-A.n * j) for j in range(tops[-1] + 1)]
    sups = {top: one_row_box_sup(((j, mass[j]) for j in range(top, -1, -1)), A.n) * LOG2
            for top in set(tops)}
    return [sups[top] for top in tops]


def hyperbolic_distance(p, q):
    """rho = arccosh(1 + (d_T(x,x')^2 + (y-y')^2) / (2 y y')) between points
    p = (x, y) and q = (x', y'), x a tuple of coordinates on the torus."""
    (xp, yp), (xq, yq) = p, q
    d2 = 0.0
    for a, b in zip(xp, xq):
        t = abs(a - b) % 1.0
        t = min(t, 1.0 - t)
        d2 += t * t
    return float(np.arccosh(1.0 + (d2 + (yp - yq) ** 2) / (2.0 * yp * yq)))


def geodesic_length(dx, y1, y2, steps=400_000):
    """Numeric arc length of the hyperbolic geodesic in a vertical plane."""
    if dx == 0.0:
        return abs(math.log(y1 / y2))
    c = (dx**2 + y2**2 - y1**2) / (2.0 * dx)
    r = math.hypot(c, y1)
    t1 = math.atan2(y1, -c)
    t2 = math.atan2(y2, dx - c)
    t = np.linspace(min(t1, t2), max(t1, t2), steps)
    return float(np.trapezoid(1.0 / np.sin(t), t))


def box_values(A, q):
    """Box value of every level-q cube of A: the cell masses of each level
    j >= q summed into their level-q ancestors by pool, as box_sup sums them."""
    return LOG2 * sum(pool(A.mask(j) * 2.0 ** (-A.n * j), np.add, 2**q)
                      for j in range(q, A.J_max + 1))


# ------------------------------------------------------------ box values

class TestBoxValue:
    def test_single_cell_own_box(self):
        A = cell_set(1, 4, [(2, (1,))])
        assert abs(box_values(A, 2)[1] * 2.0**2 - LOG2) < 1e-15

    def test_full_stack_unit_cube(self):
        J = 6
        A = HalfSpaceSet.full_stack(1, J)
        assert abs(box_values(A, 0)[0] - (J + 1) * LOG2) < 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_child_cell_volume_ratio(self, n):
        A = cell_set(n, 4, [(3, (0,) * n)])
        val = box_values(A, 2)[(0,) * n] * 2.0 ** (2 * n)
        assert abs(val - LOG2 * 2.0**-n) < 1e-15

    def test_additive_over_disjoint_cells(self):
        rng = np.random.default_rng(0)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),)) for j in rng.integers(1, 5, size=12)})
        whole = box_values(cell_set(1, 6, cells), 0)[0]
        parts = sum(box_values(cell_set(1, 6, [c]), 0)[0] for c in cells)
        assert abs(whole - parts) < 1e-13

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(1)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),)) for j in rng.integers(0, 5, size=20)})
        A = cell_set(1, 4, cells)
        for q in range(3):
            got = box_values(A, q) * 2.0**q
            for k in range(2**q):
                assert abs(got[k] - brute_box_value(cells, q, (k,), 1, 4)) < 1e-13

    def test_agrees_with_brute_force_n2(self):
        rng = np.random.default_rng(7)
        cells = list({(int(j), (int(rng.integers(0, 2**j)), int(rng.integers(0, 2**j))))
                      for j in rng.integers(0, 4, size=25)})
        A = cell_set(2, 3, cells)
        for q in range(4):
            got = box_values(A, q) * 4.0**q
            for idx in np.ndindex(*(2**q,) * 2):
                assert abs(got[idx] - brute_box_value(cells, q, idx, 2, 3)) < 1e-13


# ------------------------------------------------------------ carleson sup

class TestCarlesonSup:
    def test_shape_is_depths_by_sets(self):
        sets = (HalfSpaceSet(1, 4), HalfSpaceSet.full_stack(1, 4), HalfSpaceSet(1, 4))
        assert carleson_sup(sets, (2, 7)).shape == (6, 3)

    def test_empty(self):
        [(m_values, _, diverging)] = carleson((HalfSpaceSet(1, 10),), (0, 10))
        assert all(m == 0.0 for m in m_values)
        assert not diverging

    def test_full_stack_closed_form(self):
        [(m_values, slope, diverging)] = carleson((HalfSpaceSet.full_stack(1, 12),), (0, 12))
        for J, m in enumerate(m_values):
            assert abs(m - (J + 1) * LOG2) < 1e-12
        assert abs(slope - LOG2) < 1e-12
        assert diverging

    def test_saturating_shallow_stack(self):
        A = HalfSpaceSet(1, 12)
        for j in range(4):
            A.mask(j)[...] = True
        [(m_values, _, diverging)] = carleson((A,), (0, 12))
        assert abs(m_values[-1] - 4 * LOG2) < 1e-12
        assert abs(m_values[-1] - m_values[4]) < 1e-15
        assert not diverging

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),))
                      for j in rng.integers(0, 6, size=40)})
        A = cell_set(1, 5, cells)
        for J, m in enumerate(carleson_sup((A,), (0, 5))[:, 0]):
            assert abs(m - brute_m_value(cells, 1, J)) < 1e-12

    def test_matches_brute_force_n2(self):
        rng = np.random.default_rng(3)
        cells = list({(int(j), (int(rng.integers(0, 2**j)), int(rng.integers(0, 2**j))))
                      for j in rng.integers(0, 4, size=25)})
        A = cell_set(2, 3, cells)
        for J, m in enumerate(carleson_sup((A,), (0, 3))[:, 0]):
            assert abs(m - brute_m_value(cells, 2, J)) < 1e-12

    def test_m_monotone_under_adding_cells(self):
        rng = np.random.default_rng(4)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),))
                      for j in rng.integers(0, 8, size=30)})
        A = cell_set(1, 8, cells[:10])
        B = cell_set(1, 8, cells)
        ma = carleson_sup((A,), (0, 8))[:, 0]
        mb = carleson_sup((B,), (0, 8))[:, 0]
        assert all(b >= a - 1e-15 for a, b in zip(ma, mb))

    def test_m_nondecreasing_in_depth(self):
        rng = np.random.default_rng(5)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),))
                      for j in rng.integers(0, 9, size=50)})
        m = carleson_sup((cell_set(1, 9, cells),), (0, 9))[:, 0]
        assert all(b >= a - 1e-15 for a, b in zip(m, m[1:]))

    def test_depth_beyond_cells_is_flat(self):
        A = cell_set(1, 3, [(3, (5,)), (1, (0,))])
        m = carleson_sup((A,), (0, 9))[:, 0]
        assert m[-1] == m[3]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            carleson_sup((HalfSpaceSet(1, 4),), (3, 2))

    @pytest.mark.parametrize("n,J_max", [(1, 12), (2, 6)])
    @pytest.mark.parametrize("J_range", [
        (2, 9), (0, 6), (4, 6),   # inside J_max, and ending on it
        (3, 14), (6, 9),          # straddling it
        (8, 15), (7, 7),          # beyond it, and a single depth beyond it
        (5, 5), (0, 0),           # single depths
    ])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_matches_per_top_passes_bitwise(self, n, J_max, J_range, density):
        # the one stacked pass against one one-row walk per distinct top, on
        # random masks, the empty set (density 0) and full_stack (density 1)
        rng = np.random.default_rng([n, J_max, *J_range, int(100 * density)])
        if density == 1.0:
            A = HalfSpaceSet.full_stack(n, J_max)
        else:
            A = HalfSpaceSet(n, J_max)
            for j in range(J_max + 1):
                A.mask(j)[...] = rng.random(A.mask(j).shape) < density
        got = carleson_sup((A,), J_range)[:, 0]
        want = np.array(per_top_m_values(A, J_range))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n,J_max,rows", [(1, 10, 6), (2, 6, 4), (2, 7, 8)])
    def test_stacked_walk_matches_one_row_walks_bitwise(self, n, J_max, rows):
        # float masses of the size of cell volumes, so the sup sits on large
        # boxes whose sums depend on their order: each row of the stacked
        # walk is the rows=1 walk from its top, and transposed (column-major)
        # tables of the same masses give the same bits; at n=2 they do not
        # under one_row_box_sup, which pools in memory order
        rng = np.random.default_rng([n, J_max, rows])
        mass = [rng.random((2**j,) * n) * 2.0 ** (-n * j) for j in range(J_max + 1)]
        transposed = [m.T.copy().T for m in mass]

        def walk(tables, top, rows):  # entry i is depth top - i
            return box_sup(tables.__getitem__, n, (top - rows + 1, top), top)[::-1]

        stacked = walk(mass, J_max, rows)
        one_row = np.array([walk(mass, J_max - i, 1)[0] for i in range(rows)])
        assert np.array_equal(stacked.view(np.int64), one_row.view(np.int64))
        assert np.array_equal(walk(transposed, J_max, rows).view(np.int64),
                              stacked.view(np.int64))

    @pytest.mark.parametrize("n,J_max,lead", [(1, 10, (3,)), (2, 6, (2, 3))])
    def test_leading_axes_walk_each_table_apart_bitwise(self, n, J_max, lead):
        # float masses stacked on leading axes: each entry of the result is
        # the walk of its own table, bit for bit
        rng = np.random.default_rng([n, J_max, len(lead)])
        mass = [rng.random(lead + (2**j,) * n) * 2.0 ** (-n * j) for j in range(J_max + 1)]
        rows = 4
        depths = (J_max - rows + 1, J_max)
        got = box_sup(mass.__getitem__, n, depths, J_max)
        assert got.shape == (rows,) + lead
        for idx in np.ndindex(*lead):
            want = box_sup(lambda j: mass[j][idx], n, depths, J_max)
            assert np.array_equal(got[(slice(None),) + idx].view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n,J_max", [(1, 10), (2, 5)])
    @pytest.mark.parametrize("J_range", [(2, 8), (0, 0), (4, 13), (7, 7)])
    def test_stacked_sets_match_one_set_calls_bitwise(self, n, J_max, J_range):
        # the empty set, full_stack, random sets and a repeated set, walked
        # as one stack against one call per set
        rng = np.random.default_rng([n, J_max, *J_range])
        sets = [HalfSpaceSet(n, J_max), HalfSpaceSet.full_stack(n, J_max)]
        for density in (0.05, 0.5, 0.9):
            sets.append(HalfSpaceSet(n, J_max, {
                j: rng.random((2**j,) * n) < density for j in range(J_max + 1)}))
        sets.append(sets[3])
        stacked = carleson(tuple(sets), J_range)
        assert len(stacked) == len(sets)
        for A, walk in zip(sets, stacked):
            assert same_carleson(walk, carleson((A,), J_range)[0])

    def test_sets_must_be_a_tuple_sharing_n_and_depth(self):
        A = HalfSpaceSet.full_stack(1, 4)
        for sets in (A, [A]):
            with pytest.raises(TypeError, match="sets must be a tuple"):
                carleson_sup(sets, (0, 4))
        with pytest.raises(ValueError, match="at least one"):
            carleson_sup((), (0, 4))
        for other in (HalfSpaceSet(1, 5), HalfSpaceSet(2, 4)):
            with pytest.raises(ValueError, match="share n and J_max"):
                carleson_sup((A, other), (0, 4))


# ------------------------------------------------------------- hyperbolic

class TestHyperbolic:
    def test_vertical_geodesic(self):
        p = ((0.0,), 1.0)
        q = ((0.0,), math.exp(-1.0))
        assert abs(hyperbolic_distance(p, q) - 1.0) < 1e-12

    def test_zero_iff_equal(self):
        p = ((0.3,), 0.25)
        assert hyperbolic_distance(p, p) == 0.0
        q = ((0.3,), 0.2501)
        assert hyperbolic_distance(p, q) > 0.0

    @pytest.mark.parametrize("dx,y1,y2", [
        (0.3, 1.0, 0.2),
        (0.1, 0.5, 0.5),
        (0.45, 0.9, 0.05),
    ])
    def test_matches_geodesic_integration(self, dx, y1, y2):
        p = ((0.0,), y1)
        q = ((dx,), y2)
        got = hyperbolic_distance(p, q)
        want = geodesic_length(dx, y1, y2)
        assert abs(got - want) < 1e-6

    def test_symmetric_and_torus_wrap(self):
        p = ((0.05,), 0.3)
        q = ((0.95,), 0.4)
        d = hyperbolic_distance(p, q)
        assert d == hyperbolic_distance(q, p)
        # wrap distance 0.1, not 0.9
        r = ((0.15,), 0.4)
        assert abs(d - hyperbolic_distance(p, r)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            pts = [((float(rng.uniform()),), float(rng.uniform(0.01, 1.0))) for _ in range(3)]
            ab = hyperbolic_distance(pts[0], pts[1])
            bc = hyperbolic_distance(pts[1], pts[2])
            ac = hyperbolic_distance(pts[0], pts[2])
            assert ac <= ab + bc + 1e-9


# --------------------------------------------------------------- enlarge

def brute_enlarge(A, R):
    """Quadratic-cost oracle: test every candidate center against every seed."""
    thresh = R + cell_diameter_bound(A.n)
    seeds = [(tuple((k + 0.5) * 2.0**-j for k in idx), 0.75 * 2.0**-j)
             for j in range(A.J_max + 1) for idx in np.argwhere(A.mask(j))]
    out = HalfSpaceSet(A.n, A.J_max)
    for j in range(A.J_max + 1):
        side = 2.0**-j
        for idx in np.ndindex(*(2**j,) * A.n):
            p = (tuple((k + 0.5) * side for k in idx), 0.75 * side)
            if any(hyperbolic_distance(p, seed) < thresh for seed in seeds):
                out.mask(j)[idx] = True
    return out


class TestEnlarge:
    def test_contains_original(self):
        A = cell_set(1, 6, [(3, (2,)), (5, (17,))])
        assert is_subset(A, enlarge(A, 0.0))

    def test_monotone_in_R(self):
        A = cell_set(1, 6, [(4, (7,))])
        small = enlarge(A, 0.5)
        big = enlarge(A, 1.5)
        assert is_subset(small, big)

    def test_single_top_cell_big_R_covers_stack(self):
        A = cell_set(1, 4, [(0, (0,))])
        assert enlarge(A, 10.0) == HalfSpaceSet.full_stack(1, 4)

    @pytest.mark.parametrize("R", [0.0, 0.7, 1.5])
    def test_matches_brute_force(self, R):
        A = cell_set(1, 5, [(2, (1,)), (4, (12,))])
        assert enlarge(A, R) == brute_enlarge(A, R)

    @pytest.mark.parametrize("R", [0.0, 1.0])
    def test_matches_brute_force_n2(self, R):
        A = cell_set(2, 3, [(1, (0, 1)), (3, (5, 2))])
        assert enlarge(A, R) == brute_enlarge(A, R)

    @pytest.mark.parametrize(
        "seed, n, J_max", [(s, 1, 4) for s in range(5)] + [(s, 2, 3) for s in range(5)],
        ids=[str(s) for s in range(5)] + [f"n2-{s}" for s in range(5)])
    def test_matches_brute_force_random_sets(self, seed, n, J_max):
        rng = np.random.default_rng(seed)
        cells = list({(int(j), tuple(int(rng.integers(0, 2**j)) for _ in range(n)))
                      for j in rng.integers(0, J_max + 1, size=6)})
        A = cell_set(n, J_max, cells)
        for R in (0.3, 1.1):
            assert enlarge(A, R) == brute_enlarge(A, R)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("R", [0.5, 2.0, 3.0])
    def test_matches_brute_force_across_seam(self, n, R):
        # seeds in the first and the last cube of their level, so windows wrap
        # the torus; at R=3 the shallow pairs reach every center
        J_max = 4 if n == 1 else 3
        A = cell_set(n, J_max, [(J_max, (0,) * n), (J_max - 1, (2 ** (J_max - 1) - 1,) * n)])
        assert enlarge(A, R) == brute_enlarge(A, R)

    def test_memory_grows_with_grid_not_pairs(self):
        # the full n=2 stack at J_max=5 has 1365 cells, and at R=4 nearly every
        # (center, seed) pair is within reach; the working memory must stay
        # that of a few grids of (2^(J_max+2))^2 points
        enlarge(cell_set(2, 1, [(0, (0, 0))]), 0.0)  # imports done
        A = HalfSpaceSet.full_stack(2, 5)
        tracemalloc.start()
        try:
            out = enlarge(A, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == A
        assert peak < 64 * 2**20

    def test_composition_upper_bound(self):
        # two-step enlargement covers the one-step with radii summed minus
        # one cell-diameter slack (triangle inequality on centers)
        A = cell_set(1, 6, [(3, (4,))])
        delta = cell_diameter_bound(1)
        two = enlarge(enlarge(A, 2.0), 1.5)
        one = enlarge(A, 3.5 - delta)
        assert is_subset(one, two)


# ---------------------------------------------------------- set plumbing

@pytest.mark.parametrize("n,J", [(1, 10), (2, 6)])
def test_pool_max_matches_block_reshape(n, J):
    arr = np.random.default_rng(n).standard_normal((2**J,) * n)
    blocks = tuple(range(1, 2 * n, 2))
    for j in range(J + 1):
        pts = 2 ** (J - j)
        shape = (2**j, pts) * n
        want = arr.reshape(shape).max(axis=blocks)
        assert np.array_equal(pool(arr, np.maximum, 2**j), want)
    # one level of sums adds as numpy's block sum does, bit for bit, on
    # C-ordered tables and transposed ones, down to the last 2^n children
    for j in range(J):
        sub = arr[(slice(0, 2 ** (j + 1)),) * n]
        for table in (sub, sub.T):
            want = table.reshape((2**j, 2) * n).sum(axis=blocks)
            assert pool(table, np.add, 2**j).tobytes() == want.tobytes()
    for root in np.random.default_rng(J).standard_normal((50,) + (2,) * n):
        for table in (root, root.T):
            want = table.reshape((1, 2) * n).sum(axis=blocks)
            assert pool(table, np.add, 1).tobytes() == want.tobytes()


class TestHalfSpaceSet:
    def test_threshold_strict(self):
        values = {0: np.array([1.0]), 1: np.array([0.5, 2.0])}
        S = threshold_set(values, 1.0, 1, 1)
        assert S.mask(1)[1]
        assert not S.mask(0)[0]  # ties excluded
        assert S.cell_count == 1

    def test_threshold_zero_keeps_positive_values(self):
        values = {0: np.array([0.0]), 1: np.array([1e-300, 0.0])}
        S = threshold_set(values, 0.0, 1, 1)
        assert S.mask(1)[0]
        assert S.cell_count == 1

    def test_threshold_builds_each_mask_once(self):
        # the masks are the comparisons themselves, and a level missing from
        # values is one empty mask
        rng = np.random.default_rng(3)
        values = {j: rng.random((2**j, 2**j)) for j in range(10)}
        threshold_set(values, 0.5, 2, 10)  # imports done
        tracemalloc.start()
        try:
            S = threshold_set(values, 0.5, 2, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for j in range(10):
            assert np.array_equal(S.mask(j), values[j] > 0.5)
        assert not S.mask(10).any()
        assert peak <= sum(4**j for j in range(11)) + 2**14

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_threshold_eps_must_be_finite_and_nonnegative(self, eps):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            threshold_set({0: np.array([1.0])}, eps, 1, 0)

    def test_json_roundtrip(self):
        A = cell_set(2, 3, [(2, (1, 3)), (0, (0, 0))])
        obj = json.loads(json.dumps(A.as_dict()))
        assert obj == {"n": 2, "J_max": 3, "cells": [[0, 0, 0], [2, 1, 3]]}
        B = cell_set(obj["n"], obj["J_max"], [(c[0], tuple(c[1:])) for c in obj["cells"]])
        assert A == B

    def test_csv_dump(self, tmp_path):
        A = cell_set(1, 3, [(2, (1,)), (3, (5,))])
        path = tmp_path / "cells.csv"
        A.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "level,k1"
        assert sorted(rows[1:]) == ["2,1", "3,5"]
