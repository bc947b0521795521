import json
import math
import tracemalloc

import numpy as np
import pytest

from zygdist.dyadic import (LOG2, DyadicCube, HalfSpacePoint, HalfSpaceSet,
                            WhitneyCell, carleson_box_value, carleson_sup,
                            cell_diameter_bound, enlarge,
                            hyperbolic_distance, pool_max, threshold_set)


# ---------------------------------------------------------------- oracles

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


# ------------------------------------------------------------------ cubes

class TestCubes:
    def test_contains_itself(self):
        Q = DyadicCube(1, 3, (5,))
        assert Q.contains(Q)

    def test_contains_child(self):
        Q = DyadicCube(1, 2, (1,))
        child = DyadicCube(1, 3, (2,))
        assert Q.contains(child)

    def test_sibling_not_contained(self):
        Q = DyadicCube(1, 2, (1,))
        assert not Q.contains(DyadicCube(1, 2, (2,)))
        assert not DyadicCube(1, 3, (2,)).contains(Q)

    def test_n2_containment(self):
        Q = DyadicCube(2, 1, (0, 1))
        assert Q.contains(DyadicCube(2, 3, (3, 7)))
        assert not Q.contains(DyadicCube(2, 3, (4, 7)))

    def test_geometry(self):
        Q = DyadicCube(2, 3, (1, 2))
        assert Q.side == 0.125
        assert Q.volume == 0.125**2
        cell = WhitneyCell(Q)
        assert cell.y_range == (0.0625, 0.125)
        assert abs(cell.weight - Q.volume * LOG2) < 1e-16

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            DyadicCube(1, 2, (4,))


# ------------------------------------------------------------ box values

class TestBoxValue:
    def test_single_cell_own_box(self):
        A = HalfSpaceSet.from_cells(1, 4, [(2, (1,))])
        assert abs(carleson_box_value(A, DyadicCube(1, 2, (1,))) - LOG2) < 1e-15

    def test_full_stack_unit_cube(self):
        J = 6
        A = HalfSpaceSet.full_stack(1, J)
        val = carleson_box_value(A, DyadicCube(1, 0, (0,)))
        assert abs(val - (J + 1) * LOG2) < 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_child_cell_volume_ratio(self, n):
        idx = (0,) * n
        A = HalfSpaceSet.from_cells(n, 4, [(3, (0,) * n)])
        val = carleson_box_value(A, DyadicCube(n, 2, idx))
        assert abs(val - LOG2 * 2.0**-n) < 1e-15

    def test_additive_over_disjoint_cells(self):
        rng = np.random.default_rng(0)
        cells = {(int(rng.integers(1, 5)), None) for _ in range(12)}
        cells = [(j, (int(rng.integers(0, 2**j)),)) for j, _ in cells]
        cells = list({c for c in cells})
        Q = DyadicCube(1, 0, (0,))
        whole = carleson_box_value(HalfSpaceSet.from_cells(1, 6, cells), Q)
        parts = sum(carleson_box_value(HalfSpaceSet.from_cells(1, 6, [c]), Q) for c in cells)
        assert abs(whole - parts) < 1e-13

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(1)
        cells = [(int(j), (int(rng.integers(0, 2**j)),)) for j in rng.integers(0, 5, size=20)]
        cells = list({c for c in cells})
        A = HalfSpaceSet.from_cells(1, 4, cells)
        for q in range(3):
            for k in range(2**q):
                got = carleson_box_value(A, DyadicCube(1, q, (k,)))
                want = brute_box_value(cells, q, (k,), 1, 4)
                assert abs(got - want) < 1e-13


# ------------------------------------------------------------ carleson sup

class TestCarlesonSup:
    def test_empty(self):
        rep = carleson_sup(HalfSpaceSet(1, 10), (0, 10), 0.1)
        assert all(m == 0.0 for m in rep.m_values)
        assert not rep.diverging

    def test_full_stack_closed_form(self):
        rep = carleson_sup(HalfSpaceSet.full_stack(1, 12), (0, 12), 0.1)
        for J, m in zip(rep.j_values, rep.m_values):
            assert abs(m - (J + 1) * LOG2) < 1e-12
        assert abs(rep.slope - LOG2) < 1e-12
        assert rep.diverging

    def test_saturating_shallow_stack(self):
        A = HalfSpaceSet(1, 12)
        for j in range(4):
            A.mask(j)[...] = True
        rep = carleson_sup(A, (0, 12), 0.1)
        assert abs(rep.m_values[-1] - 4 * LOG2) < 1e-12
        assert abs(rep.m_values[-1] - rep.m_values[4]) < 1e-15
        assert not rep.diverging

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),))
                      for j in rng.integers(0, 6, size=40)})
        A = HalfSpaceSet.from_cells(1, 5, cells)
        rep = carleson_sup(A, (0, 5), 0.1)
        for J, m in zip(rep.j_values, rep.m_values):
            assert abs(m - brute_m_value(cells, 1, J)) < 1e-12

    def test_matches_brute_force_n2(self):
        rng = np.random.default_rng(3)
        cells = list({(int(j), (int(rng.integers(0, 2**j)), int(rng.integers(0, 2**j))))
                      for j in rng.integers(0, 4, size=25)})
        A = HalfSpaceSet.from_cells(2, 3, cells)
        rep = carleson_sup(A, (0, 3), 0.1)
        for J, m in zip(rep.j_values, rep.m_values):
            assert abs(m - brute_m_value(cells, 2, J)) < 1e-12

    def test_m_monotone_under_adding_cells(self):
        rng = np.random.default_rng(4)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),))
                      for j in rng.integers(0, 8, size=30)})
        A = HalfSpaceSet.from_cells(1, 8, cells[:10])
        B = HalfSpaceSet.from_cells(1, 8, cells)
        ra = carleson_sup(A, (0, 8), 0.1)
        rb = carleson_sup(B, (0, 8), 0.1)
        assert all(mb >= ma - 1e-15 for ma, mb in zip(ra.m_values, rb.m_values))

    def test_m_nondecreasing_in_depth(self):
        rng = np.random.default_rng(5)
        cells = list({(int(j), (int(rng.integers(0, 2**j)),))
                      for j in rng.integers(0, 9, size=50)})
        rep = carleson_sup(HalfSpaceSet.from_cells(1, 9, cells), (0, 9), 0.1)
        assert all(b >= a - 1e-15 for a, b in zip(rep.m_values, rep.m_values[1:]))

    def test_depth_beyond_cells_is_flat(self):
        A = HalfSpaceSet.from_cells(1, 3, [(3, (5,)), (1, (0,))])
        rep = carleson_sup(A, (0, 9), 0.1)
        assert rep.m_values[-1] == rep.m_values[3]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            carleson_sup(HalfSpaceSet(1, 4), (3, 2), 0.1)


# ------------------------------------------------------------- hyperbolic

class TestHyperbolic:
    def test_vertical_geodesic(self):
        p = HalfSpacePoint((0.0,), 1.0)
        q = HalfSpacePoint((0.0,), math.exp(-1.0))
        assert abs(hyperbolic_distance(p, q) - 1.0) < 1e-12

    def test_zero_iff_equal(self):
        p = HalfSpacePoint((0.3,), 0.25)
        assert hyperbolic_distance(p, p) == 0.0
        q = HalfSpacePoint((0.3,), 0.2501)
        assert hyperbolic_distance(p, q) > 0.0

    @pytest.mark.parametrize("dx,y1,y2", [
        (0.3, 1.0, 0.2),
        (0.1, 0.5, 0.5),
        (0.45, 0.9, 0.05),
    ])
    def test_matches_geodesic_integration(self, dx, y1, y2):
        p = HalfSpacePoint((0.0,), y1)
        q = HalfSpacePoint((dx,), y2)
        got = hyperbolic_distance(p, q)
        want = geodesic_length(dx, y1, y2)
        assert abs(got - want) < 1e-6

    def test_symmetric_and_torus_wrap(self):
        p = HalfSpacePoint((0.05,), 0.3)
        q = HalfSpacePoint((0.95,), 0.4)
        d = hyperbolic_distance(p, q)
        assert d == hyperbolic_distance(q, p)
        # wrap distance 0.1, not 0.9
        r = HalfSpacePoint((0.15,), 0.4)
        assert abs(d - hyperbolic_distance(p, r)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            pts = [HalfSpacePoint((float(rng.uniform()),), float(rng.uniform(0.01, 1.0)))
                   for _ in range(3)]
            ab = hyperbolic_distance(pts[0], pts[1])
            bc = hyperbolic_distance(pts[1], pts[2])
            ac = hyperbolic_distance(pts[0], pts[2])
            assert ac <= ab + bc + 1e-9


# --------------------------------------------------------------- enlarge

def brute_enlarge(A, R):
    """Quadratic-cost oracle: test every candidate center against every seed."""
    thresh = R + cell_diameter_bound(A.n)
    seeds = [cell.center() for cell in A.cells()]
    out = HalfSpaceSet(A.n, A.J_max)
    for j in range(A.J_max + 1):
        side = 2.0**-j
        for idx in np.ndindex(*(2**j,) * A.n):
            x = tuple((k + 0.5) * side for k in idx)
            p = HalfSpacePoint(x, 0.75 * side)
            for (xs, ys) in seeds:
                if hyperbolic_distance(p, HalfSpacePoint(xs, ys)) < thresh:
                    out.mask(j)[idx] = True
                    break
    return out


class TestEnlarge:
    def test_contains_original(self):
        A = HalfSpaceSet.from_cells(1, 6, [(3, (2,)), (5, (17,))])
        assert A.issubset(enlarge(A, 0.0))

    def test_monotone_in_R(self):
        A = HalfSpaceSet.from_cells(1, 6, [(4, (7,))])
        small = enlarge(A, 0.5)
        big = enlarge(A, 1.5)
        assert small.issubset(big)

    def test_single_top_cell_big_R_covers_stack(self):
        A = HalfSpaceSet.from_cells(1, 4, [(0, (0,))])
        assert enlarge(A, 10.0) == HalfSpaceSet.full_stack(1, 4)

    @pytest.mark.parametrize("R", [0.0, 0.7, 1.5])
    def test_matches_brute_force(self, R):
        A = HalfSpaceSet.from_cells(1, 5, [(2, (1,)), (4, (12,))])
        assert enlarge(A, R) == brute_enlarge(A, R)

    @pytest.mark.parametrize("R", [0.0, 1.0])
    def test_matches_brute_force_n2(self, R):
        A = HalfSpaceSet.from_cells(2, 3, [(1, (0, 1)), (3, (5, 2))])
        assert enlarge(A, R) == brute_enlarge(A, R)

    @pytest.mark.parametrize(
        "seed, n, J_max", [(s, 1, 4) for s in range(5)] + [(s, 2, 3) for s in range(5)],
        ids=[str(s) for s in range(5)] + [f"n2-{s}" for s in range(5)])
    def test_matches_brute_force_random_sets(self, seed, n, J_max):
        rng = np.random.default_rng(seed)
        cells = list({(int(j), tuple(int(rng.integers(0, 2**j)) for _ in range(n)))
                      for j in rng.integers(0, J_max + 1, size=6)})
        A = HalfSpaceSet.from_cells(n, J_max, cells)
        for R in (0.3, 1.1):
            assert enlarge(A, R) == brute_enlarge(A, R)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("R", [0.5, 2.0, 3.0])
    def test_matches_brute_force_across_seam(self, n, R):
        # seeds in the first and the last cube of their level, so windows wrap
        # the torus; at R=3 the shallow pairs reach every center
        J_max = 4 if n == 1 else 3
        A = HalfSpaceSet.from_cells(n, J_max, [(J_max, (0,) * n),
                                               (J_max - 1, (2 ** (J_max - 1) - 1,) * n)])
        assert enlarge(A, R) == brute_enlarge(A, R)

    def test_memory_grows_with_grid_not_pairs(self):
        # the full n=2 stack at J_max=5 has 1365 cells, and at R=4 nearly every
        # (center, seed) pair is within reach; the working memory must stay
        # that of a few grids of (2^(J_max+2))^2 points
        enlarge(HalfSpaceSet.from_cells(2, 1, [(0, (0, 0))]), 0.0)  # imports done
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
        A = HalfSpaceSet.from_cells(1, 6, [(3, (4,))])
        delta = cell_diameter_bound(1)
        two = enlarge(enlarge(A, 2.0), 1.5)
        one = enlarge(A, 3.5 - delta)
        assert one.issubset(two)


# ---------------------------------------------------------- set plumbing

@pytest.mark.parametrize("n,J", [(1, 10), (2, 6)])
def test_pool_max_matches_block_reshape(n, J):
    arr = np.random.default_rng(n).standard_normal((2**J,) * n)
    for j in range(J + 1):
        pts = 2 ** (J - j)
        shape = (2**j, pts) * n
        want = arr.reshape(shape).max(axis=tuple(range(1, 2 * n, 2)))
        assert np.array_equal(pool_max(arr, 2**j), want)


class TestHalfSpaceSet:
    def test_threshold_strict(self):
        values = {0: np.array([1.0]), 1: np.array([0.5, 2.0])}
        S = threshold_set(values, 1.0, 1, 1)
        assert (1, (1,)) in S
        assert (0, (0,)) not in S  # ties excluded
        assert S.cell_count == 1

    def test_json_roundtrip(self):
        A = HalfSpaceSet.from_cells(2, 3, [(2, (1, 3)), (0, (0, 0))])
        obj = json.loads(json.dumps(A.as_dict()))
        assert obj == {"n": 2, "J_max": 3, "cells": [[0, 0, 0], [2, 1, 3]]}
        B = HalfSpaceSet.from_cells(obj["n"], obj["J_max"],
                                    [(c[0], tuple(c[1:])) for c in obj["cells"]])
        assert A == B

    def test_csv_dump(self, tmp_path):
        A = HalfSpaceSet.from_cells(1, 3, [(2, (1,)), (3, (5,))])
        path = tmp_path / "cells.csv"
        A.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "level,k1"
        assert sorted(rows[1:]) == ["2,1", "3,5"]

    def test_cell_level_beyond_jmax_rejected(self):
        with pytest.raises(ValueError):
            HalfSpaceSet.from_cells(1, 2, [(3, (0,))])
