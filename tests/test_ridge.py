"""The n=2 pipeline on axis ridges f(x1, x2) = g(x1) and g(x2), against n=1 on g.

A ridge's Poisson extension is g's, and its tensor wavelet coefficients are
g's times the x2 scaling function's mean, so its Poisson and wavelet fields
are n=1's, broadcast along the other axis.  Its threshold sets are then
n=1's broadcast, and a broadcast set's Carleson boxes carry n=1's values:
the box over Q1 x Q2 sums 2^(j - q) copies of each cell under Q1, each of
volume 4^-j, and divides by 4^-q.  So dist(f) on T^2 is dist(g) on T.

The bounds were fixed before the first run: fields to 1e-12 of the field's
largest value, eps0 to 1e-12 relative, Carleson m_values exactly (the masses
are exact integers in units of the cell volume).  A failure is a defect of
an n=2 path.  Second differences (an oblique probe sees a shorter step than
it divides by) and diagonal ridges g(x1 + x2) are out of scope.
"""

import numpy as np
import pytest

from conftest import BOTH_S, carleson
from zygdist import GridFunction, parse_function_spec, synthesize
from zygdist.distance import epsilon_star, method_context
from zygdist.dyadic import HalfSpaceSet

J = 9
J_RANGE = (4, 7)
THETA = 0.1
METHODS = ("poisson", "wavelet")
SPECS = (
    "weierstrass s=1 levels=7 signs=plus",
    "weierstrass s=0.5 levels=7 seed=1 signs=random",
    "lacunary-random s=1 levels=7 seed=2",
    "sum trig k=1 a=1 + trig k=7 a=0.2",
)
FIELD_TOL = 1e-12   # of the n=1 field's largest value
EPS0_TOL = 1e-12    # relative


def ridge(g: GridFunction, axis: int) -> GridFunction:
    """f(x1, x2) = g(x_(axis+1)) on the n=2 grid of g's depth."""
    line = g.samples[:, None] if axis == 0 else g.samples[None, :]
    return GridFunction(2, g.J_grid, np.broadcast_to(line, (g.grid_size,) * 2),
                        label=f"ridge{axis + 1}({g.label})")


def broadcast(table: np.ndarray, axis: int) -> np.ndarray:
    """An n=1 level table as the n=2 table of the ridge along axis."""
    line = table[:, None] if axis == 0 else table[None, :]
    return np.broadcast_to(line, (table.size,) * 2)


@pytest.fixture(scope="module")
def pairs():
    """(n=1 field, n=2 field, axis, s) for every spec, method, axis and s."""
    out = []
    for text in SPECS:
        g = synthesize(parse_function_spec(text), 1, J)
        for m in METHODS:
            flat = method_context(g, BOTH_S, m)
            for axis in (0, 1):
                for s, f1, f2 in zip(BOTH_S, flat, method_context(ridge(g, axis), BOTH_S, m)):
                    out.append((f1, f2, axis, s))
    return out


def test_fields_are_n1_broadcast(pairs):
    for f1, f2, axis, s in pairs:
        assert (f2.method, f2.n, f2.J_max) == (f1.method, 2, f1.J_max)
        assert sorted(f2.values) == sorted(f1.values)
        worst = max(float(np.max(np.abs(f2.values[j] - broadcast(f1.values[j], axis))))
                    for j in f1.values)
        assert worst <= FIELD_TOL * f1.max_value, (f1.method, axis, s, worst / f1.max_value)


def test_eps0_equals_n1(pairs):
    # one lockstep call over the n=1 and n=2 fields together
    fields = tuple(f for f1, f2, _, _ in pairs for f in (f1, f2))
    s = tuple(t for _, _, _, t in pairs for _ in (0, 1))
    estimates = epsilon_star(fields, s, J_RANGE, THETA)
    for (f1, _, axis, t), e1, e2 in zip(pairs, estimates[0::2], estimates[1::2]):
        assert e2.collapsed == e1.collapsed, (f1.method, axis, t)
        assert abs(e2.epsilon_star - e1.epsilon_star) <= EPS0_TOL * e1.epsilon_star, (
            f1.method, axis, t, e1.epsilon_star, e2.epsilon_star)


def test_broadcast_sets_carry_n1_carleson_values(pairs):
    for f1, _, axis, s in pairs:
        flats = tuple(f1.threshold(frac * f1.max_value) for frac in (0.0, 0.05, 0.2, 0.5))
        ridges = tuple(HalfSpaceSet(2, A.J_max, {j: broadcast(A.mask(j), axis)
                                                 for j in range(A.J_max + 1)})
                       for A in flats)
        for J_range in (J_RANGE, (0, J + 2)):
            want = carleson(flats, J_range, THETA)
            got = carleson(ridges, J_range, THETA)
            for (m_w, _, flag_w), (m_r, _, flag_r) in zip(want, got):
                assert np.array_equal(m_r, m_w)
                assert flag_r == flag_w
