import math
import threading

import numpy as np
import pytest

from zygdist import (GridFunction, carleson_sup, divergence, gridfn, parse_function_spec,
                     synthesize)
from zygdist.wavelet import filter_bank

J_TEST = 12
N_TEST = 2**J_TEST

# the two s of the validation suite, built in one pass
BOTH_S = (0.5, 1.0)
# cases of the one-pass builds: n=1 J=12 on the calling thread; n=1 J=17,
# whose coarse Poisson heights sum segments (the four-step transform), on two
# threads; n=2 J=9, whose Poisson heights share their stages between two threads
SEVERAL_S_CASES = [
    (1, 12, "weierstrass s=1 levels=9 signs=random seed=3"),
    (1, 17, "weierstrass s=1 levels=14 signs=plus"),
    (2, 9, "sum weierstrass s=1 levels=6 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
]
# s values that no builder accepts: no value, and values outside (0, 1]
BAD_S = [(), (0.0,), (-0.5,), (1.5,), (math.nan,), (math.inf,), (0.5, 1.0 + 1e-12)]


def is_subset(A, B):
    """Every cell of the HalfSpaceSet A is a cell of B."""
    if A.n != B.n:
        return False
    return all(not A.mask(j).any() if j > B.J_max else not np.any(A.mask(j) & ~B.mask(j))
               for j in range(A.J_max + 1))


def same_bits(a, b) -> bool:
    """a and b hold the same bits: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_fields(a, b) -> bool:
    """Two LevelFields agree in kind, depth and every level's bits."""
    return ((a.method, a.n, a.J_max, sorted(a.values)) == (b.method, b.n, b.J_max, sorted(b.values))
            and all(same_bits(a.values[j], b.values[j]) for j in a.values))


def carleson(sets, J_range, theta=0.1):
    """(M_J, slope, diverging) for each of sets, in order: the set's column
    of carleson_sup and its verdict from divergence."""
    m_values = carleson_sup(sets, J_range)
    return [(column, *verdict)
            for column, verdict in zip(m_values.T, divergence(m_values, J_range, theta))]


def same_carleson(a, b) -> bool:
    """Two (M_J, slope, diverging) triples agree in flag and the bits of
    every value."""
    return a[2] == b[2] and same_bits(a[0], b[0]) and same_bits(a[1], b[1])


def same_reports(a, b) -> bool:
    """Two ContinuityReports agree field by field, ratios included, bitwise."""
    return vars(a).keys() == vars(b).keys() and all(
        same_bits(value, getattr(b, key)) for key, value in vars(a).items())


def spy_deal(monkeypatch, module):
    """Wrap module._deal; returns a list that gets, per share run, whether it
    ran off the calling thread."""
    deal, caller, off_caller = module._deal, threading.get_ident(), []

    def spy(run, items, points):
        def traced(share):
            off_caller.append(threading.get_ident() != caller)
            return run(share)
        return deal(traced, items, points)

    monkeypatch.setattr(module, "_deal", spy)
    return off_caller


@pytest.fixture(params=SEVERAL_S_CASES, ids=lambda case: f"n{case[0]}-J{case[1]}")
def several_s_f(request, monkeypatch):
    """The function of each SEVERAL_S_CASES case, with two CPUs for _deal."""
    monkeypatch.setattr(gridfn, "_CPUS", 2)
    n, Jg, text = request.param
    return synthesize(parse_function_spec(text), n, Jg)


@pytest.fixture(scope="session")
def cos_12():
    x = np.arange(N_TEST) / N_TEST
    return GridFunction(1, J_TEST, np.cos(2 * np.pi * x), label="cos")


@pytest.fixture(scope="session")
def weier1_12():
    return synthesize(parse_function_spec("weierstrass s=1 levels=9 signs=plus"), 1, J_TEST)


@pytest.fixture(scope="session")
def weier05_12():
    return synthesize(parse_function_spec("weierstrass s=0.5 levels=9 signs=plus"), 1, J_TEST)


@pytest.fixture(scope="session")
def atom_12():
    return synthesize(parse_function_spec("wavelet-atom l=1 j=3 k=2"), 1, J_TEST)


@pytest.fixture(scope="session")
def random_12():
    rng = np.random.default_rng(11)
    return GridFunction(1, J_TEST, rng.standard_normal(N_TEST), label="rand")


@pytest.fixture(scope="session")
def bank8():
    return filter_bank(8)


@pytest.fixture(scope="session")
def bank2():
    return filter_bank(2)
