import threading

import numpy as np
import pytest

from zygdist import GridFunction, parse_function_spec, synthesize
from zygdist.wavelet import filter_bank

J_TEST = 12
N_TEST = 2**J_TEST


def is_subset(A, B):
    """Every cell of the HalfSpaceSet A is a cell of B."""
    if A.n != B.n:
        return False
    return all(not A.mask(j).any() if j > B.J_max else not np.any(A.mask(j) & ~B.mask(j))
               for j in range(A.J_max + 1))


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
