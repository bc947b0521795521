"""End-to-end validation suite: one test per numbered criterion.

Each test prints its pass/fail line (run with -s to see them inline).
Criterion 7 is asserted exactly as specified; its collapse clause for smooth
functions under the second-difference and Poisson constructions rests on the
C^2-decay certificate in distance.epsilon_star (their probe fields stay
positive well past the slope-fit window, so the divergence flag alone sees a
full stack at every small threshold).  See "Smooth functions: the C²-decay
certificate" in README.md.
"""

from types import SimpleNamespace

import pytest

from zygdist import acceptance


def _run(number):
    result = acceptance.CRITERIA[number]()
    print()
    print(result.summary())
    return result


def test_criterion_01_carleson_exactness():
    result = _run(1)
    assert result.passed, result.failures


def test_criterion_02_wavelet_correctness():
    result = _run(2)
    assert result.passed, result.failures


def test_criterion_03_poisson_correctness():
    result = _run(3)
    assert result.passed, result.failures


def test_criterion_04_seminorm_comparability():
    result = _run(4)
    assert result.details["band_constant"] <= 50.0
    assert result.passed, result.failures


def test_criterion_05_jbmo_cross_check():
    result = _run(5)
    assert result.details["band_constant"] <= 50.0
    assert result.passed, result.failures


def test_criterion_06_projection_mechanics():
    result = _run(6)
    assert result.passed, result.failures


def test_criterion_07_distance_separation():
    result = _run(7)
    # the rough/smooth separation, the ratio band and the wavelet-method
    # collapse hold through the slope test; the secdiff and Poisson collapse
    # of smooth functions needs the C^2-decay certificate (module docstring)
    assert result.passed, result.failures


def test_criterion_08_dilation_stability():
    result = _run(8)
    assert result.passed, result.failures


def test_criterion_09_inclusion_probes():
    result = _run(9)
    for chain, info in result.details["witnesses"].items():
        assert info["achieved"] is not None, chain
    assert result.passed, result.failures


def test_criterion_10_continuity_checks():
    result = _run(10)
    assert result.passed, result.failures


@pytest.mark.parametrize("took,passed", [(0.999, True), (1.0, False)])
def test_harness_fails_a_run_that_reaches_its_budget(monkeypatch, took, passed):
    # a clock that reads 10 s before the body and 10 s + took after it
    registry = acceptance.CRITERIA
    monkeypatch.setattr(acceptance, "CRITERIA", {})
    readings = iter((10.0, 10.0 + took))
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(readings)))

    @acceptance._criterion(99, "budget-probe", budget=1.0)
    def probe(failures, theta):
        return {"theta": theta}

    assert acceptance.CRITERIA == {99: probe}
    result = probe(0.25)
    assert (result.number, result.name, result.passed) == (99, "budget-probe", passed)
    assert result.details == {"theta": 0.25}
    assert result.seconds == pytest.approx(took)
    assert result.failures == ([] if passed else ["runtime 1.00s >= 1s"])
    assert sorted(registry) == list(range(1, 11))
