import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from zygdist import (GridFunction, bessel_lift, parse_function_spec, sup_norm,
                     synthesize)
import zygdist.poisson as poisson
from zygdist.dyadic import LevelField, carleson_sup
from zygdist.gridfn import _half_freq_sq
from zygdist.poisson import (bmo_norm, d2y_extension, derivative_field,
                             holder_poisson_norm, jbmo_direct_norm,
                             lipschitz_check, poisson_extend)
from zygdist.secdiff import CELL_FRACS
from zygdist.wavelet import analyze, jbmo_wavelet_norm

J = 12
N = 2**J

# Stated tolerance of the half-spectrum path against full complex transforms,
# relative to the level (field) or array (slice) maximum; measured at most
# about 4e-12 at n=1 J=12 and 7e-13 at n=2 J=8.
SPECTRAL_RTOL = 1e-9
ORACLE_CASES = [
    (1, 12, "weierstrass s=1 levels=9 signs=plus"),
    (1, 12, "lacunary-random s=0.5 levels=9 seed=3"),
    # 2^16 points: the field's heights run on two threads
    (1, 16, "weierstrass s=1 levels=13 signs=plus"),
    (2, 8, "sum weierstrass s=1 levels=5 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
]
# Stated tolerance of the even/odd half-length inverses against one full-length
# inverse real transform per height, relative to each level's maximum
HALF_LENGTH_RTOL = 1e-12


def complex_oracle(f, y, d2y):
    """One full complex transform pair per height: ifftn(fftn(f) * mult).real."""
    k = np.fft.fftfreq(f.grid_size, d=1.0 / f.grid_size)
    ksq = k * k if f.n == 1 else (k * k)[:, None] + (k * k)[None, :]
    w = 2.0 * np.pi * np.sqrt(ksq)
    mult = w**2 * np.exp(-w * y) if d2y else np.exp(-w * y)
    return np.fft.ifftn(np.fft.fftn(f.samples) * mult).real


def oracle_field(f, s, J_max):
    values = {}
    for j in range(J_max + 1):
        cells, pts = 2**j, 2 ** (f.J_grid - j)
        level = np.zeros((cells,) * f.n)
        for frac in CELL_FRACS:
            y = frac * 2.0**-j
            g = np.abs(complex_oracle(f, y, d2y=True)) * y ** (2.0 - s)
            shape = (cells, pts) if f.n == 1 else (cells, pts, cells, pts)
            level = np.maximum(level, g.reshape(shape).max(axis=(1,) if f.n == 1 else (1, 3)))
        values[j] = level
    return LevelField("poisson", f.n, J_max, values)


def full_length_field(f, s, J_max):
    """The field from one full-length irfftn per height, pooled by reshaping."""
    axes = tuple(range(f.n))
    w = 2.0 * np.pi * np.sqrt(_half_freq_sq(f.n, f.J_grid))
    spec = np.fft.rfftn(f.samples) * w * w
    values = {}
    for j in range(J_max + 1):
        cells, pts = 2**j, 2 ** (f.J_grid - j)
        shape = (cells, pts) if f.n == 1 else (cells, pts, cells, pts)
        level = np.zeros((cells,) * f.n)
        for frac in CELL_FRACS:
            y = frac * 2.0**-j
            d2 = np.fft.irfftn(spec * np.exp(-w * y), s=f.samples.shape, axes=axes)
            pooled = np.abs(d2).reshape(shape).max(axis=(1,) if f.n == 1 else (1, 3))
            level = np.maximum(level, pooled * y ** (2.0 - s))
        values[j] = level
    return values


def brute_interval_oscillation(samples):
    """Sup of the L2 mean oscillation over every discrete interval."""
    n = samples.size
    s1 = np.concatenate([[0.0], np.cumsum(samples)])
    s2 = np.concatenate([[0.0], np.cumsum(samples**2)])
    best = 0.0
    for width in range(1, n + 1):
        sums = s1[width:] - s1[:-width]
        sqs = s2[width:] - s2[:-width]
        osc = sqs / width - (sums / width) ** 2
        best = max(best, float(osc.max()))
    return math.sqrt(max(best, 0.0))


class TestExtension:
    def test_constant_fixed_at_every_height(self):
        f = GridFunction(1, J, np.full(N, 1.7))
        for y in (0.01, 0.25, 1.0, 3.0):
            u = poisson_extend(f, y)
            assert np.max(np.abs(u.samples - 1.7)) < 1e-12

    def test_single_mode_decay(self, cos_12):
        for y in (0.03, 0.1, 0.5):
            u = poisson_extend(cos_12, y)
            want = math.exp(-2 * math.pi * y) * cos_12.samples
            assert np.max(np.abs(u.samples - want)) < 1e-12

    def test_boundary_refinement(self):
        # u(., 2^-J) approaches f as the grid refines
        spec = parse_function_spec("weierstrass s=1 levels=6 signs=plus")
        errs = []
        for Jg in (8, 10, 12):
            f = synthesize(spec, 1, Jg)
            u = poisson_extend(f, 2.0**-Jg)
            errs.append(float(np.max(np.abs(u.samples - f.samples))))
        assert errs[0] > errs[1] > errs[2]

    def test_max_principle_on_corpus_heights(self, weier1_12, cos_12):
        for f in (weier1_12, cos_12):
            sup = sup_norm(f)
            for j in range(J - 1):
                for frac in CELL_FRACS:
                    u = poisson_extend(f, frac * 2.0**-j)
                    assert np.max(np.abs(u.samples)) <= sup * (1 + 1e-12)

    def test_semigroup(self, weier1_12):
        one = poisson_extend(weier1_12, 0.12)
        two = poisson_extend(poisson_extend(weier1_12, 0.07), 0.05)
        assert np.max(np.abs(one.samples - two.samples)) / sup_norm(weier1_12) < 1e-10

    def test_height_must_be_positive(self, cos_12):
        with pytest.raises(ValueError):
            poisson_extend(cos_12, 0.0)


class TestD2y:
    def test_constant_vanishes(self):
        f = GridFunction(1, J, np.full(N, 5.0))
        assert np.max(np.abs(d2y_extension(f, 0.3).samples)) == 0.0

    def test_single_mode_closed_form(self, cos_12):
        y = 0.2
        got = d2y_extension(cos_12, y)
        want = (2 * math.pi) ** 2 * math.exp(-2 * math.pi * y) * cos_12.samples
        assert np.max(np.abs(got.samples - want)) / np.max(np.abs(want)) < 1e-12

    def test_finite_difference_oracle(self):
        x = np.arange(N) / N
        poly = sum(np.cos(2 * np.pi * k * x) / k for k in range(1, 6))
        f = GridFunction(1, J, poly, label="poly5")
        y = 0.1
        h = y / 100.0

        def fd(step):
            up = poisson_extend(f, y + step).samples
            mid = poisson_extend(f, y).samples
            dn = poisson_extend(f, y - step).samples
            return (up - 2 * mid + dn) / step**2

        richardson = (4.0 * fd(h / 2) - fd(h)) / 3.0
        exact = d2y_extension(f, y).samples
        rel = np.max(np.abs(richardson - exact)) / np.max(np.abs(exact))
        assert rel < 1e-6

    def test_sup_nonincreasing_in_y(self, weier1_12):
        heights = sorted({frac * 2.0**-j for j in range(J - 1) for frac in CELL_FRACS})
        sups = [np.max(np.abs(d2y_extension(weier1_12, y).samples)) for y in heights]

        for shallow, deep in zip(sups, sups[1:]):
            assert deep <= shallow * (1 + 1e-12)


class TestHalfSpectrumTolerance:
    @pytest.mark.parametrize("n,Jg,text", ORACLE_CASES)
    def test_slices_match_complex_oracle(self, n, Jg, text):
        f = synthesize(parse_function_spec(text), n, Jg)
        for y in (2.0**-Jg, 0.01, 0.3, 1.0):
            for got, d2y in ((poisson_extend(f, y), False), (d2y_extension(f, y), True)):
                want = complex_oracle(f, y, d2y)
                assert np.max(np.abs(got.samples - want)) <= SPECTRAL_RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize("n,Jg,text", ORACLE_CASES)
    def test_field_and_sets_match_complex_oracle(self, n, Jg, text):
        f = synthesize(parse_function_spec(text), n, Jg)
        field = derivative_field(f, 1.0, Jg - 2)
        want = oracle_field(f, 1.0, Jg - 2)
        for j, level in want.values.items():
            assert np.max(np.abs(field.values[j] - level)) <= SPECTRAL_RTOL * level.max()
        for c in (0.1, 0.5):
            eps = c * field.max_value
            assert field.threshold(eps) == want.threshold(eps)


class TestHalfLengthTransforms:
    @pytest.mark.parametrize("n,Jg,text", [
        (1, 16, "weierstrass s=1 levels=13 signs=plus"),
        (2, 9, "sum weierstrass s=1 levels=6 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
    ])
    def test_levels_match_full_length_inverse(self, n, Jg, text):
        f = synthesize(parse_function_spec(text), n, Jg)
        field = derivative_field(f, 1.0, Jg - 2)
        for j, level in full_length_field(f, 1.0, Jg - 2).items():
            assert np.max(np.abs(field.values[j] - level)) <= HALF_LENGTH_RTOL * level.max()

    @pytest.mark.parametrize("n,Jg", [(1, 10), (2, 6)])
    def test_one_column_cells(self, n, Jg):
        # levels J_grid - 1 and J_grid: cells two and one columns wide
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4 signs=plus"), n, Jg)
        field = derivative_field(f, 1.0, Jg)
        for j, level in full_length_field(f, 1.0, Jg).items():
            assert np.max(np.abs(field.values[j] - level)) <= HALF_LENGTH_RTOL * level.max()

    @pytest.mark.parametrize("n,Jg", [(1, 12), (2, 7)])
    def test_threads_do_not_change_the_numbers(self, n, Jg, monkeypatch):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=5 signs=random seed=4"), n, Jg)
        caller, off_caller = threading.get_ident(), []
        pool_max = poisson.pool_max

        def spy(arr, cells):
            off_caller.append(threading.get_ident() != caller)
            return pool_max(arr, cells)

        monkeypatch.setattr(poisson, "pool_max", spy)
        monkeypatch.setattr(poisson, "_CPUS", 2)
        runs = []
        for min_points in (2**62, 0):  # serial, then threaded
            monkeypatch.setattr(poisson, "_THREAD_MIN_POINTS", min_points)
            runs.append((derivative_field(f, 1.0, Jg - 2),
                         lipschitz_check(f, 1.0, 2000, seed=5),
                         poisson_extend(f, 0.01)))
            assert any(off_caller) == (min_points == 0)
            off_caller.clear()
        (field_a, lip_a, ext_a), (field_b, lip_b, ext_b) = runs
        for j in field_a.values:
            assert np.array_equal(field_a.values[j], field_b.values[j])
        assert np.array_equal(lip_a.ratios, lip_b.ratios)
        assert np.array_equal(ext_a.samples, ext_b.samples)

    def test_level_updates_survive_thread_switches(self, monkeypatch):
        # both threads pool into the same levels; a lost update changes a maximum
        f = synthesize(parse_function_spec("weierstrass s=1 levels=12 signs=random seed=6"), 1, 14)
        monkeypatch.setattr(poisson, "_CPUS", 2)
        monkeypatch.setattr(poisson, "_THREAD_MIN_POINTS", 2**62)
        serial = derivative_field(f, 1.0, 14)
        monkeypatch.setattr(poisson, "_THREAD_MIN_POINTS", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                threaded = derivative_field(f, 1.0, 14)
                for j, level in serial.values.items():
                    assert np.array_equal(threaded.values[j], level)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_caller(self, monkeypatch):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=6"), 1, 10)
        caller = threading.get_ident()
        pool_max = poisson.pool_max

        def fail_off_caller(arr, cells):
            if threading.get_ident() != caller:
                raise RuntimeError("worker failed")
            return pool_max(arr, cells)

        monkeypatch.setattr(poisson, "pool_max", fail_off_caller)
        monkeypatch.setattr(poisson, "_CPUS", 2)
        monkeypatch.setattr(poisson, "_THREAD_MIN_POINTS", 0)
        with pytest.raises(RuntimeError, match="worker failed"):
            derivative_field(f, 1.0, 8)


class TestPoissonNorm:
    def test_constant(self):
        f = GridFunction(1, J, np.full(N, 2.0))
        assert abs(holder_poisson_norm(f, 1.0) - 2.0) < 1e-12

    def test_homogeneous(self, weier05_12):
        a = holder_poisson_norm(weier05_12, 0.5)
        b = holder_poisson_norm(weier05_12.scaled(4.0), 0.5)
        assert abs(b - 4.0 * a) < 1e-10 * a


class TestBuildD:
    """The Poisson sets D(s, f, eps) = derivative_field(...).threshold(eps)."""

    def test_constant_empty_for_positive_eps(self):
        f = GridFunction(1, J, np.full(N, 2.0))
        field = derivative_field(f, 1.0, J - 2)
        for eps in (0.0, 0.01, 1.0):
            assert field.threshold(eps).is_empty()

    def test_empty_above_field_max(self, weier1_12):
        field = derivative_field(weier1_12, 1.0, J - 2)
        assert field.threshold(field.max_value).is_empty()

    def test_monotone_in_eps(self, weier1_12):
        field = derivative_field(weier1_12, 1.0, J - 2)
        d1 = field.threshold(0.2 * field.max_value)
        d2 = field.threshold(0.6 * field.max_value)
        assert d2.issubset(d1)

    def test_weierstrass_moderate_eps_diverges(self, weier1_12):
        field = derivative_field(weier1_12, 1.0, J - 2)
        D = field.threshold(0.2 * field.max_value)
        assert carleson_sup(D, (4, J - 2), 0.1).diverging

    def test_scaling_covariance(self, weier1_12):
        lam, eps = 4.0, 2.5
        D1 = derivative_field(weier1_12, 1.0, J - 2).threshold(eps)
        D2 = derivative_field(weier1_12.scaled(lam), 1.0, J - 2).threshold(lam * eps)
        assert D1 == D2


class TestLipschitzCheck:
    def test_constant_ratio_zero(self):
        f = GridFunction(1, J, np.full(N, 3.0))
        rep = lipschitz_check(f, 1.0, 500, seed=0)
        assert rep.max_ratio == 0.0

    def test_zero_function_degenerate(self):
        f = GridFunction(1, J, np.zeros(N))
        with pytest.raises(ValueError):
            lipschitz_check(f, 1.0, 100, seed=0)

    def test_cos_bounded(self, cos_12):
        rep = lipschitz_check(cos_12, 1.0, 10_000, seed=1)
        assert 0.0 < rep.max_ratio < 50.0
        assert rep.pairs_used > 9000

    def test_doubling_stability(self, weier1_12):
        r1 = lipschitz_check(weier1_12, 1.0, 10_000, seed=42)
        r2 = lipschitz_check(weier1_12, 1.0, 20_000, seed=42)
        assert r2.max_ratio >= r1.max_ratio
        assert (r2.max_ratio - r1.max_ratio) <= 0.20 * r1.max_ratio

    @pytest.mark.parametrize("n,Jg", [(1, J), (2, 7)])
    def test_ratio_prefix_is_smaller_run(self, n, Jg):
        # same-seed draws are prefixes: one call serves both sample counts
        f = synthesize(parse_function_spec("weierstrass s=1 levels=5"), n, Jg)
        big = lipschitz_check(f, 1.0, 3000, seed=42)
        small = lipschitz_check(f, 1.0, 1200, seed=42)
        assert float(big.ratios[:1200].max()) == small.max_ratio
        assert float(big.ratios.max()) == big.max_ratio

    @pytest.mark.parametrize("n,Jg,levels,max_ratio,ratio_sum", [
        (1, J, 9, 0.5807698952512016, 506.914795405008),
        (2, 7, 5, 0.5945834914129349, 368.0531144630453),
    ])
    def test_ratios_pinned(self, n, Jg, levels, max_ratio, ratio_sum):
        # measured with one full-length inverse per height; reading a neighbor
        # column's value instead moves max_ratio by tens of percent
        f = synthesize(parse_function_spec(f"weierstrass s=1 levels={levels} signs=plus"), n, Jg)
        rep = lipschitz_check(f, 1.0, 3000, seed=42)
        assert rep.max_ratio == pytest.approx(max_ratio, rel=1e-9)
        assert float(rep.ratios.sum()) == pytest.approx(ratio_sum, rel=1e-9)

    def test_n2_bounded(self):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), 2, 8)
        rep = lipschitz_check(f, 1.0, 3000, seed=2)
        assert 0.0 < rep.max_ratio < 50.0

    def test_memory_independent_of_height_count(self):
        # 7 levels x 8 heights of 256^2 slices held at once would take 28 MiB
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), 2, 8)
        tracemalloc.start()
        try:
            lipschitz_check(f, 1.0, 3000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestBmo:
    def test_constant(self):
        f = GridFunction(1, J, np.full(N, 4.0))
        assert abs(bmo_norm(f, J) - 4.0) < 1e-12

    def test_symmetric_step(self):
        x = np.arange(N) / N
        f = GridFunction(1, J, np.where(x < 0.5, 1.0, -1.0))
        assert abs(bmo_norm(f, J) - 2.0) < 1e-12

    def test_dyadic_vs_all_intervals_on_log_function(self):
        f = synthesize(parse_function_spec("xlogx"), 1, J)
        lifted = bessel_lift(f, -1.0)
        # dyadic oscillation part of the norm
        dyadic_osc = bmo_norm(lifted, J) - math.sqrt(float((lifted.samples**2).mean()))
        brute = brute_interval_oscillation(lifted.samples)
        assert dyadic_osc <= brute * (1 + 1e-12)
        assert dyadic_osc >= 0.7 * brute

    def test_jmax_guard(self, cos_12):
        with pytest.raises(ValueError):
            bmo_norm(cos_12, J + 1)


class TestJbmoDirect:
    def test_constant(self):
        f = GridFunction(1, J, np.full(N, 2.0))
        assert abs(jbmo_direct_norm(f, 1.0, J) - 2.0) < 1e-10

    def test_homogeneous(self, weier1_12):
        a = jbmo_direct_norm(weier1_12, 1.0, J)
        b = jbmo_direct_norm(weier1_12.scaled(4.0), 1.0, J)
        assert abs(b - 4.0 * a) < 1e-9 * a

    def test_atom_band_against_wavelet_norm(self, atom_12, bank8):
        for s in (0.5, 1.0):
            direct = jbmo_direct_norm(atom_12, s, J)
            coeff = jbmo_wavelet_norm(analyze(atom_12, bank8), s)
            ratio = direct / coeff
            assert 1 / 50 < ratio < 50
