import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (BAD_S, BOTH_S, carleson, is_subset, same_bits, same_fields,
                      same_reports, spy_deal)
from zygdist import (GridFunction, bessel_lift, parse_function_spec, sup_norm,
                     synthesize)
import zygdist.gridfn as gridfn
import zygdist.poisson as poisson
from zygdist.dyadic import LevelField, pool
from zygdist.gridfn import J_GRID_MIN, _half_freq_sq
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
    # energy at k = N/4, the first column past the fine twiddle table of 2^12 entries
    (1, 14, "sum weierstrass s=1 levels=11 signs=plus + trig k=4096 a=0.5"),
    (2, 8, "sum weierstrass s=1 levels=5 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
]
# Stated tolerance of the L interleaved inverses of length M = N / L <= 2^14
# per height (L segments of the spectrum summed where the decay is nonzero
# beyond M/2 last-axis entries) against one full-length inverse real transform
# per height, relative to each level's maximum; measured at most 6e-16 at n=1
# J=20 and 4e-16 at J=17
HALF_LENGTH_RTOL = 1e-12
# tracemalloc peak of derivative_field at n=1 J_grid=20 J_max=18 on two
# threads: the half spectrum (8 MiB), whose segments every height reads in
# place, each thread's spectrum buffer (8 MiB) and eighth-grid scratch, and
# the levels: 31.33-31.38 MiB, against 39.15-39.27 MiB when the segments were
# copied into a table (8 MiB) beside it
LIMIT_FIELD_PEAK_MIB = 31.38
LIMIT_FIELD_PEAK_SLACK_MIB = 0.25
# the same for both s of BOTH_S in one pass: one more table set of levels
# 0..18 (4 MiB) and the scaled copies of pooled blocks, 35.47-35.59 MiB,
# where one s took 31.33-31.38 MiB in the same processes
LIMIT_FIELD_BOTH_S_PEAK_MIB = 35.59
# the same at n=2 J_grid=10 J_max=8: the half spectrum and the decay table of
# its rows k1 >= 0 (1.25 grids), one spectrum buffer and a quarter-grid
# scratch that holds the decays of each height and then its inverse blocks,
# an eighth of the grid per thread, each pooled in place: 21.23-21.36 MiB on
# two threads and 21.10 MiB on one, against 31.25-31.51 MiB when each thread
# held a spectrum buffer and a scratch
N2_FIELD_PEAK_MIB = 21.36
N2_FIELD_PEAK_SLACK_MIB = 0.5
# tracemalloc peak of bmo_norm at n=2 J_grid=10, in grids of samples: the
# squares plus the first pooling of the sums and of the squares, 16.13 MiB
# (2.016 grids) at J_max = J_grid and J_grid - 3; the full-array body took 6
BMO_PEAK_GRIDS = 2.0
BMO_PEAK_SLACK_MIB = 0.25


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


def full_array_bmo(f, J_max):
    """bmo_norm with a full-size copy of the sums and the squares and every
    level's temporaries: the bitwise oracle of the in-place body."""
    best = 0.0
    sums = f.samples.astype(float)
    sqs = f.samples.astype(float) ** 2
    count = 1
    for j in range(f.J_grid, -1, -1):
        if j <= J_max:
            mean = sums / count
            meansq = sqs / count
            osc_sq = np.maximum(meansq - mean**2, 0.0)
            best = max(best, float(osc_sq.max()))
        if j > 0:
            sums = pool(sums, np.add, 2 ** (j - 1))
            sqs = pool(sqs, np.add, 2 ** (j - 1))
            count *= 2**f.n
    l2 = math.sqrt(float((f.samples**2).mean()))
    return math.sqrt(best) + l2


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

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_height_must_be_finite(self, cos_12, y):
        for extension in (poisson_extend, d2y_extension):
            with pytest.raises(ValueError, match="height must be finite and > 0"):
                extension(cos_12, y)


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
        field = derivative_field(f, (1.0,), Jg - 2)[0]
        want = oracle_field(f, 1.0, Jg - 2)
        for j, level in want.values.items():
            assert np.max(np.abs(field.values[j] - level)) <= SPECTRAL_RTOL * level.max()
        for c in (0.1, 0.5):
            eps = c * field.max_value
            assert field.threshold(eps) == want.threshold(eps)


class TestHalfLengthTransforms:
    @pytest.mark.parametrize("n,Jg,text", [
        # 2^15 points: the segment heights sum L = 2 segments of 2^14 entries
        (1, 15, "weierstrass s=1 levels=12 signs=plus"),
        (1, 16, "weierstrass s=1 levels=13 signs=plus"),
        (2, 9, "sum weierstrass s=1 levels=6 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
        # the benchmark's grid: heights of one full-length inverse in row blocks
        (2, 10, "sum weierstrass s=1 levels=8 signs=plus + wavelet-atom l=3 j=4 k=5,9"),
    ])
    def test_levels_match_full_length_inverse(self, n, Jg, text):
        f = synthesize(parse_function_spec(text), n, Jg)
        field = derivative_field(f, (1.0,), Jg - 2)[0]
        for j, level in full_length_field(f, 1.0, Jg - 2).items():
            assert np.max(np.abs(field.values[j] - level)) <= HALF_LENGTH_RTOL * level.max()

    @pytest.mark.parametrize("n,Jg", [(1, 10), (2, 6), (1, J_GRID_MIN), (2, J_GRID_MIN)])
    def test_one_column_cells(self, n, Jg):
        # levels J_grid - 1 and J_grid: cells two and one columns wide
        levels = min(4, Jg - 2)  # J_GRID_MIN resolves 2 levels
        f = synthesize(parse_function_spec(f"weierstrass s=1 levels={levels} signs=plus"), n, Jg)
        field = derivative_field(f, (1.0,), Jg)[0]
        for j, level in full_length_field(f, 1.0, Jg).items():
            assert np.max(np.abs(field.values[j] - level)) <= HALF_LENGTH_RTOL * level.max()

    # n=1 J=16: the heights of levels 0-5 split into L >= 2 phases; n=1 J=17:
    # segment heights of L = 8; n=2 J=9: level-0 heights of L = 2.  At n=1
    # the heights are dealt whole; at n=2 J=7 a height is one inverse block,
    # so only its seeding and column stages are shared
    @pytest.mark.parametrize("n,Jg", [(1, 12), (1, 16), (1, 17), (2, 7), (2, 9)])
    def test_threads_do_not_change_the_numbers(self, n, Jg, monkeypatch):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=5 signs=random seed=4"), n, Jg)
        off_caller = spy_deal(monkeypatch, poisson)
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        runs = []
        for min_points in (2**62, 0):  # serial, then threaded
            monkeypatch.setattr(gridfn, "_THREAD_MIN_POINTS", min_points)
            runs.append((derivative_field(f, (1.0,), Jg - 2)[0],
                         lipschitz_check(f, (1.0,), 2000, seed=5)[0],
                         poisson_extend(f, 0.01)))
            assert any(off_caller) == (min_points == 0)
            off_caller.clear()
        (field_a, lip_a, ext_a), (field_b, lip_b, ext_b) = runs
        for j in field_a.values:
            assert np.array_equal(field_a.values[j], field_b.values[j])
        assert np.array_equal(lip_a.ratios, lip_b.ratios)
        assert np.array_equal(ext_a.samples, ext_b.samples)

    def test_level_updates_survive_thread_switches(self, monkeypatch):
        # both threads pool into the same levels, one table set per s; a lost
        # update changes a maximum.  At n=1 each thread runs whole heights
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # both split coarse heights into L >= 4 phases
            for Jg, repeats in ((15, 6), (16, 3)):
                f = synthesize(parse_function_spec("weierstrass s=1 levels=12 signs=random seed=6"), 1, Jg)
                probes = [frac * 2.0**-j for j in range(Jg + 1) for frac in CELL_FRACS]
                assert any(L >= 4 for _, L in poisson._phase_plan(2**Jg, probes))
                monkeypatch.setattr(gridfn, "_THREAD_MIN_POINTS", 2**62)
                serial = derivative_field(f, BOTH_S, Jg)
                monkeypatch.setattr(gridfn, "_THREAD_MIN_POINTS", 0)
                for _ in range(repeats):
                    threaded = derivative_field(f, BOTH_S, Jg)
                    for want, got in zip(serial, threaded):
                        for j, level in want.values.items():
                            assert np.array_equal(got.values[j], level)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_caller(self, monkeypatch):
        # two inverse blocks per height, one pooled on the worker
        f = synthesize(parse_function_spec("weierstrass s=1 levels=5"), 2, 7)
        caller = threading.get_ident()
        pool = poisson.pool

        def fail_off_caller(arr, op, cells):
            if threading.get_ident() != caller:
                raise RuntimeError("worker failed")
            return pool(arr, op, cells)

        monkeypatch.setattr(poisson, "pool", fail_off_caller)
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        monkeypatch.setattr(gridfn, "_THREAD_MIN_POINTS", 0)
        with pytest.raises(RuntimeError, match="worker failed"):
            derivative_field(f, (1.0,), 5)


@pytest.fixture(scope="module")
def limit_field():
    """The field of the n=1 grid limit (J_grid=20, J_max=18) and its tracemalloc peak."""
    f = synthesize(parse_function_spec("weierstrass s=1 levels=16 signs=plus"), 1, 20)
    tracemalloc.start()
    try:
        field = derivative_field(f, (1.0,), 18)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return f, field, peak


@pytest.fixture(scope="module")
def limit_fields_both_s(limit_field):
    """Both s of BOTH_S at the n=1 grid limit from one pass, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        fields = derivative_field(limit_field[0], BOTH_S, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return fields, peak


class TestPhaseSplit:
    """Heights are inverted as L = N / M interleaved phases of length
    M <= max(N, 2^14): one segment of the spectrum where the decay is exactly
    zero beyond K <= M/2 last-axis entries, one full-length inverse (L = 1)
    otherwise on grids of at most 2^14 points per axis, and L segments
    summed on larger ones."""

    @pytest.mark.parametrize("n,Jg,one,wide", [
        (1, 12, 17, 9), (1, 17, 25, 64), (1, 20, 25, 76), (2, 10, 9, 1), (2, 11, 13, 5),
    ])
    def test_only_exact_zeros_are_cut(self, n, Jg, one, wide):
        # one: heights with K <= M/2; wide: those with L >= 4
        N = 2**Jg
        top = min(N, 2**14)
        w = 2.0 * np.pi * np.sqrt(_half_freq_sq(n, Jg))
        probes = [frac * 2.0**-j for j in range(Jg - 1) for frac in CELL_FRACS]
        plan = poisson._phase_plan(N, probes)
        for y, (K, L) in zip(probes, plan):
            nonzero = np.exp(-w * y) != 0
            columns = np.flatnonzero(nonzero.reshape(-1, N // 2 + 1).any(axis=0))
            assert np.array_equal(columns, np.arange(K))
            M = N // L
            assert L * M == N and M <= 2**14
            M_K = 2 << (K - 1).bit_length()  # the smallest power of two with M/2 >= K
            assert (K <= M // 2) == (M_K <= top)
            assert M == min(M_K, top)
            if N <= 2**14:  # the whole half spectrum in one inverse once K > N/4
                assert (L == 1) == (K > N // 4)
        assert sum(K <= N // L // 2 for K, L in plan) == one
        assert sum(L >= 4 for _, L in plan) == wide

    def test_limit_grid_matches_full_length_inverse(self, limit_field):
        f, field, _ = limit_field
        want = full_length_field(f, 1.0, 18)
        for j, level in want.items():
            assert np.max(np.abs(field.values[j] - level)) <= HALF_LENGTH_RTOL * level.max()
        oracle = LevelField("poisson", 1, 18, want)
        for c in (0.1, 0.5):
            eps = c * field.max_value
            assert field.threshold(eps) == oracle.threshold(eps)

    def test_narrow_cells_match_full_length_inverse(self):
        # N = 2^17: the segment heights take L = 8 phases, so a level-15 cell
        # of 4 columns holds half the phases of a block
        f = synthesize(parse_function_spec("weierstrass s=1 levels=14 signs=plus"), 1, 17)
        probes = [frac * 2.0**-j for j in range(16) for frac in CELL_FRACS]
        assert {L for K, L in poisson._phase_plan(2**17, probes) if K > 2**13} == {8}
        field = derivative_field(f, (1.0,), 15)[0]
        want = full_length_field(f, 1.0, 15)
        for j, level in want.items():
            assert np.max(np.abs(field.values[j] - level)) <= HALF_LENGTH_RTOL * level.max()
        oracle = LevelField("poisson", 1, 15, want)
        for c in (0.1, 0.5):
            eps = c * field.max_value
            assert field.threshold(eps) == oracle.threshold(eps)

    @pytest.mark.parametrize("y", [2.0, 4.0])
    def test_coarse_twiddles_match_closed_form(self, y, monkeypatch):
        # N = 2^20 and y >= 2 keep K <= 64 entries, so L >= 2^13 phases, and
        # the stage twiddles of steps >= 2^12 read the coarse table alone.
        # d2y, not u: u's undamped k = 0 mode carries the mean's roundoff,
        # which at y = 4 is not small against the e^(-8 pi) amplitude
        coarse, stage = [], poisson._stage_twiddle

        def spy(step, K, fine, shifts, out):
            coarse.append(step >= fine.size)
            return stage(step, K, fine, shifts, out)

        monkeypatch.setattr(poisson, "_stage_twiddle", spy)
        x = np.arange(2**20) / 2**20
        f = GridFunction(1, 20, np.cos(2 * np.pi * 3 * x) + 0.5 * np.sin(2 * np.pi * x))
        want = ((6 * np.pi) ** 2 * np.exp(-6 * np.pi * y) * np.cos(6 * np.pi * x)
                + 0.5 * (2 * np.pi) ** 2 * np.exp(-2 * np.pi * y) * np.sin(2 * np.pi * x))
        got = d2y_extension(f, y).samples
        assert any(coarse)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_limit_grid_memory(self, limit_field):
        # every height's arrays live in the two buffers each thread allocates once
        assert limit_field[2] <= (LIMIT_FIELD_PEAK_MIB + LIMIT_FIELD_PEAK_SLACK_MIB) * 2**20

    @staticmethod
    def n2_field_peak(monkeypatch, cpus):
        monkeypatch.setattr(gridfn, "_CPUS", cpus)
        spec = "sum weierstrass s=1 levels=8 signs=plus + wavelet-atom l=3 j=4 k=5,9"
        f = synthesize(parse_function_spec(spec), 2, 10)
        tracemalloc.start()
        try:
            derivative_field(f, (1.0,), 8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_n2_grid_memory(self, monkeypatch):
        peak = self.n2_field_peak(monkeypatch, 2)
        assert peak <= (N2_FIELD_PEAK_MIB + N2_FIELD_PEAK_SLACK_MIB) * 2**20

    def test_second_thread_holds_no_buffer(self, monkeypatch):
        # both threads share the one spectrum buffer and scratch, so the second
        # thread adds only what numpy allocates within a call
        one, two = (self.n2_field_peak(monkeypatch, cpus) for cpus in (1, 2))
        assert abs(two - one) <= N2_FIELD_PEAK_SLACK_MIB * 2**20

    @pytest.mark.parametrize("n,Jg", [(1, 12), (2, 7), (1, J_GRID_MIN), (2, J_GRID_MIN)])
    @pytest.mark.parametrize("y,kept,M", [(1e3, 1, 2), (3.0, 40, 128)])
    def test_edge_heights_match_complex_oracle(self, n, Jg, y, kept, M):
        # y = 1e3 keeps only k = 0, y = 3 keeps k = 0..39: phases of length M,
        # or one full-length inverse where N <= M
        N = 2**Jg
        g = synthesize(parse_function_spec("weierstrass s=1 levels=2 signs=random seed=2"), n, Jg)
        f = GridFunction(n, Jg, g.samples + 1.5)  # a mean for u at y = 1e3
        [plan] = poisson._phase_plan(N, [y])
        assert plan == (min(kept, N // 2 + 1), N // min(M, N))
        for got, d2y in ((poisson_extend(f, y), False), (d2y_extension(f, y), True)):
            want = complex_oracle(f, y, d2y)
            assert np.max(np.abs(got.samples - want)) <= SPECTRAL_RTOL * np.max(np.abs(want))


class TestPoissonNorm:
    def test_constant(self):
        f = GridFunction(1, J, np.full(N, 2.0))
        assert abs(holder_poisson_norm(f, (1.0,))[0] - 2.0) < 1e-12

    def test_homogeneous(self, weier05_12):
        a = holder_poisson_norm(weier05_12, (0.5,))[0]
        b = holder_poisson_norm(weier05_12.scaled(4.0), (0.5,))[0]
        assert abs(b - 4.0 * a) < 1e-10 * a


class TestBuildD:
    """The Poisson sets D(s, f, eps) = derivative_field(...).threshold(eps)."""

    @pytest.mark.parametrize("J_max", [J + 1, -1, -3])
    def test_jmax_guard(self, cos_12, J_max):
        # a negative J_max once gave an empty field
        with pytest.raises(ValueError, match=r"outside \[0, 12\]"):
            derivative_field(cos_12, (1.0,), J_max)

    def test_constant_empty_for_positive_eps(self):
        f = GridFunction(1, J, np.full(N, 2.0))
        field = derivative_field(f, (1.0,), J - 2)[0]
        for eps in (0.0, 0.01, 1.0):
            assert field.threshold(eps).cell_count == 0

    def test_empty_above_field_max(self, weier1_12):
        field = derivative_field(weier1_12, (1.0,), J - 2)[0]
        assert field.threshold(field.max_value).cell_count == 0

    def test_monotone_in_eps(self, weier1_12):
        field = derivative_field(weier1_12, (1.0,), J - 2)[0]
        d1 = field.threshold(0.2 * field.max_value)
        d2 = field.threshold(0.6 * field.max_value)
        assert is_subset(d2, d1)

    def test_weierstrass_moderate_eps_diverges(self, weier1_12):
        field = derivative_field(weier1_12, (1.0,), J - 2)[0]
        D = field.threshold(0.2 * field.max_value)
        [(_, _, diverging)] = carleson((D,), (4, J - 2))
        assert diverging

    def test_scaling_covariance(self, weier1_12):
        lam, eps = 4.0, 2.5
        D1 = derivative_field(weier1_12, (1.0,), J - 2)[0].threshold(eps)
        D2 = derivative_field(weier1_12.scaled(lam), (1.0,), J - 2)[0].threshold(lam * eps)
        assert D1 == D2


class TestLipschitzCheck:
    def test_constant_ratio_zero(self):
        f = GridFunction(1, J, np.full(N, 3.0))
        rep = lipschitz_check(f, (1.0,), 500, seed=0)[0]
        assert rep.max_ratio == 0.0

    def test_zero_function_degenerate(self):
        f = GridFunction(1, J, np.zeros(N))
        with pytest.raises(ValueError):
            lipschitz_check(f, (1.0,), 100, seed=0)

    def test_cos_bounded(self, cos_12):
        rep = lipschitz_check(cos_12, (1.0,), 10_000, seed=1)[0]
        assert 0.0 < rep.max_ratio < 50.0
        assert rep.pairs_used > 9000

    def test_doubling_stability(self, weier1_12):
        r1 = lipschitz_check(weier1_12, (1.0,), 10_000, seed=42)[0]
        r2 = lipschitz_check(weier1_12, (1.0,), 20_000, seed=42)[0]
        assert r2.max_ratio >= r1.max_ratio
        assert (r2.max_ratio - r1.max_ratio) <= 0.20 * r1.max_ratio

    @pytest.mark.parametrize("n,Jg", [(1, J), (2, 7)])
    def test_ratio_prefix_is_smaller_run(self, n, Jg):
        # same-seed draws are prefixes: one call serves both sample counts
        f = synthesize(parse_function_spec("weierstrass s=1 levels=5"), n, Jg)
        big = lipschitz_check(f, (1.0,), 3000, seed=42)[0]
        small = lipschitz_check(f, (1.0,), 1200, seed=42)[0]
        assert float(big.ratios[:1200].max()) == small.max_ratio
        assert float(big.ratios.max()) == big.max_ratio

    @pytest.mark.parametrize("n,Jg,levels,max_ratio,ratio_sum", [
        (1, J, 9, 0.5807698952512016, 506.914795405008),
        (2, 7, 5, 0.5945834914129349, 368.0531144630453),
        # heights of 4 segments; measured when they folded to two inverses of N/2
        (1, 16, 13, 0.6326618135714732, 526.2393981103787),
        # heights of 64-row blocks on two threads, and segment heights of B < L phases
        (2, 9, 7, 0.5770444370969062, 374.00028734902577),
        (1, 17, 14, 0.6224270461843233, 530.4448301461262),
    ])
    def test_ratios_pinned(self, n, Jg, levels, max_ratio, ratio_sum):
        # the first two measured with one full-length inverse per height; reading
        # a neighbor column's value instead moves max_ratio by tens of percent
        f = synthesize(parse_function_spec(f"weierstrass s=1 levels={levels} signs=plus"), n, Jg)
        rep = lipschitz_check(f, (1.0,), 3000, seed=42)[0]
        assert rep.max_ratio == pytest.approx(max_ratio, rel=1e-9)
        assert float(rep.ratios.sum()) == pytest.approx(ratio_sum, rel=1e-9)

    def test_n2_bounded(self):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), 2, 8)
        rep = lipschitz_check(f, (1.0,), 3000, seed=2)[0]
        assert 0.0 < rep.max_ratio < 50.0

    def test_negative_sample_count_rejected(self, cos_12, monkeypatch):
        # before the pass that gives the norm: numpy's own error came only after it
        def fail(*args, **kwargs):
            raise AssertionError("the norm was computed")

        monkeypatch.setattr(poisson, "_extension_blocks", fail)
        with pytest.raises(ValueError, match="sample_count=-1 must be >= 0"):
            lipschitz_check(cos_12, (1.0,), -1, seed=0)

    @pytest.mark.parametrize("n,Jg", [(1, 8), (2, 6)])
    def test_zero_samples_empty_report(self, n, Jg):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), n, Jg)
        rep = lipschitz_check(f, (1.0,), 0, seed=3)[0]
        assert (rep.max_ratio, rep.pairs_used, rep.sample_count) == (0.0, 0, 0)
        assert rep.ratios.shape == (0,)

    def test_memory_independent_of_height_count(self):
        # 7 levels x 8 heights of 256^2 slices held at once would take 28 MiB
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), 2, 8)
        tracemalloc.start()
        try:
            lipschitz_check(f, (1.0,), 3000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSeveralS:
    """One pass over the heights serves every s: a call with BOTH_S returns,
    bitwise, what one call per s returns."""

    def test_derivative_field(self, several_s_f):
        f = several_s_f
        both = derivative_field(f, BOTH_S, f.J_grid - 2)
        assert len(both) == len(BOTH_S)
        for s, field in zip(BOTH_S, both):
            assert same_fields(field, derivative_field(f, (s,), f.J_grid - 2)[0])

    def test_holder_poisson_norm(self, several_s_f):
        f = several_s_f
        both = holder_poisson_norm(f, BOTH_S)
        assert len(both) == len(BOTH_S)
        for s, norm in zip(BOTH_S, both):
            assert same_bits(norm, holder_poisson_norm(f, (s,))[0])

    @pytest.mark.parametrize("sample_count", [0, 10, 3000])
    def test_lipschitz_check(self, several_s_f, sample_count):
        f = several_s_f
        # 10 samples draw at most 20 heights, fewer than the norm's 4 (J_grid - 1)
        # CELL_FRACS heights, so the pass holds heights that only the norm reads
        assert 2 * 10 < len(CELL_FRACS) * (f.J_grid - 1)
        both = lipschitz_check(f, BOTH_S, sample_count, seed=7)
        assert len(both) == len(BOTH_S)
        for s, report in zip(BOTH_S, both):
            assert report.s == s
            assert same_reports(report, lipschitz_check(f, (s,), sample_count, seed=7)[0])
            assert same_bits(report.norm, holder_poisson_norm(f, (s,))[0])

    def test_limit_grid(self, limit_field, limit_fields_both_s):
        assert same_fields(limit_fields_both_s[0][1], limit_field[1])

    def test_limit_grid_memory(self, limit_fields_both_s):
        peak = limit_fields_both_s[1]
        assert peak <= (LIMIT_FIELD_BOTH_S_PEAK_MIB + LIMIT_FIELD_PEAK_SLACK_MIB) * 2**20

    @pytest.mark.parametrize("s", BAD_S)
    def test_bad_s_rejected(self, cos_12, s):
        for build in (lambda: derivative_field(cos_12, s, 4),
                      lambda: holder_poisson_norm(cos_12, s),
                      lambda: lipschitz_check(cos_12, s, 10, seed=0)):
            with pytest.raises(ValueError, match="s must"):
                build()

    def test_float_s_rejected(self, cos_12):
        for build in (lambda: derivative_field(cos_12, 1.0, 4),
                      lambda: holder_poisson_norm(cos_12, 1.0),
                      lambda: lipschitz_check(cos_12, 1.0, 10, seed=0)):
            with pytest.raises(TypeError, match="s must be a tuple"):
                build()


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

    @pytest.mark.parametrize("J_max", [J + 1, -1, -3])
    def test_jmax_guard(self, cos_12, J_max):
        # a negative J_max once returned the L2 part alone
        with pytest.raises(ValueError, match=r"outside \[0, 12\]"):
            bmo_norm(cos_12, J_max)

    @pytest.mark.parametrize("n,Jg,text", [
        (1, 12, "weierstrass s=1 levels=9 signs=plus"),
        (1, 12, "sum lacunary-random s=0.5 levels=9 seed=3 + xlogx eps=0.1"),
        (2, 9, "weierstrass s=0.7 levels=7 seed=11 signs=random"),
        (2, 7, "sum weierstrass s=1 levels=5 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
    ])
    def test_matches_full_array_oracle(self, n, Jg, text):
        f = synthesize(parse_function_spec(text), n, Jg)
        for g in (f, bessel_lift(f, -1.0)):
            for J_max in (0, Jg - 3, Jg):
                got, want = np.array([bmo_norm(g, J_max), full_array_bmo(g, J_max)])
                assert got.view(np.int64) == want.view(np.int64)

    def test_n2_grid_memory(self):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=8 signs=plus"), 2, 10)
        for J_max in (10, 7):
            tracemalloc.start()
            try:
                bmo_norm(f, J_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= BMO_PEAK_GRIDS * f.samples.nbytes + BMO_PEAK_SLACK_MIB * 2**20


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
