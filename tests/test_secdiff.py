import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (BAD_S, BOTH_S, carleson, is_subset, same_bits, same_fields, same_reports,
                      spy_deal)
from zygdist import GridFunction, gridfn, parse_function_spec, synthesize
import zygdist.secdiff as secdiff
from zygdist.poisson import lipschitz_check
from zygdist.secdiff import (_d2_lattice, _d2_vector, _directions, continuity_check,
                             holder_seminorm, second_diff_field)

J = 12
N = 2**J
# tracemalloc peak of holder_seminorm at n=2 J=10 on two threads, see test_memory_n2
HOLDER_N2_PEAK_MIB = 24.41
HOLDER_N2_PEAK_SLACK_MIB = 0.25
# tracemalloc peaks at 2 * 10^5 samples on "weierstrass s=0.5 levels=9 signs=plus"
# at n=1 J=12: 7.72 MiB for lipschitz_check at BOTH_S and 2.04 MiB for
# continuity_check at s=1; 40.0 and 36.8 MiB when every sample's arrays were
# held at once
LIPSCHITZ_2E5_PEAK_MIB = 8.25
CONTINUITY_2E5_PEAK_MIB = 2.25


def second_difference(f, x, y):
    """Maximal second difference at grid point x and scale y = m * 2^-J, over
    the directions the fields use."""
    pos = tuple(np.asarray([v], dtype=int) for v in np.atleast_1d(x))
    return float(_d2_vector(f.samples, pos, np.asarray([round(y * f.grid_size)]))[0])


def weier_d2_oracle(s, levels, x, y):
    """Term-by-term closed form of the lacunary second difference:
    each cosine contributes 2 cos(2 pi 2^j x) (cos(2 pi 2^j y) - 1)."""
    total = 0.0
    for j in range(levels + 1):
        amp = 2.0 ** (-j * s)
        total += amp * 2.0 * np.cos(2 * np.pi * 2**j * x) * (np.cos(2 * np.pi * 2**j * y) - 1.0)
    return abs(total)


def lattice_d2(samples, h, stride=1):
    """_d2_lattice with its own 2 f(p) and output buffer."""
    twice_center = 2.0 * samples[(slice(None, None, stride),) * samples.ndim]
    return _d2_lattice(samples, h, stride, twice_center, np.empty_like(twice_center))


def roll_d2_lattice(samples, h, stride=1):
    """Reference stencil: the lattice read as two rolled strided copies."""
    axes = tuple(range(samples.ndim))

    def shifted(sign):
        offsets = [sign * hk for hk in h]
        view = samples[tuple(slice(o % stride, None, stride) for o in offsets)]
        return np.roll(view, tuple(-(o // stride) for o in offsets), axis=axes)

    center = samples[(slice(None, None, stride),) * samples.ndim]
    return np.abs((shifted(1) + shifted(-1)) - 2.0 * center)


class TestSecondDifference:
    def test_constant_annihilated(self):
        f = GridFunction(1, J, np.full(N, 4.2))
        for m in (1, 7, N // 2):
            assert second_difference(f, 123, m / N) == 0.0

    def test_cos_closed_form(self, cos_12):
        # |cos(pi) - 2 + cos(-pi)| = 4 at x=0, y=1/2
        assert second_difference(cos_12, 0, 0.5) == 4.0

    def test_even_in_h(self, weier1_12):
        # f(x+h) - 2f(x) + f(x-h) is invariant under h -> -h, bit for bit
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = int(rng.integers(0, N))
            m = int(rng.integers(1, N // 2))
            fwd = lattice_d2(weier1_12.samples, (m,))[x]
            bwd = lattice_d2(weier1_12.samples, (-m,))[x]
            assert fwd == bwd
            assert second_difference(weier1_12, x, m / N) == fwd

    @pytest.mark.parametrize("s,levels", [(1.0, 9), (0.5, 6)])
    def test_weierstrass_term_oracle(self, s, levels):
        f = synthesize(parse_function_spec(f"weierstrass s={s} levels={levels} signs=plus"), 1, J)
        rng = np.random.default_rng(1)
        for _ in range(40):
            x = int(rng.integers(0, N))
            m = int(rng.integers(1, N))
            got = second_difference(f, x, m / N)
            want = weier_d2_oracle(s, levels, x / N, m / N)
            assert abs(got - want) < 1e-9

    def test_n2_direction_max(self):
        f = synthesize(parse_function_spec("trig k=1,0 a=1"), 2, 8)
        # among the 8 directions the (m, 0) axis sees the full 1-d variation
        val = second_difference(f, (0, 0), 0.5)
        assert abs(val - 4.0) < 1e-12

    def test_n2_default_directions_are_the_fields(self, monkeypatch):
        # the (m, 0) axis alone misses a function of the second coordinate,
        # and the point oracle and the seminorm both read secdiff.DIRECTIONS
        f = synthesize(parse_function_spec("trig k=0,1 a=1"), 2, 8)
        assert abs(second_difference(f, (0, 0), 0.5) - 4.0) < 1e-12
        assert holder_seminorm(f, (1.0,))[0] > 0.0
        monkeypatch.setattr(secdiff, "DIRECTIONS", 1)
        assert second_difference(f, (0, 0), 0.5) == 0.0
        assert holder_seminorm(f, (1.0,)) == (0.0,)


class TestLatticeStencil:
    @pytest.mark.parametrize("n,Jg", [(1, 9), (2, 6)])
    def test_bitwise_equal_to_rolled_copies(self, n, Jg):
        # negative h, |h| >= N/2, h a multiple of the lattice length and
        # h beyond N, every stride; one buffer serves all calls of a stride
        rng = np.random.default_rng(7)
        Ng = 2**Jg
        samples = rng.standard_normal((Ng,) * n)
        for stride in range(1, 17):
            if Ng % stride:
                continue
            M = Ng // stride
            twice_center = 2.0 * samples[(slice(None, None, stride),) * n]
            buf = np.empty_like(twice_center)
            comps = [1, -1, stride + 1, -3 * stride + 2, Ng // 2, Ng // 2 + 3, -(Ng // 2) - 1,
                     M, 2 * M, -M, Ng - 1, Ng + 5]
            hs = [(a,) for a in comps] if n == 1 else [
                (a, b) for a in comps for b in comps[::3]]
            for h in hs:
                want = roll_d2_lattice(samples, h, stride)
                got = _d2_lattice(samples, h, stride, twice_center, buf)
                assert got is buf
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n,Jg", [(1, 9), (2, 6)])
    @pytest.mark.parametrize("directions", [1, 8])
    def test_matches_point_oracle(self, n, Jg, directions, monkeypatch):
        # max over the directions and their negatives (negative lattice
        # components on both axes) at every stride a field can use; the
        # stencil and the point oracle agree at any secdiff.DIRECTIONS
        monkeypatch.setattr(secdiff, "DIRECTIONS", directions)
        rng = np.random.default_rng(4)
        Ng = 2**Jg
        f = GridFunction(n, Jg, rng.standard_normal((Ng,) * n))
        for stride in (1, 2, 4, 8, 16):
            for m in (1, stride + 1, 5 * stride - 3, Ng // 2 + 3):
                dirs = _directions(n, m)
                dirs += [tuple(-c for c in h) for h in dirs]
                field = np.max([lattice_d2(f.samples, h, stride) for h in dirs], axis=0)
                assert field.shape == (Ng // stride,) * n
                picks = [(0,) * n, (Ng // stride - 1,) * n]
                picks += [tuple(rng.integers(0, Ng // stride, n)) for _ in range(30)]
                for k in picks:
                    x = tuple(stride * int(c) for c in k)
                    assert field[k] == second_difference(f, x if n == 2 else x[0], m / Ng)


class TestHolderSeminorm:
    def test_constant_zero(self):
        f = GridFunction(1, J, np.full(N, 2.0))
        assert holder_seminorm(f, (0.5,))[0] == 0.0

    def test_cos_dyadic_probes(self, cos_12):
        # brute force over the dyadic probe ladder
        x = cos_12.samples
        want = 0.0
        for j in range(1, J):
            m = 2 ** (J - j)
            d2 = np.abs(np.roll(x, -m) - 2 * x + np.roll(x, m))
            want = max(want, float(d2.max()) / (m / N))
        got = holder_seminorm(cos_12, (1.0,))[0]
        assert got == want
        assert abs(got - 8.0) < 1e-12

    def test_refined_probes_catch_resonant_scale(self, cos_12):
        # sup over all scales of 2(1-cos(2 pi y))/y is about 9.10 near y=0.37
        fine = holder_seminorm(cos_12, (1.0,), refine=4)[0]
        assert fine >= 8.0
        assert abs(fine - 9.1046) < 1e-3

    def test_subadditive(self, cos_12, weier1_12):
        total = GridFunction(1, J, cos_12.samples + weier1_12.samples)
        lhs = holder_seminorm(total, (1.0,))[0]
        rhs = holder_seminorm(cos_12, (1.0,))[0] + holder_seminorm(weier1_12, (1.0,))[0]
        assert lhs <= rhs + 1e-12

    def test_scaling(self, weier05_12):
        a = holder_seminorm(weier05_12, (0.5,))[0]
        b = holder_seminorm(weier05_12.scaled(4.0), (0.5,))[0]
        assert b == 4.0 * a  # powers of two scale exactly

    @pytest.mark.parametrize("n,Jg", [(1, 16), (2, 10)])
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("directions", [1, 8])
    def test_threads_do_not_change_the_value(self, n, Jg, refine, directions, monkeypatch):
        # with one n=2 direction and with the default eight
        monkeypatch.setattr(secdiff, "DIRECTIONS", directions)
        f = synthesize(parse_function_spec("weierstrass s=1 levels=8 signs=random seed=2"), n, Jg)
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        off_caller = spy_deal(monkeypatch, secdiff)
        values = []
        for min_points in (2**62, 0):  # serial, then threaded
            monkeypatch.setattr(gridfn, "_THREAD_MIN_POINTS", min_points)
            values.append(holder_seminorm(f, (0.5,), refine=refine)[0])
            assert any(off_caller) == (min_points == 0)
            off_caller.clear()
        assert values[0].hex() == values[1].hex()

    def test_memory_n2(self, monkeypatch):
        # 2 f and one stencil buffer per thread: 24.40-24.41 MiB in 6 runs on
        # two threads (16.21 MiB on one)
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        spec = "sum weierstrass s=1 levels=8 signs=plus + wavelet-atom l=3 j=4 k=5,9"
        f = synthesize(parse_function_spec(spec), 2, 10)
        tracemalloc.start()
        try:
            holder_seminorm(f, (1.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (HOLDER_N2_PEAK_MIB + HOLDER_N2_PEAK_SLACK_MIB) * 2**20


class TestBuildS:
    """The second-difference sets S(s, f, eps) = second_diff_field(...).threshold(eps)."""

    def test_memory_one_level_at_a_time(self):
        # the per-level lattice arrays (2 f(p), the stencil buffer, the
        # running max) are freed before pooling and before the next level
        rng = np.random.default_rng(2)
        f = GridFunction(1, 18, rng.standard_normal(2**18))
        second_diff_field(GridFunction(1, 6, f.samples[:64]), (1.0,), 4)
        tracemalloc.start()
        try:
            second_diff_field(f, (1.0,), 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * f.samples.nbytes

    def test_eps_zero_keeps_positive_cells(self, cos_12):
        field = second_diff_field(cos_12, (1.0,), J - 2)[0]
        S = field.threshold(0.0)
        want = sum(int((v > 0).sum()) for v in field.values.values())
        assert S.cell_count == want
        assert S.cell_count > 0

    def test_empty_above_field_max(self, cos_12):
        field = second_diff_field(cos_12, (1.0,), J - 2)[0]
        S = field.threshold(field.max_value)
        assert S.cell_count == 0

    def test_monotone_decreasing_in_eps(self, weier1_12):
        field = second_diff_field(weier1_12, (1.0,), J - 2)[0]
        eps_values = np.linspace(0.0, field.max_value, 7)
        sets = [field.threshold(e) for e in eps_values]
        for bigger, smaller in zip(sets, sets[1:]):
            assert is_subset(smaller, bigger)

    def test_scaling_covariance_exact(self, weier1_12):
        s, eps = 1.0, 3.0
        lam = 4.0
        S1 = second_diff_field(weier1_12, (s,), J - 2)[0].threshold(eps)
        S2 = second_diff_field(weier1_12.scaled(lam), (s,), J - 2)[0].threshold(lam * eps)
        assert S1 == S2

    def test_weierstrass_median_threshold_diverges(self, weier1_12):
        field = second_diff_field(weier1_12, (1.0,), J - 2)[0]
        med = float(np.median(np.concatenate([v.ravel() for v in field.values.values()])))
        S = field.threshold(0.5 * med)
        assert all(S.mask(jj).any() for jj in range(J - 1))  # every level occupied
        [(_, _, diverging)] = carleson((S,), (4, J - 2))
        assert diverging

    def test_too_deep_rejected(self, cos_12):
        with pytest.raises(ValueError):
            second_diff_field(cos_12, (1.0,), J - 1)

    @pytest.mark.parametrize("J_max", [J - 1, -1, -3])
    def test_jmax_guard(self, cos_12, J_max):
        # a negative J_max once gave an empty field, whose max_value is 0.0
        with pytest.raises(ValueError, match=r"outside \[0, J_grid-2=10\]"):
            second_diff_field(cos_12, (1.0,), J_max)


class TestSeveralS:
    """One pass over the probes serves every s: a call with BOTH_S returns,
    bitwise, what one call per s returns."""

    def test_second_diff_field(self, several_s_f):
        f = several_s_f
        both = second_diff_field(f, BOTH_S, f.J_grid - 2)
        assert len(both) == len(BOTH_S)
        for s, field in zip(BOTH_S, both):
            assert same_fields(field, second_diff_field(f, (s,), f.J_grid - 2)[0])

    @pytest.mark.parametrize("refine", [1, 2])
    def test_holder_seminorm(self, several_s_f, refine):
        f = several_s_f
        both = holder_seminorm(f, BOTH_S, refine=refine)
        assert len(both) == len(BOTH_S)
        for s, norm in zip(BOTH_S, both):
            assert same_bits(norm, holder_seminorm(f, (s,), refine=refine)[0])

    @pytest.mark.parametrize("s", BAD_S)
    def test_bad_s_rejected(self, cos_12, s):
        for build in (lambda: second_diff_field(cos_12, s, 4), lambda: holder_seminorm(cos_12, s)):
            with pytest.raises(ValueError, match="s must"):
                build()

    def test_float_s_rejected(self, cos_12):
        for build in (lambda: second_diff_field(cos_12, 1.0, 4),
                      lambda: holder_seminorm(cos_12, 1.0)):
            with pytest.raises(TypeError, match="s must be a tuple"):
                build()


class TestContinuity:
    def test_constant_degenerate(self):
        f = GridFunction(1, J, np.full(N, 1.0))
        with pytest.raises(ValueError):
            continuity_check(f, 1.0, 100, seed=0)

    def test_cos_bounded_constant(self, cos_12):
        rep = continuity_check(cos_12, 1.0, 10_000, seed=3)
        assert 0.0 < rep.max_ratio <= 50.0
        assert rep.pairs_used > 9000

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_doubling_stability(self, s, weier1_12):
        r1 = continuity_check(weier1_12, s, 10_000, seed=42)
        r2 = continuity_check(weier1_12, s, 20_000, seed=42)
        assert r2.max_ratio >= r1.max_ratio  # nested sampling
        assert (r2.max_ratio - r1.max_ratio) <= 0.20 * r1.max_ratio

    @pytest.mark.parametrize("n,Jg", [(1, J), (2, 7)])
    def test_ratio_prefix_is_smaller_run(self, n, Jg):
        # same-seed draws are prefixes: one call serves both sample counts
        f = synthesize(parse_function_spec("weierstrass s=1 levels=5"), n, Jg)
        big = continuity_check(f, 1.0, 3000, seed=42)
        small = continuity_check(f, 1.0, 1200, seed=42)
        assert float(big.ratios[:1200].max()) == small.max_ratio
        assert float(big.ratios.max()) == big.max_ratio

    def test_n2_runs(self):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), 2, 8)
        rep = continuity_check(f, 1.0, 2000, seed=5)
        assert np.isfinite(rep.max_ratio)
        assert rep.max_ratio > 0.0

    def test_negative_sample_count_rejected(self, cos_12, monkeypatch):
        # before the seminorm: numpy's own error came only after it
        def fail(*args, **kwargs):
            raise AssertionError("the seminorm was computed")

        monkeypatch.setattr(secdiff, "holder_seminorm", fail)
        with pytest.raises(ValueError, match="sample_count=-1 must be >= 0"):
            continuity_check(cos_12, 1.0, -1, seed=0)

    @pytest.mark.parametrize("n,Jg", [(1, 8), (2, 6)])
    def test_zero_samples_empty_report(self, n, Jg):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), n, Jg)
        rep = continuity_check(f, 1.0, 0, seed=3)
        assert (rep.max_ratio, rep.pairs_used, rep.sample_count) == (0.0, 0, 0)
        assert rep.ratios.shape == (0,)

    def test_reports_compare_by_value(self, weier1_12):
        # the generated dataclass comparison raised ValueError on the ratios
        # array for any two reports with more than one sample
        for check in (lambda seed: continuity_check(weier1_12, 1.0, 2000, seed=seed),
                      lambda seed: lipschitz_check(weier1_12, (1.0,), 2000, seed=seed)[0]):
            a, b, other = check(42), check(42), check(43)
            assert a.ratios.size > 1
            assert a == b
            assert not a != b
            assert a != other
            assert not a == other
            # a ratio below the max differs: every other field still agrees
            changed = replace(a, ratios=a.ratios.copy())
            changed.ratios[int(np.argmin(changed.ratios))] += 1e-3 * a.max_ratio
            assert changed.max_ratio == a.max_ratio
            assert changed != a
        assert a != "not a report"


def sampled_checks(f, sample_count, seed=42):
    """Every report of the sampled checks on f: lipschitz_check at BOTH_S,
    then continuity_check at each s."""
    return (*lipschitz_check(f, BOTH_S, sample_count, seed=seed),
            *(continuity_check(f, s, sample_count, seed=seed) for s in BOTH_S))


class TestSampleChunks:
    """The sampled checks draw, score and drop their pairs SAMPLE_CHUNK at a
    time; no report depends on the chunk size."""

    @pytest.fixture(params=[(1, 10), (2, 6)], ids=["n1", "n2"])
    def chunk_f(self, request):
        n, Jg = request.param
        return synthesize(parse_function_spec("weierstrass s=0.5 levels=4 signs=plus"), n, Jg)

    @pytest.mark.parametrize("chunk", [1, 7, 2**20])
    def test_bitwise_across_chunk_sizes(self, chunk_f, chunk, monkeypatch):
        want = sampled_checks(chunk_f, 600)
        monkeypatch.setattr(secdiff, "SAMPLE_CHUNK", chunk)
        got = sampled_checks(chunk_f, 600)
        assert len(got) == len(want)
        assert all(same_reports(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("count", [lambda C: 0, lambda C: 1, lambda C: C - 1, lambda C: C,
                                       lambda C: C + 1], ids=["0", "1", "C-1", "C", "C+1"])
    def test_chunk_boundaries(self, chunk_f, count, monkeypatch):
        # against one chunk of every sample
        count = count(secdiff.SAMPLE_CHUNK)
        got = sampled_checks(chunk_f, count)
        monkeypatch.setattr(secdiff, "SAMPLE_CHUNK", 2**20)
        want = sampled_checks(chunk_f, count)
        assert all(same_reports(a, b) for a, b in zip(got, want))
        assert all(r.ratios.shape == (count,) for r in got)

    def test_prefix_across_chunk_boundary(self, chunk_f):
        # same-seed draws are prefixes of each other across the chunk cut too
        short = secdiff.SAMPLE_CHUNK - 100
        for big, small in zip(sampled_checks(chunk_f, short + 200), sampled_checks(chunk_f, short)):
            assert same_bits(big.ratios[:short], small.ratios)
            assert float(big.ratios[:short].max()) == small.max_ratio

    @pytest.mark.parametrize("check,bound_mib", [
        (lambda f: lipschitz_check(f, BOTH_S, 200_000, seed=42), LIPSCHITZ_2E5_PEAK_MIB),
        (lambda f: continuity_check(f, 1.0, 200_000, seed=42), CONTINUITY_2E5_PEAK_MIB),
    ], ids=["lipschitz", "continuity"])
    def test_memory_per_sample(self, check, bound_mib):
        f = synthesize(parse_function_spec("weierstrass s=0.5 levels=9 signs=plus"), 1, J)
        tracemalloc.start()
        try:
            check(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20
