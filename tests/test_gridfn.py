import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import zygdist
from conftest import spy_deal
from zygdist import (GridFunction, SpecError, bessel_lift, parse_function_spec,
                     poisson_extend, sup_norm, synthesize)
from zygdist import gridfn
from zygdist.gridfn import _half_freq_sq, _xlogx_axis


class TestParse:
    def test_trig(self):
        spec = parse_function_spec("trig k=1 a=1")
        assert spec.kind == "trig"
        assert spec.params["k"] == 1
        assert spec.params["a"] == 1.0
        assert spec.params["phase"] == 0.0

    def test_weierstrass(self):
        spec = parse_function_spec("weierstrass s=0.7 levels=12 seed=0 signs=random")
        assert spec.kind == "weierstrass"
        assert spec.params["s"] == 0.7
        assert spec.params["levels"] == 12
        assert spec.params["seed"] == 0

    def test_weierstrass_s_out_of_range(self):
        with pytest.raises(SpecError):
            parse_function_spec("weierstrass s=1.5 levels=4")

    @pytest.mark.parametrize("text", [
        "",
        "nosuchkind a=1",
        "trig a=1",                          # missing frequency
        "trig k=1 a=1 bogus=3",
        "weierstrass s=0.5",                 # missing levels
        "weierstrass s=0.5 levels=0",
        "weierstrass s=0.5 levels=3 signs=random",   # random without seed
        "weierstrass s=0.5 levels=3 seed=3 signs=plus",  # seed that draws nothing
        "lacunary-random s=0.5 levels=3",
        "sum trig k=1 a=1",                  # single term
        "sum sum trig k=1 a=1 + trig k=2 a=1 + trig k=3 a=1",
        "xlogx eps=-1",
        "wavelet-atom l=1 j=2 k=0 p=11",
        "trig k=abc a=1",                    # k is an integer or integer pair
        "trig k=1.5 a=1",
        "wavelet-atom l=1 j=3 k=1.5",
        "wavelet-atom l=1 j=3 k=abc",
    ])
    def test_rejects(self, text):
        with pytest.raises(SpecError):
            parse_function_spec(text)

    def test_sum(self):
        spec = parse_function_spec("sum trig k=1 a=1 + trig k=2 a=0.5")
        assert spec.kind == "sum"
        assert len(spec.params["terms"]) == 2

    def test_deterministic(self):
        a = parse_function_spec("lacunary-random s=1 levels=4 seed=9")
        b = parse_function_spec("lacunary-random s=1 levels=4 seed=9")
        assert a == b


class TestSynthesize:
    def test_trig_exact(self):
        f = synthesize(parse_function_spec("trig k=1 a=1"), 1, 8)
        m = np.arange(256)
        assert np.array_equal(f.samples, np.cos(2 * np.pi * m / 256))

    def test_weierstrass_two_terms(self):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=1"), 1, 8)
        x = np.arange(256) / 256
        expect = np.cos(2 * np.pi * x) + 0.5 * np.cos(4 * np.pi * x)
        assert np.max(np.abs(f.samples - expect)) == 0.0

    def test_sum_linearity(self):
        f1 = synthesize(parse_function_spec("trig k=1 a=1"), 1, 8)
        f2 = synthesize(parse_function_spec("trig k=3 a=0.5"), 1, 8)
        fs = synthesize(parse_function_spec("sum trig k=1 a=1 + trig k=3 a=0.5"), 1, 8)
        assert np.allclose(fs.samples, f1.samples + f2.samples, atol=0)

    def test_seeded_kinds_reproducible(self):
        spec = parse_function_spec("lacunary-random s=0.5 levels=6 seed=4")
        a = synthesize(spec, 1, 10)
        b = synthesize(spec, 1, 10)
        assert np.array_equal(a.samples, b.samples)

    def test_under_resolved(self):
        with pytest.raises(SpecError):
            synthesize(parse_function_spec("weierstrass s=0.5 levels=7"), 1, 8)

    def test_trig_frequency_too_high(self):
        with pytest.raises(SpecError):
            synthesize(parse_function_spec("trig k=200 a=1"), 1, 8)

    def test_file_kind(self, tmp_path):
        path = tmp_path / "samples.txt"
        rng = np.random.default_rng(0)
        data = rng.standard_normal(2**8)
        np.savetxt(path, data)
        f = synthesize(parse_function_spec(f"file path={path}"), 1, 8)
        assert np.allclose(f.samples, data, atol=1e-12)
        bad = tmp_path / "short.txt"
        np.savetxt(bad, data[:-1])
        with pytest.raises(SpecError):
            synthesize(parse_function_spec(f"file path={bad}"), 1, 8)

    def test_atom_index_validation(self):
        with pytest.raises(SpecError):
            synthesize(parse_function_spec("wavelet-atom l=1 j=2 k=4"), 1, 8)
        with pytest.raises(SpecError):
            synthesize(parse_function_spec("wavelet-atom l=3 j=2 k=1"), 1, 8)

    @pytest.mark.parametrize("n,text", [
        (1, "trig k=3,5 a=1"),
        (2, "trig k=1,2,3 a=1"),
        (2, "trig k=1 a=1"),
        (1, "wavelet-atom l=1 j=2 k=1,2"),
        (2, "wavelet-atom l=1 j=2 k=1"),
        (2, "wavelet-atom l=1 j=2 k=1,2,3"),
    ])
    def test_index_arity(self, n, text):
        # k has one integer per axis; extra or missing components are an error
        with pytest.raises(SpecError, match=f"needs {n} ind"):
            synthesize(parse_function_spec(text), n, 8)

    def test_xlogx_continuous_and_odd(self):
        f = synthesize(parse_function_spec("xlogx"), 1, 12)
        jumps = np.max(np.abs(np.diff(f.samples)))
        assert jumps < 0.02  # no discontinuity at the seam
        assert abs(f.samples[0]) < 1e-12
        s = f.samples
        assert np.max(np.abs(s[1:] + s[:0:-1])) < 1e-12  # odd symmetry


def _pointwise(spec, n, J):
    """synthesize evaluated over the full meshgrid, point by point: the
    values the exact-argument evaluation must reproduce bit for bit."""
    N = 2**J
    x = np.arange(N) / N
    coords = (x,) if n == 1 else np.meshgrid(x, x, indexing="ij")
    kind, p = spec.kind, spec.params
    if kind == "sum":
        return sum(_pointwise(t, n, J) for t in p["terms"])
    if kind == "xlogx":
        return sum(_xlogx_axis(c, p["eps"]) for c in coords)
    if kind not in ("weierstrass", "lacunary-random"):
        return synthesize(spec, n, J).samples
    levels, s = p["levels"], p["s"]
    rng = np.random.default_rng(p.get("seed"))
    if kind == "lacunary-random":
        signs = rng.choice((-1.0, 1.0), size=levels + 1)
        phases = rng.uniform(0.0, 2 * np.pi, size=levels + 1)
    else:
        signs = (rng.choice((-1.0, 1.0), size=levels + 1) if p["signs"] == "random"
                 else np.ones(levels + 1))
        phases = np.zeros(levels + 1)
    base = sum(coords)
    samples = np.zeros_like(base)
    for j in range(levels + 1):
        samples += signs[j] * 2.0 ** (-j * s) * np.cos(2 * np.pi * 2**j * base + phases[j])
    return samples


class TestExactArguments:
    """synthesize and bessel_lift evaluate each transcendental once per
    distinct argument; the samples are bitwise those of the pointwise path
    (compared as int64 so that signed zeros count)."""

    SPECS = (
        "weierstrass s=1 levels={L} signs=plus",
        "weierstrass s=0.7 levels={L} seed=11 signs=random",
        "lacunary-random s=0.5 levels={L} seed=3",
        "xlogx",
        "xlogx eps=0.1",
        "sum weierstrass s=1 levels={L} signs=plus + wavelet-atom {atom}",
        "sum lacunary-random s=1 levels={L} seed=5 + xlogx eps=0.1 + wavelet-atom {atom} p=2",
    )

    # n=1 J=20 levels=16, for the Weierstrass specs only: the one grid where
    # the arguments shared with the level below span 8 of the 16 blocks
    @pytest.mark.parametrize("text,n,J", [
        (text, n, J) for text in SPECS
        for n, J in [(1, 4), (1, 12), (1, 16), (2, 4), (2, 8), (2, 10)]
    ] + [(text, 1, 20) for text in SPECS[:2]])
    def test_synthesize_bitwise(self, n, J, text):
        atom = "l=1 j=2 k=1" if n == 1 else "l=3 j=2 k=1,3"
        spec = parse_function_spec(text.format(L=min(J - 2, 16), atom=atom))
        got = synthesize(spec, n, J).samples
        want = _pointwise(spec, n, J)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n,J", [(1, 12), (2, 10)])
    @pytest.mark.parametrize("text", SPECS[:3])
    def test_synthesize_bitwise_blocks(self, n, J, text, monkeypatch):
        # several level-sum blocks, the last one partial
        monkeypatch.setattr(gridfn, "_LEVEL_BLOCK", 1000)
        spec = parse_function_spec(text.format(L=J - 2))
        got = synthesize(spec, n, J).samples
        assert np.array_equal(got.view(np.int64), _pointwise(spec, n, J).view(np.int64))

    @pytest.mark.parametrize("n,J", [(1, 4), (1, 16), (2, 4), (2, 9), (2, 10)])
    @pytest.mark.parametrize("row_block", [None, 3000])
    def test_bessel_bitwise(self, n, J, row_block, monkeypatch):
        # rfftn and irfftn on the whole grid with the pointwise multiplier;
        # a row block of 3000 points leaves the last block partial at n=2 J=9
        if row_block is not None:
            monkeypatch.setattr(gridfn, "_ROW_BLOCK", row_block)
        rng = np.random.default_rng(J)
        f = GridFunction(n, J, rng.standard_normal((2**J,) * n), label="r")
        x = f.samples.astype(np.longdouble)
        spec = np.fft.rfftn(x)
        ksq = _half_freq_sq(n, J).astype(np.longdouble)
        for r in (-1.0, -0.5, 0.5, 2.0):
            mult = (1.0 + 4.0 * np.longdouble(np.pi) ** 2 * ksq) ** np.longdouble(-r / 2.0)
            want = np.fft.irfftn(spec * mult, s=x.shape, axes=tuple(range(n))).astype(float)
            got = bessel_lift(f, r).samples
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("J", [9, 10])
    @pytest.mark.parametrize("row_block", [None, 3000])
    def test_bessel_threads_bitwise(self, J, row_block, monkeypatch):
        # the row blocks, column halves and triangle halves, serial and on two threads
        if row_block is not None:
            monkeypatch.setattr(gridfn, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        off_caller = spy_deal(monkeypatch, gridfn)
        f = GridFunction(2, J, np.random.default_rng(J).standard_normal((2**J,) * 2))
        runs = []
        for min_points in (2**62, 0):  # serial, then threaded
            monkeypatch.setattr(gridfn, "_THREAD_MIN_POINTS", min_points)
            runs.append([bessel_lift(f, r).samples for r in (-1.0, 0.5)])
            assert any(off_caller) == (min_points == 0)
            off_caller.clear()
        for serial, threaded in zip(*runs):
            assert np.array_equal(serial.view(np.int64), threaded.view(np.int64))

    def test_bessel_memory_n2(self):
        # one clongdouble half spectrum (2 grids) is the only full-size buffer
        # besides the samples out: 25.15 MiB (3.14 grids) at J=10, against
        # 64.18 MiB (8.02 grids) for rfftn and irfftn on the whole grid
        f = synthesize(parse_function_spec("weierstrass s=1 levels=8 signs=plus"), 2, 10)
        for r in (-0.5, 2.0):
            tracemalloc.start()
            try:
                bessel_lift(f, r)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.25 * f.samples.nbytes

    # the largest n=1 grid, in sample arrays of 8 MiB
    N1_SYNTHESIS_GRIDS = {
        # the level sum and the cosines it shares between levels are two
        # sample arrays; the block buffers add 1 MiB: 2.13 and 2.22 grids,
        # 3.13 and 3.22 with a coordinate axis that these kinds do not read
        "weierstrass s=1 levels=16 signs=plus": 2.25,
        "lacunary-random s=0.5 levels=16 seed=3": 2.25,
        # the axis, sin(2 pi x) / pi and the log of its magnitude, in place,
        # and the mask where that is nonzero: 3.13 grids, 7.13 with gathers
        "xlogx": 3.25,
        "xlogx eps=0.1": 3.25,
    }
    # the largest n=2 grid, in sample arrays of 32 MiB
    N2_SYNTHESIS_GRIDS = {
        "weierstrass s=1 levels=9 signs=plus": 1.5,
        "lacunary-random s=0.5 levels=9 seed=3": 1.5,
        "xlogx eps=0.1": 1.5,
        # the total and one term at a time: 2.005 grids, 4.00 when every term
        # was held until the sum
        "sum weierstrass s=1 levels=9 signs=plus + lacunary-random s=0.5 levels=9 seed=3"
        " + xlogx eps=0.1": 2.1,
    }

    @pytest.mark.parametrize("text", N1_SYNTHESIS_GRIDS)
    def test_synthesize_memory_n1(self, text):
        spec = parse_function_spec(text)
        tracemalloc.start()
        try:
            synthesize(spec, 1, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.N1_SYNTHESIS_GRIDS[text] * 8 * 2**20

    @pytest.mark.parametrize("text", N2_SYNTHESIS_GRIDS)
    def test_synthesize_memory_n2(self, text):
        spec = parse_function_spec(text)
        tracemalloc.start()
        try:
            synthesize(spec, 2, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.N2_SYNTHESIS_GRIDS[text] * 8 * 2**22


class TestGridFunctionInvariants:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            GridFunction(1, 8, np.zeros(100))

    @pytest.mark.parametrize("n,J", [(1, 3), (1, 21), (2, 12), (3, 8)])
    def test_bad_dims(self, n, J):
        with pytest.raises(ValueError):
            GridFunction(n, J, np.zeros((2**J,) * min(n, 2)))

    @pytest.mark.parametrize("n,J", [(1, 3), (1, 21), (2, 12), (1, 40), (3, 8)])
    def test_synthesize_rejects_bad_dims_before_allocating(self, n, J):
        # the same check as GridFunction's, made before the 2^J grid exists
        spec = parse_function_spec("trig k=1 a=1")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n must be 1 or 2|outside \[4, "):
                synthesize(spec, n, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [3, -1])
    def test_finite_required(self, bad, at):
        samples = np.zeros(256)
        samples[at] = bad
        with pytest.raises(ValueError, match="finite"):
            GridFunction(1, 8, samples)

    def test_large_finite_accepted(self):
        # a sum of these samples would overflow; the check does not add them
        samples = np.full((16, 16), 1e308)
        assert np.array_equal(GridFunction(2, 4, samples).samples, samples)


def _full_energy(f: GridFunction, r: float) -> float:
    # Parseval on the full complex spectrum: sum |F(k)|^2 (1 + |2 pi k|^2)^(-r)
    k = np.fft.fftfreq(f.grid_size, d=1.0 / f.grid_size)
    ksq = k * k if f.n == 1 else (k * k)[:, None] + (k * k)[None, :]
    F = np.fft.fftn(f.samples) / f.samples.size
    return float(np.sum(np.abs(F) ** 2 * (1.0 + 4.0 * np.pi**2 * ksq) ** -r))


def _half_energy(f: GridFunction, r: float) -> float:
    # the same sum on the half spectrum: interior columns of the last axis
    # stand for a conjugate pair, the k = 0 and k = N/2 columns for one mode
    F = np.fft.rfftn(f.samples) / f.samples.size
    weight = np.full(F.shape[-1], 2.0)
    weight[0] = weight[-1] = 1.0
    ksq = _half_freq_sq(f.n, f.J_grid)
    return float(np.sum(weight * np.abs(F) ** 2 * (1.0 + 4.0 * np.pi**2 * ksq) ** -r))


class TestSpectral:
    """The half-spectrum table every multiplier is built on, and the lift and
    Poisson extension as transforms: DC, mode placement, Parseval, symmetry."""

    def test_constant_dc(self):
        f = GridFunction(1, 8, np.ones(256), label="one")
        F = np.fft.rfftn(f.samples) / 256
        assert abs(F[0] - 1.0) < 1e-14
        assert np.max(np.abs(F[1:])) < 1e-14
        ksq = _half_freq_sq(1, 8)
        assert ksq[0] == 0.0 and np.all(ksq[1:] > 0)
        for y in (0.01, 0.5, 1.0):
            assert np.max(np.abs(poisson_extend(f, y).samples - 1.0)) < 1e-14

    def test_cos_modes(self):
        # the table puts |k|^2 where the transform puts the mode
        for n, text, want in [(1, "trig k=3 a=1", 9.0), (2, "trig k=1,2 a=1", 5.0)]:
            f = synthesize(parse_function_spec(text), n, 6)
            F = np.abs(np.fft.rfftn(f.samples))
            ksq = _half_freq_sq(n, 6)
            assert ksq.shape == F.shape
            assert np.all(ksq[F > 1e-9 * F.max()] == want)

    def test_roundtrip(self, random_12):
        g = bessel_lift(random_12, 0.0)
        rel = np.max(np.abs(g.samples - random_12.samples)) / sup_norm(random_12)
        assert rel < 1e-12

    def test_parseval(self, random_12):
        for r in (-1.0, 0.5, 2.0):
            lhs = float((bessel_lift(random_12, r).samples ** 2).mean())
            rhs = _full_energy(random_12, r)
            assert abs(lhs - rhs) / rhs < 1e-10

    def test_conjugate_symmetry(self, random_12):
        # real input has a conjugate-symmetric spectrum and the multipliers are
        # even in k, so the lift and the extension commute with x -> -x
        def reflect(x):
            return np.roll(x[::-1], 1)
        mirrored = GridFunction(1, random_12.J_grid, reflect(random_12.samples))
        scale = sup_norm(random_12)
        for g, h in [(bessel_lift(random_12, 0.5), bessel_lift(mirrored, 0.5)),
                     (poisson_extend(random_12, 0.01), poisson_extend(mirrored, 0.01))]:
            assert np.max(np.abs(reflect(g.samples) - h.samples)) < 1e-12 * scale

    def test_n2_roundtrip(self):
        rng = np.random.default_rng(5)
        f = GridFunction(2, 6, rng.standard_normal((64, 64)), label="r2")
        g = bessel_lift(f, 0.0)
        assert np.max(np.abs(g.samples - f.samples)) < 1e-12
        assert abs(_half_energy(f, 1.0) - _full_energy(f, 1.0)) / _full_energy(f, 1.0) < 1e-12

    def test_corpus_parseval_and_roundtrip(self):
        from zygdist import corpus
        for f in corpus(12):
            lhs = float((f.samples**2).mean())
            for r in (0.0, 1.0):
                rhs = _half_energy(f, r)
                assert abs(rhs - _full_energy(f, r)) / rhs < 1e-10
            assert abs(lhs - _half_energy(f, 0.0)) / lhs < 1e-10
            g = bessel_lift(f, 0.0)
            assert np.max(np.abs(g.samples - f.samples)) / sup_norm(f) < 1e-12


class TestDeal:
    @staticmethod
    def record(share):
        return list(share), threading.get_ident()

    def test_two_threads(self, monkeypatch):
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        (first, caller), (second, worker) = gridfn._deal(self.record, range(5),
                                                         gridfn._THREAD_MIN_POINTS)
        assert (first, second) == ([0, 2, 4], [1, 3])
        assert caller == threading.get_ident() != worker

    @pytest.mark.parametrize("cpus,items,points", [
        (2, range(5), 2**16 - 1),  # a grid under _THREAD_MIN_POINTS
        (1, range(5), 2**16),
        (2, range(1), 2**16),
    ])
    def test_caller_alone(self, monkeypatch, cpus, items, points):
        monkeypatch.setattr(gridfn, "_CPUS", cpus)
        monkeypatch.setattr(gridfn, "_THREAD_MIN_POINTS", 2**16)
        assert gridfn._deal(self.record, items, points) == [(list(items), threading.get_ident())]

    def test_worker_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(gridfn, "_CPUS", 2)
        caller, done = threading.get_ident(), []

        def run(share):
            if threading.get_ident() != caller:
                raise RuntimeError("worker failed")
            done.extend(share)

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            gridfn._deal(run, range(4), 2**20)
        assert done == [0, 2]  # the caller's share ran to the end
        assert threading.active_count() == threads  # and the worker was joined


class TestBessel:
    def test_constant_fixed(self):
        f = GridFunction(1, 8, np.full(256, 2.5), label="c")
        for r in (-1.0, 0.5, 2.0):
            g = bessel_lift(f, r)
            assert np.max(np.abs(g.samples - 2.5)) < 1e-12

    def test_single_mode(self):
        f = synthesize(parse_function_spec("trig k=1 a=1"), 1, 8)
        g = bessel_lift(f, -1.0)
        expect = math.sqrt(1.0 + 4.0 * math.pi**2) * f.samples
        assert np.max(np.abs(g.samples - expect)) < 1e-10

    def test_inverse_pair(self, random_12):
        g = bessel_lift(bessel_lift(random_12, 2.0), -2.0)
        rel = np.max(np.abs(g.samples - random_12.samples)) / sup_norm(random_12)
        assert rel < 1e-10

    def test_n2_single_mode(self):
        f = synthesize(parse_function_spec("trig k=1,2 a=1"), 2, 6)
        g = bessel_lift(f, -1.0)
        expect = math.sqrt(1.0 + 4.0 * math.pi**2 * 5.0) * f.samples
        assert np.max(np.abs(g.samples - expect)) < 1e-10

    @pytest.mark.parametrize("n,Jg,text", [
        (1, 12, "weierstrass s=1 levels=9 signs=plus"),
        (2, 8, "sum weierstrass s=1 levels=5 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
    ])
    def test_matches_complex_oracle(self, n, Jg, text):
        # the half-spectrum lift against one full complex pair in extended precision
        f = synthesize(parse_function_spec(text), n, Jg)
        k = np.fft.fftfreq(f.grid_size, d=1.0 / f.grid_size).astype(np.longdouble)
        ksq = k * k if n == 1 else (k * k)[:, None] + (k * k)[None, :]
        x = f.samples.astype(np.longdouble)
        for r in (-1.0, -0.5, 2.0):
            mult = (1.0 + 4.0 * np.longdouble(np.pi) ** 2 * ksq) ** np.longdouble(-r / 2.0)
            want = np.fft.ifftn(np.fft.fftn(x) * mult).real.astype(float)
            got = bessel_lift(f, r).samples
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(64,), (16, 16)])
    def test_transform_keeps_extended_precision(self, shape):
        # bessel_lift relies on numpy transforming longdouble in longdouble,
        # also into out= buffers: rfft of longdouble rows, the first axis in
        # place on clongdouble, and irfft into the float64 samples
        x = np.random.default_rng(3).standard_normal(shape)
        spec = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.clongdouble)
        np.fft.rfft(x.astype(np.longdouble), out=spec)
        assert np.array_equal(spec, np.fft.rfft(x.astype(np.longdouble)))
        for axis in range(len(shape) - 1):
            assert np.fft.fft(spec, axis=axis, out=spec) is spec
        for axis in range(len(shape) - 1):
            assert np.fft.ifft(spec, axis=axis, out=spec) is spec
        out = np.empty(shape)
        np.fft.irfft(spec, n=shape[-1], out=out)
        back = np.fft.irfft(spec, n=shape[-1])
        assert back.dtype == np.longdouble
        assert np.array_equal(out.view(np.int64), back.astype(float).view(np.int64))
        # longdouble roundoff is far below half a float64 ulp: x comes back exactly
        assert np.array_equal(out, x)

    def test_no_scipy_import(self):
        # the package's one FFT library is numpy's; a fresh interpreter shows it
        code = ("import sys, numpy as np, zygdist.cli\n"
                "from zygdist import GridFunction, bessel_lift\n"
                "bessel_lift(GridFunction(1, 8, np.ones(256)), 0.5)\n"
                "print('scipy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(zygdist.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True)
        assert out.stdout.strip() == "False"


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(GridFunction(1, 8, np.full(256, 3.0))) == 3.0

    def test_cos(self):
        f = synthesize(parse_function_spec("trig k=1 a=1"), 1, 8)
        assert sup_norm(f) == 1.0  # attained at x=0 on the grid

    def test_triangle(self, weier1_12, cos_12):
        total = GridFunction(1, 12, weier1_12.samples + cos_12.samples)
        assert sup_norm(total) <= sup_norm(weier1_12) + sup_norm(cos_12) + 1e-15
