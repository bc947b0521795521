import math

import numpy as np
import pytest

from zygdist import (GridFunction, SpecError, bessel_lift, from_spectral,
                     parse_function_spec, sup_norm, synthesize, to_spectral)


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
        "lacunary-random s=0.5 levels=3",
        "sum trig k=1 a=1",                  # single term
        "sum sum trig k=1 a=1 + trig k=2 a=1 + trig k=3 a=1",
        "xlogx eps=-1",
        "wavelet-atom l=1 j=2 k=0 p=11",
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

    def test_xlogx_continuous_and_odd(self):
        f = synthesize(parse_function_spec("xlogx"), 1, 12)
        jumps = np.max(np.abs(np.diff(f.samples)))
        assert jumps < 0.02  # no discontinuity at the seam
        assert abs(f.samples[0]) < 1e-12
        s = f.samples
        assert np.max(np.abs(s[1:] + s[:0:-1])) < 1e-12  # odd symmetry


class TestGridFunctionInvariants:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            GridFunction(1, 8, np.zeros(100))

    @pytest.mark.parametrize("n,J", [(1, 3), (1, 21), (2, 12), (3, 8)])
    def test_bad_dims(self, n, J):
        with pytest.raises(ValueError):
            GridFunction(n, J, np.zeros((2**J,) * min(n, 2)))

    def test_finite_required(self):
        samples = np.zeros(256)
        samples[3] = np.inf
        with pytest.raises(ValueError):
            GridFunction(1, 8, samples)


class TestSpectral:
    def test_constant_dc(self):
        f = GridFunction(1, 8, np.ones(256), label="one")
        F = to_spectral(f)
        assert abs(F.coeff(0) - 1.0) < 1e-14
        assert max(abs(F.coeff(k)) for k in range(1, 128)) < 1e-14

    def test_cos_modes(self):
        f = synthesize(parse_function_spec("trig k=1 a=1"), 1, 8)
        F = to_spectral(f)
        assert abs(F.coeff(1) - 0.5) < 1e-14
        assert abs(F.coeff(-1) - 0.5) < 1e-14

    def test_roundtrip(self, random_12):
        F = to_spectral(random_12)
        g = from_spectral(F)
        rel = np.max(np.abs(g.samples - random_12.samples)) / sup_norm(random_12)
        assert rel < 1e-12

    def test_parseval(self, random_12):
        F = to_spectral(random_12)
        lhs = float((random_12.samples**2).mean())
        rhs = float(np.sum(np.abs(F.coefficients) ** 2))
        assert abs(lhs - rhs) / lhs < 1e-10

    def test_conjugate_symmetry(self, random_12):
        assert to_spectral(random_12).symmetry_defect() < 1e-12

    def test_n2_roundtrip(self):
        rng = np.random.default_rng(5)
        f = GridFunction(2, 6, rng.standard_normal((64, 64)), label="r2")
        g = from_spectral(to_spectral(f))
        assert np.max(np.abs(g.samples - f.samples)) < 1e-12

    def test_corpus_parseval_and_roundtrip(self):
        from zygdist import corpus
        for f in corpus(1, 12):
            F = to_spectral(f)
            lhs = float((f.samples**2).mean())
            rhs = float(np.sum(np.abs(F.coefficients) ** 2))
            assert abs(lhs - rhs) / lhs < 1e-10
            g = from_spectral(F)
            assert np.max(np.abs(g.samples - f.samples)) / sup_norm(f) < 1e-12


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
        import scipy.fft as sfft

        f = synthesize(parse_function_spec(text), n, Jg)
        k = np.fft.fftfreq(f.grid_size, d=1.0 / f.grid_size).astype(np.longdouble)
        ksq = k * k if n == 1 else (k * k)[:, None] + (k * k)[None, :]
        x = f.samples.astype(np.longdouble)
        for r in (-1.0, -0.5, 2.0):
            mult = (1.0 + 4.0 * np.longdouble(np.pi) ** 2 * ksq) ** np.longdouble(-r / 2.0)
            want = sfft.ifftn(sfft.fftn(x) * mult).real.astype(float)
            got = bessel_lift(f, r).samples
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(GridFunction(1, 8, np.full(256, 3.0))) == 3.0

    def test_cos(self):
        f = synthesize(parse_function_spec("trig k=1 a=1"), 1, 8)
        assert sup_norm(f) == 1.0  # attained at x=0 on the grid

    def test_triangle(self, weier1_12, cos_12):
        total = GridFunction(1, 12, weier1_12.samples + cos_12.samples)
        assert sup_norm(total) <= sup_norm(weier1_12) + sup_norm(cos_12) + 1e-15
