import math
import tracemalloc

import numpy as np
import pytest

from zygdist import GridFunction, parse_function_spec, sup_norm, synthesize
from zygdist import wavelet
from zygdist.wavelet import (WaveletCoefficients, _istep_axis, _step_axis,
                             analyze, filter_bank,
                             jbmo_box_sup, jbmo_wavelet_norm, lip_wavelet_norm,
                             moment_residuals, orthonormality_residual,
                             reconstruct, scale_ratio_field,
                             truncate_projection)


class TestFilterBank:
    def test_p2_defining_equations(self):
        bank = filter_bank(2)
        lo = bank.lo
        assert lo.size == 4
        # the defining quadratic system, written out
        assert abs(float(lo @ lo) - 1.0) < 1e-12
        assert abs(float(lo[:2] @ lo[2:])) < 1e-12
        assert abs(float(lo.sum()) - math.sqrt(2.0)) < 1e-12
        assert orthonormality_residual(bank) < 1e-12

    @pytest.mark.parametrize("p", range(2, 11))
    def test_all_banks_orthonormal(self, p):
        bank = filter_bank(p)
        assert bank.lo.size == 2 * p
        assert orthonormality_residual(bank) < 1e-12
        assert abs(float(bank.lo.sum()) - math.sqrt(2.0)) < 1e-12

    def test_p6_moment_cancellation(self):
        assert max(moment_residuals(filter_bank(6))) < 1e-8

    @pytest.mark.parametrize("p", range(2, 11))
    def test_moment_cancellation(self, p):
        assert max(moment_residuals(filter_bank(p))) < 1e-8

    def test_unsupported_p(self):
        for p in (1, 11, 0):
            with pytest.raises(ValueError):
                filter_bank(p)


class TestBasisOrthonormality:
    """Independent check: synthesize every basis vector and form the Gram."""

    @pytest.mark.parametrize("p", [2, 8])
    def test_gram_identity_and_adjoint(self, p):
        J = 6
        N = 2**J
        bank = filter_bank(p)
        rows = []
        slots = [("d", None, None)] + [
            ("c", j, k) for j in range(J) for k in range(2**j)]
        for kind, j, k in slots:
            coeffs = WaveletCoefficients.zeros(1, J)
            if kind == "d":
                coeffs.d = 1.0
            else:
                coeffs.c[j][k] = 1.0
            rows.append(reconstruct(coeffs, bank).samples * 2.0 ** (-J / 2))
        B = np.stack(rows)
        gram = B @ B.T
        assert np.max(np.abs(gram - np.eye(N))) < 1e-12
        # analyze must be the adjoint map of the basis matrix
        rng = np.random.default_rng(7)
        f = GridFunction(1, J, rng.standard_normal(N))
        coeffs = analyze(f, bank)
        flat = np.concatenate([[coeffs.d]] + [coeffs.c[j] for j in range(J)])
        want = B @ (f.samples * 2.0 ** (-J / 2))
        assert np.max(np.abs(flat - want)) < 1e-12


class TestAnalyzeReconstruct:
    def test_atom_gives_unit_coefficient(self, bank8):
        f = synthesize(parse_function_spec("wavelet-atom l=1 j=3 k=2"), 1, 12)
        coeffs = analyze(f, bank8)
        assert abs(coeffs.c[3][2] - 1.0) < 1e-9
        coeffs.c[3][2] = 0.0
        leak = max(float(np.max(np.abs(a))) for a in coeffs.c.values())
        assert leak < 1e-9
        assert abs(coeffs.d) < 1e-9

    def test_constant_all_detail_zero(self, bank2, bank8):
        f = GridFunction(1, 12, np.ones(4096), label="one")
        for bank in (bank2, bank8):
            coeffs = analyze(f, bank)
            assert max(float(np.max(np.abs(a))) for a in coeffs.c.values()) < 1e-10
            assert abs(coeffs.d - 1.0) < 1e-12  # d carries the mean

    def test_roundtrip_and_parseval(self, random_12, bank8):
        coeffs = analyze(random_12, bank8)
        g = reconstruct(coeffs, bank8)
        assert np.max(np.abs(g.samples - random_12.samples)) / sup_norm(random_12) < 1e-10
        energy = float((random_12.samples**2).mean())
        assert abs(coeffs.coefficient_energy() - energy) / energy < 1e-10

    def test_grid_too_coarse(self):
        f = GridFunction(1, 4, np.zeros(16))
        with pytest.raises(ValueError):
            analyze(f, filter_bank(10))  # 20 taps > 16 samples

    def test_n2_atom_roundtrip(self, bank2):
        for l in (1, 2, 3):
            f = synthesize(parse_function_spec(f"wavelet-atom l={l} j=2 k=1,3 p=2"), 2, 6)
            coeffs = analyze(f, bank2)
            assert abs(coeffs.c[2][l - 1, 1, 3] - 1.0) < 1e-9
            coeffs.c[2][l - 1, 1, 3] = 0.0
            assert max(float(np.max(np.abs(a))) for a in coeffs.c.values()) < 1e-9

    def test_n2_roundtrip_parseval(self, bank8):
        rng = np.random.default_rng(9)
        f = GridFunction(2, 6, rng.standard_normal((64, 64)))
        coeffs = analyze(f, bank8)
        g = reconstruct(coeffs, bank8)
        assert np.max(np.abs(g.samples - f.samples)) < 1e-10
        energy = float((f.samples**2).mean())
        assert abs(coeffs.coefficient_energy() - energy) / energy < 1e-10

    def test_corpus_roundtrip_parseval(self, bank8):
        from zygdist import corpus, sup_norm
        for f in corpus(1, 12):
            coeffs = analyze(f, bank8)
            g = reconstruct(coeffs, bank8)
            assert np.max(np.abs(g.samples - f.samples)) / sup_norm(f) < 1e-10
            energy = float((f.samples**2).mean())
            assert abs(coeffs.coefficient_energy() - energy) / energy < 1e-10

    def test_atom_sits_on_its_cube(self, bank8):
        # index alignment: the atom's energy peak lies within a cell or so
        # of the nominal cube center
        f = synthesize(parse_function_spec("wavelet-atom l=1 j=4 k=5"), 1, 12)
        peak = np.argmax(np.abs(f.samples)) / 4096
        center = (5 + 0.5) / 16
        assert abs(peak - center) < 1.5 / 16


def gather_step(a, taps_lo, taps_hi, axis):
    """Oracle analysis step: an explicit (N/2, L) window table and a matmul."""
    a = np.moveaxis(a, axis, -1)
    N, L = a.shape[-1], taps_lo.size
    win = a[..., (2 * np.arange(N // 2)[:, None] + np.arange(L)) % N]
    return np.moveaxis(win @ taps_lo, -1, axis), np.moveaxis(win @ taps_hi, -1, axis)


def add_at_istep(lo_part, hi_part, taps_lo, taps_hi, axis):
    """Oracle synthesis step: np.add.at of an (N/2, L) contribution table."""
    lo_part, hi_part = np.moveaxis(lo_part, axis, -1), np.moveaxis(hi_part, axis, -1)
    half, L = lo_part.shape[-1], taps_lo.size
    out = np.zeros(lo_part.shape[:-1] + (2 * half,))
    idx = (2 * np.arange(half)[:, None] + np.arange(L)) % (2 * half)
    np.add.at(out, (..., idx), lo_part[..., :, None] * taps_lo + hi_part[..., :, None] * taps_hi)
    return np.moveaxis(out, -1, axis)


def _level_shapes(n, top):
    """(N, axis, shape of the axis-halved table) for every level from 2 points up."""
    for N in (2**k for k in range(1, top + 1)):
        for axis in range(n):
            shape = [N] * n
            shape[axis] = N // 2
            yield N, axis, tuple(shape)


class TestPolyphaseSteps:
    @pytest.mark.parametrize("p", [2, 5, 8, 10])
    @pytest.mark.parametrize("n", [1, 2])
    def test_istep_bitwise_equal_to_add_at(self, p, n):
        bank = filter_bank(p)
        rng = np.random.default_rng(p)
        for N, axis, shape in _level_shapes(n, 9 if n == 1 else 7):
            lo, hi = rng.standard_normal(shape), rng.standard_normal(shape)
            got = _istep_axis(lo, hi, bank.lo, bank.hi, axis)
            assert np.array_equal(got, add_at_istep(lo, hi, bank.lo, bank.hi, axis))

    @pytest.mark.parametrize("p", [2, 5, 8, 10])
    @pytest.mark.parametrize("n", [1, 2])
    def test_step_within_tolerance_of_gather(self, p, n):
        # stated tolerance 1e-13 * max|a|: only the order of the L products
        # in each sum may differ from the oracle's matmul
        bank = filter_bank(p)
        rng = np.random.default_rng(p)
        for N, axis, _ in _level_shapes(n, 9 if n == 1 else 7):
            a = rng.standard_normal((N,) * n)
            for got, want in zip(_step_axis(a, bank.lo, bank.hi, axis),
                                 gather_step(a, bank.lo, bank.hi, axis)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(a))

    @pytest.mark.parametrize("n,Jg", [(1, 12), (2, 7)])
    def test_analyze_within_tolerance_of_gather(self, monkeypatch, bank8, n, Jg):
        rng = np.random.default_rng(3)
        f = GridFunction(n, Jg, rng.standard_normal((2**Jg,) * n))
        got = analyze(f, bank8)
        monkeypatch.setattr(wavelet, "_step_axis", gather_step)
        want = analyze(f, bank8)
        tol = 1e-12 * sup_norm(f)
        assert abs(got.d - want.d) <= tol
        assert all(np.max(np.abs(got.c[j] - want.c[j])) <= tol for j in range(Jg))

    def test_memory_grows_with_grid_not_taps(self, bank8):
        # (N/2, L) window, index and contribution tables would peak near 40 MiB
        rng = np.random.default_rng(5)
        f = GridFunction(2, 9, rng.standard_normal((512, 512)))
        reconstruct(analyze(GridFunction(2, 4, f.samples[:16, :16]), bank8), bank8)
        tracemalloc.start()
        try:
            reconstruct(analyze(f, bank8), bank8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestLipNorm:
    def test_zero(self):
        assert lip_wavelet_norm(WaveletCoefficients.zeros(1, 8), 0.7) == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("j,k", [(0, 0), (3, 5), (6, 40)])
    def test_single_atom_scaling(self, s, j, k):
        coeffs = WaveletCoefficients.zeros(1, 8)
        coeffs.c[j][k] = 2.0 ** (-j * (0.5 + s))
        assert abs(lip_wavelet_norm(coeffs, s) - 1.0) < 1e-12

    def test_homogeneous(self, random_12, bank8):
        coeffs = analyze(random_12, bank8)
        doubled = coeffs.copy()
        doubled.d *= 2.0
        for j in doubled.c:
            doubled.c[j] = doubled.c[j] * 2.0
        assert abs(lip_wavelet_norm(doubled, 0.5) - 2 * lip_wavelet_norm(coeffs, 0.5)) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_weierstrass_multiresolution_stability(self, s, bank8):
        spec = parse_function_spec(f"weierstrass s={s} levels=9 signs=plus")
        norms = [lip_wavelet_norm(analyze(synthesize(spec, 1, J), bank8), s)
                 for J in (12, 14, 16)]
        for a, b in zip(norms, norms[1:]):
            assert 0.75 < a / b < 1.25

    def test_s_range_checked(self):
        with pytest.raises(ValueError):
            lip_wavelet_norm(WaveletCoefficients.zeros(1, 8), 1.5)


def brute_box_sup(coeffs, s, max_level):
    """Direct enumeration of every dyadic box for the squared box sums."""
    J = coeffs.J_grid
    best = 0.0
    for q in range(max_level + 1):
        for kq in range(2**q):
            total = 0.0
            for j in range(q, max_level + 1):
                shift = j - q
                seg = coeffs.c[j][kq << shift:(kq + 1) << shift]
                total += 4.0 ** (j * s) * float((seg**2).sum())
            best = max(best, total * 2.0**q)
    return best


class TestJbmoNorm:
    def test_zero(self):
        assert jbmo_wavelet_norm(WaveletCoefficients.zeros(1, 8), 0.5) == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("j,k", [(0, 0), (4, 11)])
    def test_single_atom_closed_form(self, s, j, k):
        coeffs = WaveletCoefficients.zeros(1, 8)
        coeffs.c[j][k] = 1.0
        want = 2.0 ** (j * (s + 0.5))
        assert abs(jbmo_wavelet_norm(coeffs, s) - want) < 1e-10

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("J", [8, 12])
    def test_equal_coefficients_grow_like_sqrt_levels(self, s, J):
        # worst-case lacunary table: every cube at its scale ceiling
        coeffs = WaveletCoefficients.zeros(1, J)
        for j in range(J):
            coeffs.c[j][...] = 2.0 ** (-j * (0.5 + s))
        assert abs(jbmo_wavelet_norm(coeffs, s) - math.sqrt(J)) < 1e-10

    def test_tree_pass_matches_brute_force(self, bank2):
        rng = np.random.default_rng(13)
        f = GridFunction(1, 7, rng.standard_normal(128))
        coeffs = analyze(f, bank2)
        for s in (0.5, 1.0):
            for top in (3, 6):
                got = jbmo_box_sup(coeffs, s, max_level=top)
                want = brute_box_sup(coeffs, s, top)
                assert abs(got - want) < 1e-10 * max(want, 1.0)


class TestBuildT:
    """The wavelet sets T(s, f, eps) = scale_ratio_field(...).threshold(eps)."""

    def test_empty_at_coefficient_norm(self, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        field = scale_ratio_field(coeffs, 1.0)
        c_norm = field.max_value
        assert field.threshold(c_norm).is_empty()

    def test_single_cell_at_half_threshold(self):
        coeffs = WaveletCoefficients.zeros(1, 8)
        eps = 0.3
        coeffs.c[4][7] = 2.0 * eps * 2.0 ** (-4 * 1.5)
        T = scale_ratio_field(coeffs, 1.0).threshold(eps)
        assert T.cell_count == 1
        assert (4, (7,)) in T

    def test_matches_literal_scan(self, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        s, eps = 1.0, 0.4
        T = scale_ratio_field(coeffs, s).threshold(eps)
        for j in range(coeffs.J_grid):
            for k in range(2**j):
                expected = abs(coeffs.c[j][k]) > eps * 2.0 ** (-j * (0.5 + s))
                assert ((j, (k,)) in T) == expected

    def test_monotone_in_eps(self, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        field = scale_ratio_field(coeffs, 1.0)
        T1 = field.threshold(0.2)
        T2 = field.threshold(0.5)
        assert T2.issubset(T1)

    def test_weierstrass_mid_eps_everywhere_and_diverging(self, weier1_12, bank8):
        from zygdist.dyadic import carleson_sup
        coeffs = analyze(weier1_12, bank8)
        field = scale_ratio_field(coeffs, 1.0)
        lacunary_top = 9  # spec levels of the fixture
        # half the amplitude floor across the lacunary band
        floor = min(float(field.values[j].max()) for j in range(lacunary_top + 1))
        T = field.threshold(0.5 * floor)
        assert all(T.mask(j).any() for j in range(lacunary_top + 1))
        assert carleson_sup(T, (4, lacunary_top), 0.1).diverging


class TestTruncateProjection:
    def test_eps_zero_is_identity(self, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        g = truncate_projection(coeffs, 1.0, 0.0)
        assert g.d == coeffs.d
        for j in coeffs.c:
            assert np.array_equal(g.c[j], coeffs.c[j])

    def test_eps_above_norm_zeroes_all_detail(self, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        g = truncate_projection(coeffs, 1.0, lip_wavelet_norm(coeffs, 1.0))
        assert g.d == coeffs.d
        assert all(np.all(a == 0.0) for a in g.c.values())

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_tail_norm_bounded_by_eps(self, s, frac, random_12, bank8):
        coeffs = analyze(random_12, bank8)
        eps = frac * scale_ratio_field(coeffs, s).max_value
        g = truncate_projection(coeffs, s, eps)
        assert lip_wavelet_norm(coeffs.minus(g), s) <= eps

    def test_projection_bad_set_is_kept_set(self, weier1_12, bank8):
        # thresholding the projection at a vanishing level recovers exactly
        # the cubes kept at the original threshold
        coeffs = analyze(weier1_12, bank8)
        s, eps = 1.0, 0.45
        g = truncate_projection(coeffs, s, eps)
        kept = scale_ratio_field(coeffs, s).threshold(eps)
        recovered = scale_ratio_field(g, s).threshold(1e-12 * lip_wavelet_norm(coeffs, s))
        assert recovered == kept

