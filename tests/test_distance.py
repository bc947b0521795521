import numpy as np
import pytest

from zygdist import GridFunction, parse_function_spec, synthesize
from zygdist.distance import (METHODS, compare_methods, epsilon_star,
                              inclusion_probe, method_context,
                              projection_distance_witness)
from zygdist.wavelet import analyze, lip_wavelet_norm, scale_ratio_field

J = 12
J_RANGE = (6, 10)
THETA = 0.1


@pytest.fixture(scope="module")
def contexts_weier(weier1_12):
    return {m: method_context(weier1_12, 1.0, m) for m in METHODS}


class TestMethodContext:
    def test_wavelet_depth_cap_drops_deeper_levels(self, weier1_12, bank8):
        full = scale_ratio_field(analyze(weier1_12, bank8), 1.0)
        k = 1  # the fixture's field peaks at level 2, so the cap is visible
        capped = method_context(weier1_12, 1.0, "wavelet", J_max=k, bank=bank8)
        assert capped.J_max == k
        assert sorted(capped.values) == list(range(k + 1))
        assert capped.max_value == max(float(full.values[j].max()) for j in range(k + 1))
        assert capped.max_value < full.max_value
        assert capped.threshold(0.0).J_max == k


class TestEpsilonStar:
    def test_weierstrass_separates(self, weier1_12, contexts_weier):
        for m in METHODS:
            est = epsilon_star(weier1_12, 1.0, m, J_RANGE, THETA,
                               context=contexts_weier[m])
            assert est.epsilon_star > 0.05 * est.eps_hi
            assert not est.collapsed
            assert est.monotone

    def test_bracket_invariants(self, weier1_12, contexts_weier):
        est = epsilon_star(weier1_12, 1.0, "secdiff", J_RANGE, THETA,
                           context=contexts_weier["secdiff"])
        lo, hi = est.bracket
        assert lo <= est.epsilon_star <= hi
        assert hi - lo <= est.eps_hi * 2.0**-est.iterations * (1 + 1e-12)
        # the top probe (at eps_hi itself) must be non-diverging: empty set
        top = max(est.trace, key=lambda p: p.eps)
        assert not top.diverging

    def test_wavelet_collapse_for_smooth_and_atoms(self, atom_12):
        trig = synthesize(parse_function_spec("sum trig k=1 a=1 + trig k=7 a=0.2"), 1, J)
        for f in (trig, atom_12):
            est = epsilon_star(f, 1.0, "wavelet", J_RANGE, THETA)
            assert est.collapsed
            assert est.epsilon_star < est.resolution

    def test_smooth_below_rough_under_every_method(self, weier1_12, contexts_weier):
        trig = synthesize(parse_function_spec("sum trig k=1 a=1 + trig k=7 a=0.2"), 1, J)
        for m in METHODS:
            rough = epsilon_star(weier1_12, 1.0, m, J_RANGE, THETA,
                                 context=contexts_weier[m])
            smooth = epsilon_star(trig, 1.0, m, J_RANGE, THETA)
            assert smooth.epsilon_star / smooth.eps_hi < rough.epsilon_star / rough.eps_hi

    def test_depth_artifact_shrinks_with_range(self):
        # for a smooth function the threshold estimate decays as the fit
        # window deepens (the finite-depth bias, not a true positive value)
        trig = synthesize(parse_function_spec("trig k=1 a=1"), 1, J)
        shallow = epsilon_star(trig, 1.0, "secdiff", (4, 8), THETA)
        deep = epsilon_star(trig, 1.0, "secdiff", (6, 10), THETA)
        assert deep.epsilon_star < shallow.epsilon_star

    def test_scaling_homogeneity_exact(self, weier1_12):
        lam = 4.0
        base = epsilon_star(weier1_12, 1.0, "secdiff", J_RANGE, THETA)
        scaled = epsilon_star(weier1_12.scaled(lam), 1.0, "secdiff", J_RANGE, THETA)
        assert scaled.epsilon_star == lam * base.epsilon_star

    def test_zero_field_trivial(self):
        f = GridFunction(1, J, np.zeros(2**J))
        est = epsilon_star(f, 1.0, "secdiff", J_RANGE, THETA)
        assert est.epsilon_star == 0.0
        assert est.collapsed

    def test_rough_set_occupies_every_level(self, weier1_12, contexts_weier):
        # below the critical threshold the bad set keeps a fixed share of
        # every level (level 0 excepted: probe heights there are near the
        # full period, where the lacunary terms wrap and cancel), which is
        # what drives the divergence flag
        ctx = contexts_weier["secdiff"]
        est = epsilon_star(weier1_12, 1.0, "secdiff", J_RANGE, THETA, context=ctx)
        S = ctx.threshold(0.5 * est.epsilon_star)
        for j in range(1, S.J_max + 1):
            assert S.mask(j).mean() >= 0.05


class TestCompareMethods:
    def test_weierstrass_band(self, weier1_12):
        comp = compare_methods(weier1_12, 1.0, J_RANGE, THETA)
        assert comp.within_band
        for r in comp.ratios.values():
            assert 1 / 32 <= r <= 32

    def test_ratio_invariant_under_scaling(self, weier05_12):
        a = compare_methods(weier05_12, 0.5, J_RANGE, THETA)
        b = compare_methods(weier05_12.scaled(4.0), 0.5, J_RANGE, THETA)
        for key in a.ratios:
            assert a.ratios[key] == pytest.approx(b.ratios[key], rel=1e-12)

    def test_zero_zero_convention(self):
        # exactly-zero probe fields on both sides pin the ratio at one
        f = GridFunction(1, J, np.full(2**J, 2.0))
        comp = compare_methods(f, 1.0, J_RANGE, THETA)
        assert comp.ratios["secdiff/poisson"] == 1.0

    def test_n2_pipeline_runs(self):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), 2, 8)
        comp = compare_methods(f, 1.0, (2, 5), THETA)
        for est in comp.estimates.values():
            assert est.eps_hi > 0
            assert 0.0 <= est.epsilon_star <= est.eps_hi


class TestInclusionProbe:
    def test_empty_source_vacuous(self, weier1_12, contexts_weier):
        big_eps = contexts_weier["secdiff"].max_value * 2.0
        rep = inclusion_probe(weier1_12, 1.0, big_eps, "secdiff", "poisson",
                              source_context=contexts_weier["secdiff"],
                              target_context=contexts_weier["poisson"])
        assert rep.source_cells == 0
        assert all(frac == 1.0 for row in rep.fractions for frac in row)
        assert rep.achieved == (1.0, 0.5)

    def test_self_inclusion_identity(self, weier1_12, contexts_weier):
        ctx = contexts_weier["secdiff"]
        eps = 0.3 * ctx.max_value
        rep = inclusion_probe(weier1_12, 1.0, eps, "secdiff", "secdiff",
                              c_grid=(1.0,), R_grid=(0.0,),
                              source_context=ctx, target_context=ctx)
        assert rep.fractions == [[1.0]]
        assert rep.achieved == (1.0, 0.0)

    def test_wavelet_inside_enlarged_secdiff(self, weier1_12, contexts_weier):
        est = epsilon_star(weier1_12, 1.0, "wavelet", J_RANGE, THETA,
                           context=contexts_weier["wavelet"])
        rep = inclusion_probe(weier1_12, 1.0, 0.5 * est.epsilon_star,
                              "wavelet", "secdiff", eta=0.99,
                              source_context=contexts_weier["wavelet"],
                              target_context=contexts_weier["secdiff"])
        assert rep.source_cells > 0
        assert rep.achieved is not None

    def test_fractions_monotone(self, weier1_12, contexts_weier):
        est = epsilon_star(weier1_12, 1.0, "secdiff", J_RANGE, THETA,
                           context=contexts_weier["secdiff"])
        rep = inclusion_probe(weier1_12, 1.0, 0.5 * est.epsilon_star,
                              "secdiff", "poisson",
                              source_context=contexts_weier["secdiff"],
                              target_context=contexts_weier["poisson"])
        mat = np.asarray(rep.fractions)  # rows: c descending; cols: R ascending
        assert np.all(np.diff(mat, axis=1) >= -1e-12)  # growing R helps
        assert np.all(np.diff(mat, axis=0) >= -1e-12)  # shrinking c helps

    def test_bad_grids_rejected(self, weier1_12):
        with pytest.raises(ValueError):
            inclusion_probe(weier1_12, 1.0, 0.1, "secdiff", "poisson", c_grid=(2.0,))
        with pytest.raises(ValueError):
            inclusion_probe(weier1_12, 1.0, 0.1, "secdiff", "poisson", R_grid=(-1.0,))


class TestProjectionWitness:
    def test_eps_zero(self, weier1_12, bank8):
        w = projection_distance_witness(weier1_12, 1.0, 0.0, bank=bank8)
        assert w.tail_norm == 0.0
        assert w.tail_ok and w.box_ok

    def test_eps_above_norm_trivial(self, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        eps = lip_wavelet_norm(coeffs, 1.0)
        w = projection_distance_witness(weier1_12, 1.0, eps, bank=bank8)
        assert w.kept_cells == 0
        assert w.tail_ok and w.box_ok
        assert abs(w.d - coeffs.d) < 1e-15

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_mid_eps_bounds_hold(self, frac, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        eps = frac * lip_wavelet_norm(coeffs, 1.0)
        w = projection_distance_witness(weier1_12, 1.0, eps, bank=bank8)
        assert w.tail_ok
        assert w.tail_norm <= eps
        assert w.box_ok
        assert all(lhs <= rhs * (1 + 1e-12) + 1e-300 for _, lhs, rhs in w.per_depth)
