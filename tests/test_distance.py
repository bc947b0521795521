import math
import weakref

import numpy as np
import pytest

from conftest import BAD_S, BOTH_S, carleson, same_bits, same_carleson, same_fields
from zygdist import GridFunction, distance, parse_function_spec, synthesize
from zygdist.distance import (C2_DECAY_KAPPA, C_GRID, METHODS, R_GRID, compare_methods,
                              divergence, epsilon_star, inclusion_probe, method_context,
                              projection_distance_witness)
from zygdist.dyadic import LOG2, LevelField, carleson_sup, threshold_set
from zygdist.wavelet import (analyze, jbmo_box_sup, lip_wavelet_norm, scale_ratio_field,
                             truncate_projection)

J = 12
J_RANGE = (6, 10)
THETA = 0.1


@pytest.fixture(scope="module")
def fields_weier(weier1_12):
    return {m: method_context(weier1_12, (1.0,), m)[0] for m in METHODS}


def estimate(f, s, method, J_range=J_RANGE):
    return epsilon_star(method_context(f, (s,), method), (s,), J_range, THETA)[0]


# grids of the lockstep check; over LOCKSTEP_RANGE their fields are read to
# depths 10 and 11 (n=1 J=12: secdiff and Poisson, wavelet), 11 (n=1 J=14)
# and 7 and 8 (n=2 J=9: secdiff and Poisson, wavelet)
LOCKSTEP_GRIDS = [
    (1, 12, "weierstrass s=1 levels=9 signs=plus"),
    (1, 14, "sum weierstrass s=0.5 levels=12 seed=2 signs=random + trig k=3 a=0.5"),
    (2, 9, "sum weierstrass s=1 levels=6 signs=plus + wavelet-atom l=3 j=3 k=2,5"),
]
LOCKSTEP_RANGE = (5, 11)


@pytest.fixture(scope="module")
def mixed_fields():
    """Every method's fields at both s on each LOCKSTEP_GRIDS grid, the n=2
    secdiff field capped at depth 6 and a zero field, shuffled; and their s."""
    fields, s = [], []
    for n, Jg, text in LOCKSTEP_GRIDS:
        f = synthesize(parse_function_spec(text), n, Jg)
        for m in METHODS:
            fields += method_context(f, BOTH_S, m)
            s += BOTH_S
    fields += method_context(f, (0.5,), "secdiff", J_max=6)
    fields += method_context(GridFunction(1, J, np.zeros(2**J)), (1.0,), "secdiff")
    s += (0.5, 1.0)
    order = np.random.default_rng(29).permutation(len(fields))
    return tuple(fields[i] for i in order), tuple(s[i] for i in order)


def spy_walks(monkeypatch):
    """Wrap distance.carleson_sup; returns a list that gets, per call, its
    sets, its depth range and its M_J."""
    walks = []

    def spy(sets, J_range):
        m_values = carleson_sup(sets, J_range)
        walks.append((sets, J_range, m_values))
        return m_values

    monkeypatch.setattr(distance, "carleson_sup", spy)
    return walks


class TestMethodContext:
    def test_wavelet_depth_cap_drops_deeper_levels(self, weier1_12, bank8):
        full = scale_ratio_field(analyze(weier1_12, bank8), 1.0)
        k = 1  # the fixture's field peaks at level 2, so the cap is visible
        capped = method_context(weier1_12, (1.0,), "wavelet", J_max=k, bank=bank8)[0]
        assert capped.J_max == k
        assert sorted(capped.values) == list(range(k + 1))
        assert capped.max_value == max(float(full.values[j].max()) for j in range(k + 1))
        assert capped.max_value < full.max_value
        assert capped.threshold(0.0).J_max == k

    @pytest.mark.parametrize("method", METHODS)
    def test_one_build_per_s_tuple(self, method, several_s_f):
        # a call with BOTH_S returns, bitwise, what one call per s returns,
        # also under a depth cap
        f = several_s_f
        for J_max in (None, f.J_grid // 2):
            both = method_context(f, BOTH_S, method, J_max=J_max)
            assert len(both) == len(BOTH_S)
            for s, fld in zip(BOTH_S, both):
                assert same_fields(fld, method_context(f, (s,), method, J_max=J_max)[0])

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("s", BAD_S)
    def test_bad_s_rejected(self, weier1_12, method, s):
        # the wavelet path once returned a field for s = 1.5 and nan
        with pytest.raises(ValueError, match="s must"):
            method_context(weier1_12, s, method)

    @pytest.mark.parametrize("method", METHODS)
    def test_float_s_rejected(self, weier1_12, method):
        with pytest.raises(TypeError, match="s must be a tuple"):
            method_context(weier1_12, 1.0, method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("J_max", [-1, -3])
    def test_negative_depth_rejected(self, weier1_12, method, J_max):
        # the wavelet path once returned an empty field, whose max_value 0.0
        # epsilon_star reported as a trivial field
        with pytest.raises(ValueError, match=f"J_max={J_max} must be >= 0"):
            method_context(weier1_12, (1.0,), method, J_max=J_max)


class TestEpsilonStar:
    def test_weierstrass_separates(self, fields_weier):
        for m in METHODS:
            est = epsilon_star((fields_weier[m],), (1.0,), J_RANGE, THETA)[0]
            assert est.epsilon_star > 0.05 * est.eps_hi
            assert not est.collapsed
            assert est.monotone

    def test_bracket_invariants(self, fields_weier):
        est = epsilon_star((fields_weier["secdiff"],), (1.0,), J_RANGE, THETA)[0]
        lo, hi = est.bracket
        assert lo <= est.epsilon_star <= hi
        assert hi - lo <= est.eps_hi * 2.0**-est.iterations * (1 + 1e-12)
        # the top probe (at eps_hi itself) must be non-diverging: empty set
        top = max(est.trace, key=lambda p: p.eps)
        assert not top.diverging

    def test_wavelet_collapse_for_smooth_and_atoms(self, atom_12):
        trig = synthesize(parse_function_spec("sum trig k=1 a=1 + trig k=7 a=0.2"), 1, J)
        for f in (trig, atom_12):
            est = estimate(f, 1.0, "wavelet")
            assert est.collapsed
            assert est.epsilon_star < est.resolution

    def test_smooth_below_rough_under_every_method(self, fields_weier):
        trig = synthesize(parse_function_spec("sum trig k=1 a=1 + trig k=7 a=0.2"), 1, J)
        for m in METHODS:
            rough = epsilon_star((fields_weier[m],), (1.0,), J_RANGE, THETA)[0]
            smooth = estimate(trig, 1.0, m)
            assert smooth.epsilon_star / smooth.eps_hi < rough.epsilon_star / rough.eps_hi

    def test_depth_artifact_shrinks_with_range(self):
        # for a smooth function the threshold estimate decays as the fit
        # window deepens (the finite-depth bias, not a true positive value)
        trig = synthesize(parse_function_spec("trig k=1 a=1"), 1, J)
        shallow = estimate(trig, 1.0, "secdiff", (4, 8))
        deep = estimate(trig, 1.0, "secdiff", (6, 10))
        assert deep.epsilon_star < shallow.epsilon_star

    def test_scaling_homogeneity_exact(self, weier1_12):
        lam = 4.0
        base = estimate(weier1_12, 1.0, "secdiff")
        scaled = estimate(weier1_12.scaled(lam), 1.0, "secdiff")
        assert scaled.epsilon_star == lam * base.epsilon_star

    def test_lockstep_matches_one_field_calls_bitwise(self, mixed_fields, monkeypatch):
        fields, s = mixed_fields
        walks = spy_walks(monkeypatch)
        together = epsilon_star(fields, s, LOCKSTEP_RANGE, THETA)
        monkeypatch.undo()
        assert len(together) == len(fields)
        assert {(fld.n, fld.method) for fld in fields} == {(n, m) for n in (1, 2) for m in METHODS}
        # fields of one n and depth share each step's walk
        assert max(len(sets) for sets, _, _ in walks) >= 8
        assert len({(sets[0].n, sets[0].J_max) for sets, _, _ in walks}) >= 5
        for fld, t, est in zip(fields, s, together):
            alone = epsilon_star((fld,), (t,), LOCKSTEP_RANGE, THETA)[0]
            assert est.as_dict() == alone.as_dict()
        assert together.trace == [p for est in together for p in est.trace]
        for sets, J_range, m_values in walks:
            verdicts = divergence(m_values, J_range, THETA)
            for A, column, verdict in zip(sets, m_values.T, verdicts):
                assert same_carleson((column, *verdict), carleson((A,), J_range, THETA)[0])

    def test_repeated_sets_not_walked_again(self, fields_weier, monkeypatch):
        # the superlevel sets are nested, so a field walks one set per
        # distinct cell count among its probes
        fields = tuple(fields_weier[m] for m in METHODS)
        walks = spy_walks(monkeypatch)
        estimates = epsilon_star(fields, (1.0,) * len(fields), J_RANGE, THETA)
        distinct = 0
        for fld, est in zip(fields, estimates):
            depth = min(J_RANGE[1], fld.J_max)
            distinct += len({threshold_set(fld.values, p.eps, fld.n, depth).cell_count
                             for p in est.trace})
        assert sum(len(sets) for sets, _, _ in walks) == distinct
        assert distinct < sum(len(est.trace) for est in estimates)

    def test_inputs_checked(self, fields_weier):
        fld = fields_weier["secdiff"]
        for fields in (fld, [fld]):
            with pytest.raises(TypeError, match="fields must be a tuple"):
                epsilon_star(fields, (1.0,), J_RANGE, THETA)
        with pytest.raises(TypeError, match="s must be a tuple"):
            epsilon_star((fld,), 1.0, J_RANGE, THETA)
        with pytest.raises(ValueError, match="2 fields need as many s, got 1"):
            epsilon_star((fld, fld), (1.0,), J_RANGE, THETA)
        for s in BAD_S:
            with pytest.raises(ValueError, match="s must"):
                epsilon_star((fld,) * len(s), s, J_RANGE, THETA)

    def test_inputs_checked_on_a_zero_field(self):
        # a trivial field is never probed, yet theta and J_range are checked
        [zero] = method_context(GridFunction(1, J, np.zeros(2**J)), (1.0,), "secdiff")
        assert zero.max_value == 0.0
        with pytest.raises(ValueError, match="theta=-1.0 must be finite and > 0"):
            epsilon_star((zero,), (1.0,), (2, 4), theta=-1.0)
        with pytest.raises(ValueError, match="empty or invalid depth range"):
            epsilon_star((zero,), (1.0,), (5, 2), THETA)

    def test_zero_field_trivial(self):
        f = GridFunction(1, J, np.zeros(2**J))
        est = estimate(f, 1.0, "secdiff")
        assert est.epsilon_star == 0.0
        assert est.collapsed

    def test_rough_set_occupies_every_level(self, fields_weier):
        # below the critical threshold the bad set keeps a fixed share of
        # every level (level 0 excepted: probe heights there are near the
        # full period, where the lacunary terms wrap and cancel), which is
        # what drives the divergence flag
        fld = fields_weier["secdiff"]
        est = epsilon_star((fld,), (1.0,), J_RANGE, THETA)[0]
        S = fld.threshold(0.5 * est.epsilon_star)
        for j in range(1, S.J_max + 1):
            assert S.mask(j).mean() >= 0.05


class TestDivergence:
    """The verdict on hand-built M_J columns, which pins the fit window: the
    top half of the depths, both depths of a two-depth range, none of one."""

    def test_one_depth_has_slope_zero(self):
        assert divergence(np.array([[0.0, 5.0]]), (4, 4), THETA) == [(0.0, False), (0.0, False)]

    def test_two_depths_fit_both(self):
        [(up, flag_up), (flat, flag_flat)] = divergence(
            np.array([[1.0, 2.0], [3.0, 2.0]]), (6, 7), THETA)
        assert abs(up - 2.0) < 1e-12 and flag_up
        assert abs(flat) < 1e-12 and not flag_flat

    def test_top_half_of_the_range(self):
        # on (0, 12) the fit reads depths 6..12: growth that stops at depth 5
        # is not seen, growth that starts at depth 6 is
        J = np.arange(13.0)
        steep_then_flat = np.minimum(J, 5.0) * LOG2
        flat_then_steep = np.maximum(J - 6.0, 0.0) * LOG2
        [(slope_a, a), (slope_b, b)] = divergence(
            np.stack([steep_then_flat, flat_then_steep], axis=1), (0, 12), THETA)
        assert abs(slope_a) < 1e-12 and not a
        assert abs(slope_b - LOG2) < 1e-12 and b

    def test_window_starts_at_the_middle_depth(self):
        # a step between depths 5 and 6 lies below the window, one between
        # depths 6 and 7 inside it
        J = np.arange(13)
        steps = np.stack([(J >= 6) * 10.0, (J >= 7) * 10.0], axis=1)
        [(_, below), (_, inside)] = divergence(steps, (0, 12), THETA)
        assert not below and inside

    @pytest.mark.parametrize("J_range", [(3, 3), (3, 4), (3, 5), (0, 12)])
    def test_columns_match_one_column_calls_bitwise(self, J_range):
        rng = np.random.default_rng(list(J_range))
        depths = J_range[1] - J_range[0] + 1
        m_values = np.cumsum(rng.random((depths, 5)), axis=0) * LOG2
        together = divergence(m_values, J_range, THETA)
        for k, (slope, flag) in enumerate(together):
            [(alone, alone_flag)] = divergence(m_values[:, k:k + 1].copy(), J_range, THETA)
            assert same_bits(slope, alone) and flag == alone_flag

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
    def test_theta_must_be_finite_and_positive(self, theta):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            divergence(np.zeros((5, 1)), (0, 4), theta)


def _certified(est):
    return any(w.startswith("C2-decay certificate") for w in est.warnings)


class TestC2DecayCertificate:
    @pytest.mark.parametrize("share, certified", [(0.74, False), (0.76, True)])
    def test_kappa_pinned(self, share, certified):
        # a constant-per-level field decaying at share * (2-s) per level: the
        # slope test sees a full stack through the window at small eps, so
        # only the certificate can collapse it
        assert C2_DECAY_KAPPA == 0.75
        s, J_max = 1.0, 10
        fld = LevelField("secdiff", 1, J_max, {
            j: np.full(2**j, 2.0 ** (-share * (2.0 - s) * j)) for j in range(J_max + 1)})
        est = epsilon_star((fld,), (s,), (6, 10), THETA)[0]
        assert _certified(est) is certified
        assert est.collapsed is certified

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("method", ["secdiff", "poisson"])
    @pytest.mark.parametrize("spec, J_grid, J_range", [
        ("sum trig k=1 a=1 + trig k=7 a=0.2", 12, (6, 10)),
        ("wavelet-atom l=1 j=3 k=2", 14, (7, 14)),
    ])
    def test_smooth_collapses_when_range_reaches_deepest_level(
            self, spec, J_grid, J_range, method, s):
        f = synthesize(parse_function_spec(spec), 1, J_grid)
        est = estimate(f, s, method, J_range)
        assert J_range[1] >= est.J_max
        assert _certified(est)
        assert f"-(2-s) = {-(2.0 - s):.4f}" in est.warnings[0]
        assert est.collapsed
        assert est.epsilon_star < est.resolution
        assert len(est.trace) == est.iterations + 1
        assert not any(p.diverging for p in est.trace)

    def test_shallow_range_keeps_slope_test(self):
        # the same smooth function judged on a range that stops above the
        # field's deepest level is left to the slope test
        trig = synthesize(parse_function_spec("sum trig k=1 a=1 + trig k=7 a=0.2"), 1, J)
        est = estimate(trig, 1.0, "secdiff", (4, 8))
        assert not _certified(est)
        assert not est.collapsed

    @pytest.mark.parametrize("spec, s", [
        ("weierstrass s=0.5 levels=12 signs=plus", 0.5),
        ("weierstrass s=1 levels=12 signs=plus", 1.0),
        ("weierstrass s=1 levels=12 signs=plus", 0.5),
    ])
    def test_rough_ladders_not_certified(self, spec, s):
        f = synthesize(parse_function_spec(spec), 1, 14)
        for m in METHODS:
            est = estimate(f, s, m, (7, 14))
            assert not _certified(est), m
            assert not est.collapsed, m

    def test_flat_sparse_field_left_to_carleson_mass(self):
        # xlogx has a flat envelope but a sparse set: the slope test, not the
        # certificate, decides it
        f = synthesize(parse_function_spec("xlogx"), 1, 14)
        for m in METHODS:
            assert not _certified(estimate(f, 1.0, m, (7, 14))), m


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

    def test_fields_built_one_at_a_time(self, weier1_12, monkeypatch):
        # each field must be dead before the next is built, so that at most
        # one grid-sized field is alive at a time
        built = []
        build = distance.method_context

        def spy(*args, **kwargs):
            assert all(ref() is None for ref in built), "an earlier field is still alive"
            fields = build(*args, **kwargs)
            built.extend(weakref.ref(fld) for fld in fields)
            return fields

        monkeypatch.setattr(distance, "method_context", spy)
        compare_methods(weier1_12, 1.0, J_RANGE, THETA)
        assert len(built) == len(METHODS)
        assert all(ref() is None for ref in built)

    def test_n2_pipeline_runs(self):
        f = synthesize(parse_function_spec("weierstrass s=1 levels=4"), 2, 8)
        comp = compare_methods(f, 1.0, (2, 5), THETA)
        for est in comp.estimates.values():
            assert est.eps_hi > 0
            assert 0.0 <= est.epsilon_star <= est.eps_hi


class TestInclusionProbe:
    def test_empty_source_vacuous(self, fields_weier):
        big_eps = fields_weier["secdiff"].max_value * 2.0
        rep = inclusion_probe(fields_weier["secdiff"], fields_weier["poisson"], big_eps)
        assert rep.source_cells == 0
        assert all(frac == 1.0 for row in rep.fractions for frac in row)
        assert rep.achieved == (1.0, 0.5)

    def test_self_inclusion_identity(self, fields_weier):
        fld = fields_weier["secdiff"]
        eps = 0.3 * fld.max_value
        rep = inclusion_probe(fld, fld, eps)
        assert rep.source_cells > 0
        assert rep.fractions == [[1.0] * len(R_GRID)] * len(C_GRID)
        assert rep.achieved == (1.0, 0.5)

    def test_grids_are_the_constants(self, fields_weier):
        # the probe walks C_GRID then R_GRID as written: c falling, R rising
        assert C_GRID == tuple(sorted(C_GRID, reverse=True))
        assert R_GRID == tuple(sorted(R_GRID))
        rep = inclusion_probe(fields_weier["secdiff"], fields_weier["poisson"],
                              0.3 * fields_weier["secdiff"].max_value).as_dict()
        assert rep["c_grid"] == list(C_GRID) == [1.0, 0.5, 0.25, 0.125]
        assert rep["R_grid"] == list(R_GRID) == [0.5, 1.0, 2.0, 4.0]
        assert [len(row) for row in rep["fractions"]] == [4] * 4

    def test_wavelet_inside_enlarged_secdiff(self, fields_weier):
        est = epsilon_star((fields_weier["wavelet"],), (1.0,), J_RANGE, THETA)[0]
        rep = inclusion_probe(fields_weier["wavelet"], fields_weier["secdiff"],
                              0.5 * est.epsilon_star, eta=0.99)
        assert rep.source_cells > 0
        assert rep.achieved is not None

    def test_fractions_monotone(self, fields_weier):
        est = epsilon_star((fields_weier["secdiff"],), (1.0,), J_RANGE, THETA)[0]
        rep = inclusion_probe(fields_weier["secdiff"], fields_weier["poisson"],
                              0.5 * est.epsilon_star)
        mat = np.asarray(rep.fractions)  # rows: c descending; cols: R ascending
        assert np.all(np.diff(mat, axis=1) >= -1e-12)  # growing R helps
        assert np.all(np.diff(mat, axis=0) >= -1e-12)  # shrinking c helps

    @pytest.mark.parametrize("eta", [1.5, -1.0, 0.0, float("nan")])
    def test_eta_outside_unit_interval_rejected(self, fields_weier, eta):
        # eta > 1 is never achieved, and eta <= 0 is achieved by any grid point
        src, tgt = fields_weier["secdiff"], fields_weier["poisson"]
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            inclusion_probe(src, tgt, 0.1, eta=eta)

    def test_eta_one_accepted(self, fields_weier):
        fld = fields_weier["secdiff"]
        rep = inclusion_probe(fld, fld, 0.3 * fld.max_value, eta=1.0)
        assert rep.achieved == (1.0, 0.5)

    def test_fields_of_different_n_rejected(self, fields_weier):
        f2 = synthesize(parse_function_spec("weierstrass s=1 levels=3"), 2, 6)
        flat = fields_weier["secdiff"]
        for src, tgt in ((flat, method_context(f2, (1.0,), "poisson")[0]),
                         (method_context(f2, (1.0,), "secdiff")[0], flat)):
            with pytest.raises(ValueError, match="n=2"):
                inclusion_probe(src, tgt, 0.1)


class TestProjectionWitness:
    def test_eps_zero(self, weier1_12, bank8):
        w = projection_distance_witness(analyze(weier1_12, bank8), 1.0, 0.0)
        assert w.tail_norm == 0.0
        assert w.tail_ok and w.box_ok

    def test_eps_above_norm_trivial(self, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        eps = lip_wavelet_norm(coeffs, 1.0)
        w = projection_distance_witness(coeffs, 1.0, eps)
        assert w.kept_cells == 0
        assert w.tail_ok and w.box_ok
        assert abs(w.d - coeffs.d) < 1e-15

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_mid_eps_bounds_hold(self, frac, weier1_12, bank8):
        coeffs = analyze(weier1_12, bank8)
        eps = frac * lip_wavelet_norm(coeffs, 1.0)
        w = projection_distance_witness(coeffs, 1.0, eps)
        assert w.tail_ok
        assert w.tail_norm <= eps
        assert w.box_ok
        assert all(lhs <= rhs * (1 + 1e-12) + 1e-300 for _, lhs, rhs in w.per_depth)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.75])
    def test_per_depth_matches_one_call_per_depth_bitwise(self, s, frac, weier1_12, bank8):
        # the two all-depth passes against one single-depth call of each
        # functional per depth, the witness's calls in zygdist 0.2.1
        coeffs = analyze(weier1_12, bank8)
        ratio = scale_ratio_field(coeffs, s)
        eps = frac * ratio.max_value
        w = projection_distance_witness(coeffs, s, eps)
        g = truncate_projection(coeffs, s, eps)
        T = ratio.threshold(eps)
        factor = (2**coeffs.n - 1) * ratio.max_value**2
        want = [(J, jbmo_box_sup(g, s, (J, J))[0],
                 factor * carleson_sup((T,), (J, J))[0, 0] / LOG2)
                for J in range(coeffs.J_grid)]
        assert np.array_equal(np.array(w.per_depth).view(np.int64),
                              np.array(want).view(np.int64))
