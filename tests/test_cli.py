import json
import math
import re
import tracemalloc

import pytest

import zygdist
import zygdist.gridfn
import zygdist.poisson
from zygdist.cli import EXIT_OK, EXIT_VALIDATION, RunConfig, _content_hash, main
from test_poisson import N2_FIELD_PEAK_SLACK_MIB

# tracemalloc peak of seminorms --n 2 --jgrid 10 --s 0.5, see test_n2_memory
N2_COMMAND_PEAK_MIB = 33.41


def run(argv):
    return main(argv)


def load_report(out_dir, prefix):
    paths = sorted(out_dir.glob(f"{prefix}_*.json"))
    assert paths, f"no {prefix} report in {out_dir}"
    return paths[-1], json.loads(paths[-1].read_text())


class TestSeminorms:
    def test_constant_spec(self, tmp_path):
        code = run(["seminorms", "--spec", "trig k=0 a=2", "--jgrid", "8",
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        path, rep = load_report(tmp_path, "seminorms")
        norms = rep["norms"]
        # constant: every oscillation-based part vanishes, sup-based values = |c|
        assert norms["zygmund_seminorm"] == 0.0
        assert norms["holder_direct"] == 2.0
        assert norms["poisson"] == 2.0
        assert abs(norms["jbmo_direct"] - 2.0) < 1e-10
        assert path.with_suffix(".csv").exists()

    def test_band_for_trig(self, tmp_path):
        code = run(["seminorms", "--spec", "trig k=1 a=1", "--jgrid", "10",
                    "--s", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rep = load_report(tmp_path, "seminorms")
        r = rep["ratios"]["holder_direct/wavelet_lip"]
        assert 1 / 50 < r < 50

    @pytest.mark.parametrize("spec", ["weierstrass s=2 levels=3", "trig k=abc a=1"])
    def test_bad_spec_exit_code(self, tmp_path, capsys, spec):
        code = run(["seminorms", "--spec", spec, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,message", [
        ("wavelet-atom l=1 j=3 k=2 p=8.0", "wavelet-atom: p must be an integer in 2..10"),
        ("weierstrass s=1 levels=4 signs=random seed=1.5", "weierstrass: seed must be an integer >= 0"),
        ("lacunary-random s=1 levels=4 seed=abc", "lacunary-random: seed must be an integer >= 0"),
        ("weierstrass s=1 levels=4 signs=random seed=-3", "weierstrass: seed must be an integer >= 0"),
        ("weierstrass s=1 levels=4 signs=random seed=1,2", "weierstrass: seed must be an integer >= 0"),
    ])
    def test_spec_integers_checked(self, tmp_path, capsys, spec, message):
        # README's grammar says p=<int> and seed=<int>; the validator names the key
        code = run(["seminorms", "--spec", spec, "--jgrid", "8", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", [
        "weierstrass s=1 levels=4 seed=3 signs=plus",
        "weierstrass s=1 levels=4 seed=3",  # signs=plus is the default
    ])
    def test_unused_seed_rejected(self, tmp_path, capsys, spec):
        # an unused seed would give one function two labels and two content hashes
        code = run(["seminorms", "--spec", spec, "--jgrid", "8", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: weierstrass signs=plus draws no sign, so it takes no seed\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["seminorms", "--spec", "trig k=1 a=1", "--jgrid", "8"],
        ["validate", "--criteria", "1"],
        ["sets", "--n", "2", "--jgrid", "7", "--jrange", "2:5", "--eps", "0.5",
         "--method", "poisson", "--spec", "weierstrass s=1 levels=5 signs=plus"],
    ], ids=["seminorms", "validate", "sets"])
    def test_reports_reproducible_modulo_timestamp(self, tmp_path, args):
        args = args + ["--out", str(tmp_path)]
        assert run(args) == EXIT_OK
        path, _ = load_report(tmp_path, args[0])
        first = path.read_text()
        assert run(args) == EXIT_OK
        second = path.read_text()
        scrub = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
        assert scrub(first) == scrub(second)

    def test_file_contents_enter_content_hash(self, tmp_path):
        # one spec text, two file contents: two reports, neither overwritten
        data = tmp_path / "samples.txt"
        for amp in (1.0, 2.0):
            data.write_text("\n".join(repr(amp * math.sin(2 * math.pi * k / 256))
                                      for k in range(256)))
            assert run(["seminorms", "--spec", f"file path={data}", "--jgrid", "8",
                        "--out", str(tmp_path)]) == EXIT_OK
        reports = [json.loads(p.read_text()) for p in tmp_path.glob("seminorms_*.json")]
        assert len({rep["content_hash"] for rep in reports}) == 2

    def test_output_directory_not_in_content_hash(self, tmp_path):
        # one input written under two --out directories: one hash, one file name
        reports = []
        for sub in ("a", "b"):
            assert run(["seminorms", "--spec", "trig k=1 a=1", "--jgrid", "8",
                        "--out", str(tmp_path / sub)]) == EXIT_OK
            reports.append(load_report(tmp_path / sub, "seminorms"))
        (path_a, rep_a), (path_b, rep_b) = reports
        assert rep_a["config"]["out"] != rep_b["config"]["out"]
        assert rep_a["content_hash"] == rep_b["content_hash"]
        assert path_a.name == path_b.name

    def test_n2_memory(self, tmp_path, monkeypatch):
        # the Bessel lift of jbmo_direct_norm sets the peak: its clongdouble half
        # spectrum and samples out (25.17 MiB) beside the function's samples (one
        # 8 MiB grid), 33.40-33.41 MiB in 6 runs.  holder_seminorm (32.72 MiB) and
        # analyze (32.46 MiB) come next; the wavelet table is freed before the
        # lift.  derivative_field (29.82 MiB with the samples) set it at 39.31-39.59
        # MiB while each of its threads held a spectrum buffer and a scratch
        monkeypatch.setattr(zygdist.gridfn, "_CPUS", 2)
        argv = ["seminorms", "--n", "2", "--jgrid", "10", "--s", "0.5",
                "--spec", "weierstrass s=0.5 levels=8 signs=plus", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            assert run(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (N2_COMMAND_PEAK_MIB + N2_FIELD_PEAK_SLACK_MIB) * 2**20

    @pytest.mark.parametrize("s", ["1", "0.5"])
    def test_norm_order(self, tmp_path, s):
        # the Poisson norm is computed first; the report keeps its key order
        # (sorted in the JSON, the order of computation before that in the CSV)
        assert run(["seminorms", "--spec", "trig k=1 a=1", "--jgrid", "8", "--s", s,
                    "--out", str(tmp_path)]) == EXIT_OK
        path, _ = load_report(tmp_path, "seminorms")
        order = ["holder_direct", "zygmund_seminorm", "wavelet_lip", "wavelet_jbmo",
                 "jbmo_direct", "poisson"]
        assert list(json.loads(path.read_text())["norms"]) == sorted(order)
        rows = path.with_suffix(".csv").read_text().splitlines()
        assert rows[0] == "norm,value"
        if s != "1":  # the Zygmund seminorm is None, and None is not written
            order.remove("zygmund_seminorm")
        assert [row.split(",")[0] for row in rows[1:]] == order

    def test_wavelet_p_reaches_the_report(self, tmp_path):
        argv = ["seminorms", "--spec", "weierstrass s=1 levels=6 signs=plus", "--jgrid", "8"]
        assert run(argv + ["--out", str(tmp_path / "p8")]) == EXIT_OK
        assert run(argv + ["--wavelet-p", "4", "--out", str(tmp_path / "p4")]) == EXIT_OK
        _, p8 = load_report(tmp_path / "p8", "seminorms")
        _, p4 = load_report(tmp_path / "p4", "seminorms")
        assert (p8["config"]["wavelet_p"], p4["config"]["wavelet_p"]) == (8, 4)
        assert p4["norms"]["wavelet_lip"] != p8["norms"]["wavelet_lip"]

    def test_unsupported_wavelet_p_rejected(self, tmp_path, capsys):
        code = run(["seminorms", "--spec", "trig k=1 a=1", "--jgrid", "8",
                    "--wavelet-p", "11", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "p=11" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_version_enters_content_hash(self, monkeypatch):
        cfg = RunConfig()
        before = _content_hash(cfg, "trig k=1 a=1", None)
        monkeypatch.setattr(zygdist, "__version__", "0.0.0+other")
        assert _content_hash(cfg, "trig k=1 a=1", None) != before


class TestSets:
    def test_huge_eps_empty(self, tmp_path):
        code = run(["sets", "--spec", "trig k=1 a=1", "--jgrid", "8",
                    "--eps", "1e9", "--method", "secdiff",
                    "--jrange", "2:6", "--out", str(tmp_path)])
        assert code == EXIT_OK
        path, rep = load_report(tmp_path, "sets")
        assert rep["cells"] == 0
        assert all(m == 0.0 for m in rep["carleson"]["M_J"])
        assert not rep["carleson"]["diverging"]
        assert path.with_suffix(".csv").exists()

    def test_set_schema(self, tmp_path):
        code = run(["sets", "--spec", "weierstrass s=1 levels=6 signs=plus",
                    "--jgrid", "10", "--eps", "0.5", "--method", "wavelet",
                    "--jrange", "3:8", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rep = load_report(tmp_path, "sets")
        assert set(rep["set"].keys()) == {"n", "J_max", "cells"}
        assert rep["cells"] == len(rep["set"]["cells"])

    @pytest.mark.parametrize("option,values", [
        ("--method", ("secdiff", "poisson")), ("--eps", ("5", "6")),
    ])
    def test_options_enter_report_name(self, tmp_path, option, values):
        # one spec, two option values in one --out: two reports, neither overwritten
        base = {"--method": "secdiff", "--eps": "5"}
        for value in values:
            argv = [t for item in {**base, option: value}.items() for t in item]
            assert run(["sets", "--spec", "trig k=1 a=1", "--jgrid", "8", "--jrange", "2:5",
                        *argv, "--out", str(tmp_path)]) == EXIT_OK
        assert len(list(tmp_path.glob("sets_*.json"))) == 2

    @pytest.mark.parametrize("jrange", [(7, 10), (3, 10)])
    def test_range_past_the_field_not_clamped(self, tmp_path, jrange):
        # J_max = 6 at --jgrid 8: the report walks the whole range, as the
        # bisection of distance does, not the part above J_max
        spec = "weierstrass s=1 levels=6 signs=plus"
        code = run(["sets", "--spec", spec, "--jgrid", "8", "--eps", "0.5",
                    "--method", "poisson", "--jrange", "{}:{}".format(*jrange),
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rep = load_report(tmp_path, "sets")
        f = zygdist.synthesize(zygdist.parse_function_spec(spec), 1, 8)
        [fld] = zygdist.distance.method_context(f, (1.0,), "poisson")
        assert fld.J_max < jrange[1]
        m_values = zygdist.carleson_sup((fld.threshold(0.5),), jrange)
        [(slope, diverging)] = zygdist.divergence(m_values, jrange, 0.1)
        assert rep["carleson"] == {"J": list(range(jrange[0], jrange[1] + 1)),
                                   "M_J": m_values[:, 0].tolist(),
                                   "slope": slope, "diverging": diverging}


class TestDistance:
    def test_atom_runs(self, tmp_path, capsys):
        code = run(["distance", "--spec", "wavelet-atom l=1 j=2 k=1",
                    "--jgrid", "10", "--jrange", "4:8", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rep = load_report(tmp_path, "distance")
        methods = rep["comparisons"]["methods"]
        assert set(methods) == {"secdiff", "wavelet", "poisson"}
        assert methods["wavelet"]["collapsed"]
        for entry in methods.values():
            assert entry["slope_trace"]
        # every report warning is also printed; the secdiff field is certified here
        printed = capsys.readouterr().err.splitlines()
        expected = [f"warning: {m}: {w}" for m, e in methods.items() for w in e["warnings"]]
        assert sorted(printed) == sorted(expected)
        assert any(line.startswith("warning: secdiff: C2-decay certificate") for line in printed)

    def test_jgrid_over_limit_rejected_before_allocating(self, tmp_path, capsys):
        # 2^40 samples could not be allocated: the grid is checked first
        code = run(["distance", "--spec", "trig k=1 a=1", "--jgrid", "40",
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "outside [4, 20]" in capsys.readouterr().err
        assert not list(tmp_path.glob("distance_*.json"))


class TestInclusion:
    def test_probe_runs(self, tmp_path):
        code = run(["inclusion", "--spec", "weierstrass s=1 levels=6 signs=plus",
                    "--jgrid", "10", "--jrange", "4:8",
                    "--source", "wavelet", "--target", "secdiff",
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rep = load_report(tmp_path, "inclusion")
        inc = rep["inclusions"]
        assert inc["source"] == "wavelet"
        assert inc["achieved"] is not None

    def test_source_field_built_once(self, tmp_path, monkeypatch):
        # the bisection for eps and the probe share one Poisson field
        calls = []
        build = zygdist.poisson.derivative_field

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(zygdist.poisson, "derivative_field", counted)
        code = run(["inclusion", "--spec", "weierstrass s=1 levels=6 signs=plus",
                    "--jgrid", "9", "--jrange", "4:7",
                    "--source", "poisson", "--target", "secdiff",
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("option,values", [
        ("--source", ("poisson", "wavelet")), ("--target", ("secdiff", "wavelet")),
        ("--eps", ("0.5", "0.25")), ("--eta", ("0.99", "0.5")),
    ])
    def test_options_enter_report_name(self, tmp_path, option, values):
        # one spec, two option values in one --out: two reports, neither overwritten
        base = {"--source": "poisson", "--target": "secdiff", "--eps": "0.5", "--eta": "0.99"}
        for value in values:
            argv = [t for item in {**base, option: value}.items() for t in item]
            assert run(["inclusion", "--spec", "weierstrass s=1 levels=4 signs=plus",
                        "--jgrid", "7", "--jrange", "3:5", *argv,
                        "--out", str(tmp_path)]) == EXIT_OK
        assert len(list(tmp_path.glob("inclusion_*.json"))) == 2

    @pytest.mark.parametrize("eta", ["1.5", "-1", "0", "nan"])
    def test_eta_outside_unit_interval_rejected(self, tmp_path, capsys, eta):
        code = run(["inclusion", "--spec", "weierstrass s=1 levels=4 signs=plus",
                    "--jgrid", "7", "--jrange", "3:5", "--source", "poisson",
                    "--target", "secdiff", "--eps", "0.5", "--eta", eta,
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "eta must lie in (0, 1]" in capsys.readouterr().err
        assert not list(tmp_path.glob("inclusion_*.json"))


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("command,argv", [
    ("sets", ["--method", "poisson"]),
    ("inclusion", ["--source", "poisson", "--target", "secdiff"]),
], ids=["sets", "inclusion"])
def test_non_finite_eps_rejected(tmp_path, capsys, command, argv, eps):
    # "eps": NaN or Infinity would not be valid JSON
    code = run([command, "--spec", "weierstrass s=1 levels=4 signs=plus", "--jgrid", "7",
                "--jrange", "3:5", "--eps", eps, *argv, "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "must be finite and >= 0" in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{command}_*.json"))


class TestValidate:
    def test_single_criterion(self, tmp_path, capsys):
        code = run(["validate", "--criteria", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "criterion  1" in out and "PASS" in out
        _, rep = load_report(tmp_path, "validate")
        assert rep["all_passed"]

    def test_selection_enters_report_name(self, tmp_path):
        # a partial run must not overwrite the report of another selection
        for criteria in ("1", "1,3"):
            assert run(["validate", "--criteria", criteria, "--out", str(tmp_path)]) == EXIT_OK
        reports = [json.loads(p.read_text()) for p in tmp_path.glob("validate_*.json")]
        assert sorted(len(rep["results"]) for rep in reports) == [1, 2]

    @pytest.mark.parametrize("criteria", ["0", "11", "1,11"])
    def test_unknown_criterion_rejected(self, tmp_path, capsys, criteria):
        code = run(["validate", "--criteria", criteria, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "numbered 1-10" in capsys.readouterr().err
        assert not list(tmp_path.glob("validate_*.json"))

    def test_repeated_criterion_runs_once(self, tmp_path, capsys):
        # "1,1" is the selection "1": one run, one report under one name
        for criteria in ("1", "1,1"):
            assert run(["validate", "--criteria", criteria, "--out", str(tmp_path)]) == EXIT_OK
            assert capsys.readouterr().out.count("criterion  1") == 1
        reports = list(tmp_path.glob("validate_*.json"))
        assert len(reports) == 1
        assert len(json.loads(reports[0].read_text())["results"]) == 1

    def test_absurd_theta_fails_divergence_criteria(self, tmp_path, capsys):
        # with theta=10 no slope can flag divergence, so the stack check fails
        code = run(["validate", "--criteria", "1", "--theta", "10",
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().out


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("J_grid=8\ns=0.5\nout=" + str(tmp_path) + "\n")
        code = run(["seminorms", "--spec", "trig k=1 a=1",
                    "--config", str(cfg), "--s", "1.0"])
        assert code == EXIT_OK
        _, rep = load_report(tmp_path, "seminorms")
        assert rep["config"]["J_grid"] == 8     # from file
        assert rep["config"]["s"] == 1.0        # flag wins
        assert rep["s"] == 1.0

    @pytest.mark.parametrize("key", ["as_dict", "__init__"])
    def test_attribute_names_are_not_config_keys(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code = run(["seminorms", "--spec", "trig k=1 a=1", "--config", str(cfg),
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_negative_K_rejected(self, tmp_path, capsys, where):
        # K = 0 means the per-dimension default; a negative K means nothing
        argv = ["seminorms", "--spec", "trig k=1 a=1", "--jgrid", "8", "--out", str(tmp_path)]
        if where == "flag":
            argv += ["--K", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("K = -1\n")
            argv += ["--config", str(cfg)]
        assert run(argv) == EXIT_VALIDATION
        assert "K=-1 must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("seminorms_*.json"))

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("theta", ["nan", "-1"])
    def test_bad_theta_rejected(self, tmp_path, capsys, where, theta):
        # theta = nan collapses every method and is not valid JSON; theta <= 0
        # flags every set as diverging
        argv = ["distance", "--spec", "weierstrass s=1 levels=6 signs=plus", "--jgrid", "8",
                "--jrange", "3:6", "--out", str(tmp_path)]
        if where == "flag":
            argv += ["--theta", theta]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"theta = {theta}\n")
            argv += ["--config", str(cfg)]
        assert run(argv) == EXIT_VALIDATION
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("distance_*.json"))

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("lo,hi", [(5, 3), (-1, 5)])
    def test_bad_jrange_rejected(self, tmp_path, capsys, monkeypatch, where, lo, hi):
        # rejected before the function is synthesized
        def no_work(*args):
            raise AssertionError("the function was synthesized")

        monkeypatch.setattr(zygdist.cli, "synthesize", no_work)
        argv = ["distance", "--spec", "weierstrass s=1 levels=6 signs=plus", "--jgrid", "8",
                "--out", str(tmp_path)]
        if where == "flag":
            argv += [f"--jrange={lo}:{hi}"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"J_lo = {lo}\nJ_hi = {hi}\n")
            argv += ["--config", str(cfg)]
        assert run(argv) == EXIT_VALIDATION
        assert f"depth range {lo}:{hi} needs 0 <= J_lo <= J_hi" in capsys.readouterr().err
        assert not list(tmp_path.glob("distance_*.json"))

    @pytest.mark.parametrize("jrange", ["5", "a:b", "3:4:5", "3.5:6"])
    def test_malformed_jrange_rejected(self, tmp_path, capsys, jrange):
        argv = ["distance", "--spec", "weierstrass s=1 levels=6 signs=plus", "--jgrid", "8",
                f"--jrange={jrange}", "--out", str(tmp_path)]
        assert run(argv) == EXIT_VALIDATION
        assert f"--jrange {jrange!r} must be two integers lo:hi" in capsys.readouterr().err

    @pytest.mark.parametrize("jrange", ["0:0", "3:12"])
    def test_jrange_edges_accepted(self, tmp_path, jrange):
        # one level, and a J_hi deeper than every field (J_max = 6 at --jgrid 8)
        assert run(["distance", "--spec", "weierstrass s=1 levels=6 signs=plus", "--jgrid", "8",
                    "--jrange", jrange, "--out", str(tmp_path)]) == EXIT_OK

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# J_grid = 9\n\n   \nJ_grid = 8\n  # s\n")
        code = run(["seminorms", "--spec", "trig k=1 a=1", "--config", str(cfg),
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rep = load_report(tmp_path, "seminorms")
        assert rep["config"]["J_grid"] == 8

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("J_grid = 8\n# a comment\nJ_grid 9\n")
        code = run(["seminorms", "--spec", "trig k=1 a=1", "--config", str(cfg),
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert f"{cfg}:3: expected key=value" in capsys.readouterr().err
        assert not list(tmp_path.glob("seminorms_*"))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        code = run(["seminorms", "--spec", "trig k=1 a=1", "--config", str(cfg),
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
