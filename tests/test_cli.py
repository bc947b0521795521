import json
import math
import re

import pytest

import zygdist
import zygdist.poisson
from zygdist.cli import EXIT_OK, EXIT_VALIDATION, RunConfig, _content_hash, main


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

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        code = run(["seminorms", "--spec", "weierstrass s=2 levels=3",
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_reports_reproducible_modulo_timestamp(self, tmp_path):
        args = ["seminorms", "--spec", "trig k=1 a=1", "--jgrid", "8",
                "--out", str(tmp_path)]
        assert run(args) == EXIT_OK
        path, _ = load_report(tmp_path, "seminorms")
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


class TestValidate:
    def test_single_criterion(self, tmp_path, capsys):
        code = run(["validate", "--criteria", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "criterion  1" in out and "PASS" in out
        _, rep = load_report(tmp_path, "validate")
        assert rep["all_passed"]

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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        code = run(["seminorms", "--spec", "trig k=1 a=1", "--config", str(cfg),
                    "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
