"""End-to-end exercises of the command-line surface."""

import json

import numpy as np
import pytest

from curllab.cli import build_parser, main
from curllab.fields import FourierField, MetricField, named_metric


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


class TestSpectrumCommand:
    def test_flat_window(self, tmp_path):
        out = tmp_path / "spectrum.jsonl"
        rc = main([
            "spectrum", "--metric", "flat", "--truncation", "2",
            "--window", "0.7,1.2", "--out", str(out),
        ])
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 6
        for rec in records:
            assert rec["eigenvalue"] == pytest.approx(1.0, abs=1e-10)
            assert "form" not in rec

    @pytest.mark.parametrize("window", ["1.0", "-1,1", "nan,1", "0.5,inf"])
    def test_bad_window_is_a_usage_error(self, window, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["spectrum", "--truncation", "2", "--window", window])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--window" in err
        assert "Traceback" not in err

    # a bad metric used to exit 1 with a traceback
    @pytest.mark.parametrize("metric", [
        "bogus", "conformal(nan)", "conformal(-1)", "random_cr(2, nan, 1)",
        "random_cr(2, 0.01)",
    ])
    def test_bad_metric_is_a_usage_error(self, metric, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["spectrum", "--truncation", "2", "--metric", metric])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--metric" in err
        assert "Traceback" not in err

    def test_metric_file_loads_as_its_name(self, tmp_path):
        path = tmp_path / "metric.json"
        named_metric("conformal(2)").save(path)
        outs = []
        for metric in (str(path), "conformal(2)"):
            outs.append(tmp_path / f"{len(outs)}.jsonl")
            assert main(["spectrum", "--metric", metric, "--truncation", "1",
                         "--count", "4", "--out", str(outs[-1])]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    def test_sidecar_fields_round_trip(self, tmp_path):
        out = tmp_path / "spectrum.jsonl"
        fields_dir = tmp_path / "forms"
        rc = main([
            "spectrum", "--metric", "flat", "--truncation", "2",
            "--count", "2", "--out", str(out), "--fields-dir", str(fields_dir),
        ])
        assert rc == 0
        rec = read_jsonl(out)[0]
        form = FourierField.load(rec["form_file"])
        assert form.rank == "one_form"

    def test_named_random_metric(self, tmp_path):
        out = tmp_path / "s.jsonl"
        rc = main([
            "spectrum", "--metric", "random_cr(2, 0.01, 5)",
            "--truncation", "2", "--window", "0.7,1.2", "--out", str(out),
        ])
        assert rc == 0
        assert len(read_jsonl(out)) == 6


class TestDynamicsCommands:
    def test_fixed_points_abc(self, tmp_path):
        out = tmp_path / "fp.jsonl"
        rc = main(["fixed-points", "--field", "abc:1,1,1", "--out", str(out)])
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 8
        assert all(r["classification"] == "saddle" for r in records)

    def test_orbits_with_csv(self, tmp_path):
        out = tmp_path / "orbits.jsonl"
        csv = tmp_path / "orbits.csv"
        rc = main([
            "orbits", "--field", "xi:1", "--t-max", "8", "--seeds", "4",
            "--section", "z,0.0", "--out", str(out), "--csv", str(csv),
        ])
        assert rc == 0
        records = read_jsonl(out)
        assert records and all(r["orbit_type"] == "degenerate" for r in records)
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("seed_x,")
        assert len(lines) == 1 + len(records)

    @pytest.mark.parametrize("section", ["z", "w,0", "z,abc", "z,nan", ",1"])
    def test_bad_section_is_a_usage_error(self, section, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["orbits", "--field", "xi:1", "--section", section])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--section" in err
        assert "Traceback" not in err

    # a non-finite amplitude exited 0 with empty output and xi:0 with a
    # traceback; a scalar file or a non-finite entry failed after parsing
    @pytest.mark.parametrize("command", ["orbits", "fixed-points"])
    @pytest.mark.parametrize("field", [
        "abc:1,nan,1", "abc:1,1", "xi:0", "xi:1.5", "scalar.json", "nan.json",
    ])
    def test_bad_field_is_a_usage_error(self, command, field, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        FourierField.constant("scalar", [1.0]).save("scalar.json")
        doc = FourierField.constant("vector", [1.0, 0.0, 0.0]).to_json_dict()
        doc["coeffs"][0][4] = float("nan")
        (tmp_path / "nan.json").write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--field", field])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--field" in err
        assert "Traceback" not in err

    def test_section_axis_names(self):
        def section(text):
            argv = ["orbits", "--field", "xi:1", "--section", text]
            return build_parser().parse_args(argv).section

        assert section("z,0.0") == {"axis": 2, "offset": 0.0}
        assert section("y, 1.5") == {"axis": 1, "offset": 1.5}
        assert section("0,-2") == {"axis": 0, "offset": -2.0}

    def test_eigenform_file_input(self, tmp_path):
        # spectrum -> sidecar eigenform -> fixed-points consumes the file
        fields_dir = tmp_path / "forms"
        spect = tmp_path / "s.jsonl"
        main([
            "spectrum", "--metric", "flat", "--truncation", "1",
            "--count", "1", "--out", str(spect), "--fields-dir",
            str(fields_dir),
        ])
        form_file = read_jsonl(spect)[0]["form_file"]
        out = tmp_path / "fp.jsonl"
        rc = main(["fixed-points", "--field", form_file, "--out", str(out)])
        assert rc == 0

    def test_eigenform_file_flows_certifys_field(self, tmp_path, bumpy):
        # an eigenform of a non-constant metric flows as sharp(metric, form),
        # the field certify starts from, at the grid's full bandwidth
        from curllab.cli import _flow_field
        from curllab.curlspec import eigenpairs
        from curllab.fields import sharp

        form = eigenpairs(bumpy, 2, {"interval": [0.9, 1.1]})[0].form
        metric_path, form_path = tmp_path / "metric.json", tmp_path / "form.json"
        bumpy.save(metric_path)
        form.save(form_path)
        metric = MetricField.load(metric_path)
        args = build_parser().parse_args(["orbits", "--field", str(form_path)])
        u = _flow_field(args.field, metric)
        expect = sharp(bumpy, FourierField.load(form_path))
        assert u.truncation == expect.truncation == 6
        np.testing.assert_array_equal(u.coeffs, expect.coeffs)


class TestOptionRanges:
    @pytest.mark.parametrize("argv, option", [
        (["spectrum", "--truncation", "2", "--count", "0"], "--count"),
        (["spectrum", "--truncation", "0"], "--truncation"),
        (["spectrum", "--truncation", "two"], "--truncation"),
        (["certify-all", "--metric", "flat", "--truncation", "2",
          "--count", "0"], "--count"),
        (["instability", "--metric", "flat", "--truncation", "2",
          "--eigen-index", "-1"], "--eigen-index"),
        (["orbits", "--field", "abc:1,1,1", "--t-max", "-1"], "--t-max"),
        (["orbits", "--field", "abc:1,1,1", "--t-max", "nan"], "--t-max"),
        (["orbits", "--field", "abc:1,1,1", "--t-max", "inf"], "--t-max"),
        (["orbits", "--field", "abc:1,1,1", "--seeds", "-1"], "--seeds"),
        (["orbits", "--field", "abc:1,1,1", "--seed", "-1"], "--seed"),
        (["adapted-metric", "--k", "0", "--out", "m.json"], "--k"),
        (["adapted-metric", "--k", "one", "--out", "m.json"], "--k"),
        (["genericity-sweep", "--threads", "-3", "--config", "c.json"],
         "--threads"),
        (["genericity-sweep", "--threads", "0", "--config", "c.json"],
         "--threads"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {option}:" in err
        assert "Traceback" not in err


class TestMalformedOptions:
    # every option the CLI parses goes through one converter: a malformed
    # value is a usage error naming the option and what it expected. A
    # JSON file of the wrong shape ("shape.json" holds [1, 2]) made --field
    # exit with argparse's bare "invalid _field value"
    @pytest.mark.parametrize("command, option, value", [
        ("spectrum", "--metric", "bogus"),
        ("spectrum", "--metric", "random_cr(2, 0.01, x)"),
        ("spectrum", "--metric", "shape.json"),
        ("spectrum", "--metric", "vector.json"),
        ("spectrum", "--truncation", "two"),
        ("spectrum", "--truncation", "1.5"),
        ("spectrum", "--window", "a,b"),
        ("spectrum", "--window", "1,2,3"),
        ("spectrum", "--count", "-2"),
        ("fixed-points", "--field", "bogus"),
        ("fixed-points", "--field", "shape.json"),
        ("fixed-points", "--field", "fractional.json"),
        ("fixed-points", "--grid-density", "dense"),
        ("orbits", "--field", "missing.json"),
        ("orbits", "--t-max", "soon"),
        ("orbits", "--seeds", "many"),
        ("orbits", "--seed", "1e3"),
        ("orbits", "--section", "z,0,1"),
        ("adapted-metric", "--k", "1.5"),
        ("reeb", "--form", "missing.json"),
        ("reeb", "--form", "shape.json"),
        ("instability", "--eigen-index", "first"),
        ("instability", "--budget", "shape.json"),
        ("instability", "--budget", '{"T_max": "long"}'),
        ("genericity-sweep", "--config", "shape.json"),
        ("genericity-sweep", "--config", "missing.json"),
        ("genericity-sweep", "--threads", "all"),
        ("certify-all", "--budget", "{not json"),
    ])
    def test_malformed_value_is_a_usage_error(self, command, option, value,
                                              tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "shape.json").write_text("[1, 2]")
        FourierField.constant("vector", [1.0, 0.0, 0.0]).save("vector.json")
        # a mode index of 0.5 used to load as 0
        (tmp_path / "fractional.json").write_text(json.dumps(
            {"rank": "vector", "N": 1, "coeffs": [[0.5, 0, 0, 0, 1.0, 0.0]]}))
        with pytest.raises(SystemExit) as exit_info:
            main([command, option, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected " in err
        assert repr(value) in err
        assert "Traceback" not in err


class TestContactCommands:
    def test_adapted_metric_unit_form_is_flat(self, tmp_path, capsys):
        out = tmp_path / "metric.json"
        rc = main(["adapted-metric", "--k", "1", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["eigenvalue"] == pytest.approx(1.0, abs=1e-8)
        assert MetricField.load(out).is_flat

    def test_reeb_of_saved_form(self, tmp_path):
        from curllab.contact import tight_form

        form_path = tmp_path / "form.json"
        tight_form(2).form.save(form_path)
        out = tmp_path / "reeb.json"
        rc = main(["reeb", "--form", str(form_path), "--out", str(out)])
        assert rc == 0
        X = FourierField.load(out)
        np.testing.assert_allclose(
            X.eval((0, 0, 0.3)), [np.sin(0.6), np.cos(0.6), 0], atol=1e-10
        )


class TestCertificationCommands:
    def test_instability_document(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = main([
            "instability", "--metric", "flat", "--truncation", "1",
            "--eigen-index", "0", "--budget", "fast", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mechanism"] in (
            "saddle_fixed_point", "hyperbolic_orbit",
            "positive_wkb_exponent", "inconclusive",
        )
        assert "tolerances" in doc

    @pytest.mark.parametrize("command", ["instability", "certify-all"])
    # wkb_threshold and fixed_point_grid are fixed constants, not budget fields
    @pytest.mark.parametrize("budget", ['{"bogus": 1}', "nope", "[1]",
                                        '{"wkb_threshold": 0.2}',
                                        '{"fixed_point_grid": 12}'])
    def test_bad_budget_is_a_usage_error(self, command, budget, capsys,
                                         monkeypatch):
        # rejected while parsing, before any eigensolve
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve ran before --budget was checked")

        monkeypatch.setattr("curllab.cli.eigenpairs", no_solve)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--metric", "flat", "--truncation", "1",
                  "--budget", budget])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["instability", "certify-all"])
    @pytest.mark.parametrize("budget", ['{"n_seeds": 2.5}', '{"wkb_T": "20"}',
                                        '{"T_max": -5}'])
    def test_bad_budget_value_is_a_usage_error(self, command, budget, capsys,
                                               monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve ran before --budget was checked")

        monkeypatch.setattr("curllab.cli.eigenpairs", no_solve)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--metric", "flat", "--truncation", "1",
                  "--budget", budget])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--budget" in err
        assert "Traceback" not in err

    def test_budget_sources(self, tmp_path):
        def budget(spec):
            argv = ["instability", "--metric", "flat", "--truncation", "1",
                    "--budget", spec]
            return build_parser().parse_args(argv).budget

        assert budget("fast").T_max == 10.0
        path = tmp_path / "budget.json"
        path.write_text('{"T_max": 4.0}')
        assert budget(str(path)).T_max == 4.0
        # inline JSON longer than a file name may be
        assert budget('{"seed": 3' + " " * 300 + "}").seed == 3

    def test_certify_all_exit_zero_on_inconclusive(self, tmp_path):
        out = tmp_path / "certs.jsonl"
        rc = main([
            "certify-all", "--metric", "flat", "--truncation", "1",
            "--window", "0.9,1.1", "--budget",
            '{"T_max": 4.0, "orbit_seeds": 2, "n_seeds": 1, "wkb_T": 10.0}',
            "--out", str(out),
        ])
        assert rc == 0  # inconclusive certificates are not errors
        assert read_jsonl(out)


class TestSweepCommand:
    def test_sweep_runs_and_exits_zero(self, tmp_path):
        config = {
            "samples": 2, "truncation": 2, "seed": 4, "amplitude": 0.01,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "sweep.jsonl"
        csv = tmp_path / "sweep.csv"
        rc = main([
            "genericity-sweep", "--config", str(cfg_path),
            "--out-jsonl", str(out), "--out-csv", str(csv), "--threads", "2",
        ])
        assert rc == 0
        header = read_jsonl(out)[0]
        assert "config_hash" in header
        assert csv.read_text().splitlines()[0].startswith("# config_hash=")

    @pytest.mark.parametrize("text,named", [
        ('{"samples": 1, "certify_pairs": true, "budget": {"bogus": 1}}', "bogus"),
        ('{"samples": 1, "certify_pairs": true, "budget": {"seed": 3}}', "seed"),
        ('{"samples": 1, "bogus": 1}', "bogus"),
        ('{"samples": 2, "window": {"interval": [-1, 1]}}', "exclude the kernel"),
        ('{"samples": 2, "truncation": 0}', "truncation"),
        ('{"samples": -3}', "samples"),
        ('{"samples": 2, "base_metric": "bogus"}', "bogus"),
        ("not json", "sweep.json"),
    ])
    def test_bad_config_is_a_usage_error(self, tmp_path, text, named, capsys,
                                         monkeypatch):
        # rejected while parsing, before any eigensolve
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve ran before --config was checked")

        monkeypatch.setattr("curllab.lab.eigenpairs", no_solve)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["genericity-sweep", "--config", str(cfg_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--config" in err
        assert named in err
        assert "Traceback" not in err

    def test_sweep_failure_exit_code(self, tmp_path):
        config = {"samples": 1, "amplitude": 50.0, "seed": 1}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["genericity-sweep", "--config", str(cfg_path)])
        assert rc == 1
