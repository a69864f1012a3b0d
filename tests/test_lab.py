"""Sweep orchestration: determinism, splitting statistics, report files."""

import json

import numpy as np
import pytest

from curllab.lab import (
    CSV_COLUMNS,
    SweepConfig,
    SweepRecord,
    emit_report,
    load_records,
    run_sweep,
    sample_metric,
)


SMALL = SweepConfig(samples=4, truncation=2, amplitude=1e-2, seed=11)


class TestSampleMetric:
    def test_zero_amplitude_returns_base(self):
        cfg = SweepConfig(amplitude=0.0)
        g = sample_metric(cfg, 5)
        assert g.is_flat

    def test_fixed_seed_reproducible(self):
        cfg = SweepConfig()
        g1 = sample_metric(cfg, 7)
        g2 = sample_metric(cfg, 7)
        for a, b in zip(g1.components, g2.components):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_spd_margin(self):
        g = sample_metric(SweepConfig(amplitude=1e-2, smoothness=2.0), 3)
        from curllab.fields import CollocationGrid

        grid = CollocationGrid.for_truncation(g.truncation)
        eigs = np.linalg.eigvalsh(g.samples(grid).g)
        assert eigs.min() >= 1 - 10 * 1e-2


class TestRunSweep:
    def test_cluster_splitting(self):
        records = run_sweep(SMALL)
        assert len(records) == 4
        for rec in records:
            assert rec.error is None
            assert len(rec.eigenvalues) == 6  # flat multiplicity-six cluster
            assert rec.min_gap > 1e-8 * SMALL.amplitude
            assert rec.frac_simple == 1.0

    def test_fractions_in_unit_interval(self):
        for rec in run_sweep(SMALL):
            for value in (rec.frac_simple, rec.frac_nondeg_fixed_points,
                          rec.frac_nondeg_orbits, rec.frac_certified):
                assert 0.0 <= value <= 1.0

    def test_zero_amplitude_reports_degenerate_cluster(self):
        cfg = SweepConfig(samples=1, amplitude=0.0, seed=1)
        rec = run_sweep(cfg)[0]
        assert rec.min_gap <= 1e-10  # the non-generic flat point
        assert rec.frac_simple == 0.0

    def test_deterministic_across_thread_counts(self, tmp_path):
        paths = []
        for threads in (1, 8):
            out = tmp_path / f"sweep_{threads}.jsonl"
            cfg = SweepConfig(samples=4, truncation=2, seed=3,
                              out_jsonl=str(out))
            run_sweep(cfg, n_threads=threads)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_per_sample_failures_recorded_not_raised(self):
        cfg = SweepConfig(samples=2, amplitude=50.0, seed=1)  # never SPD
        records = run_sweep(cfg)
        assert len(records) == 2
        assert all(r.error is not None for r in records)

    def test_certified_sweep_reports_mechanisms(self):
        cfg = SweepConfig(
            samples=1, truncation=2, seed=5, certify_pairs=True,
            window={"interval": [0.9, 1.1]},
            budget={"T_max": 6.0, "orbit_seeds": 2, "n_seeds": 2,
                    "wkb_T": 20.0},
        )
        rec = run_sweep(cfg)[0]
        assert rec.pair_reports
        for report in rec.pair_reports:
            assert "mechanism" in report
            assert "certificate" in report or report["mechanism"] is None

    def test_certificates_self_consistent_from_json(self, tmp_path):
        """Every certificate of a certified sweep re-checks from its JSON."""
        out = tmp_path / "certified.jsonl"
        cfg = SweepConfig(
            samples=1, truncation=2, seed=5, certify_pairs=True,
            window={"interval": [0.9, 1.1]},
            budget={"T_max": 6.0, "orbit_seeds": 2, "n_seeds": 2,
                    "wkb_T": 20.0},
            out_jsonl=str(out),
        )
        run_sweep(cfg)
        lines = out.read_text().splitlines()
        certs = [report["certificate"] for line in lines[1:]
                 for report in json.loads(line)["pair_reports"]]
        assert certs
        for cert in certs:
            assert cert["time_unit"] == "unit_mean_speed"
            mechanism, witness = cert["mechanism"], cert["witness"]
            exponent, tol = cert["exponent"], cert["tolerances"]
            if mechanism == "positive_wkb_exponent":
                assert exponent == witness["tail_slope"]
                assert exponent > tol["wkb_threshold"]
            elif mechanism == "saddle_fixed_point":
                assert exponent == max(re for re, _ in witness["eigenvalues"])
            elif mechanism == "hyperbolic_orbit":
                mults = [abs(complex(re, im)) for re, im in witness["multipliers"]]
                assert min(abs(m - 1.0) for m in mults) > tol["mult_tol"]
                assert exponent == pytest.approx(
                    np.log(max(mults)) / witness["period"], rel=1e-12)
            else:
                assert mechanism == "inconclusive" and witness is None
        assert any(c["mechanism"] != "inconclusive" for c in certs)


class TestReports:
    def test_jsonl_round_trip_byte_identical(self, tmp_path):
        records = run_sweep(SMALL)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        emit_report(records, p1, "jsonl", config=SMALL)
        loaded, header = load_records(p1)
        assert header["config_hash"] == SMALL.config_hash
        emit_report(loaded, p2, "jsonl", config=SMALL)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_shape(self, tmp_path):
        records = run_sweep(SMALL)
        path = tmp_path / "summary.csv"
        emit_report(records, path, "csv", config=SMALL)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == f"# config_hash={SMALL.config_hash}"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(records)

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report([], path, "csv")
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_rows_preserve_input_order(self, tmp_path):
        records = [
            SweepRecord(sample=2, seed_key="k2", min_gap=0.1,
                        eigenvalues=[1.0], pair_reports=[]),
            SweepRecord(sample=0, seed_key="k0", min_gap=0.2,
                        eigenvalues=[1.0], pair_reports=[]),
        ]
        path = tmp_path / "two.csv"
        emit_report(records, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[1].startswith("2,")
        assert lines[2].startswith("0,")

    def test_config_hash_ignores_output_paths(self):
        a = SweepConfig(samples=2, out_jsonl="x.jsonl")
        b = SweepConfig(samples=2, out_jsonl="elsewhere.jsonl")
        assert a.config_hash == b.config_hash

    def test_config_round_trip(self):
        data = SMALL.to_json_dict()
        again = SweepConfig.from_json_dict(json.loads(json.dumps(data)))
        assert again == SMALL
