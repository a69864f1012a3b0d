"""Sweep orchestration: determinism, splitting statistics, report files."""

import json
import multiprocessing

import numpy as np
import pytest

from curllab import lab
from curllab.fields import named_metric
from curllab.lab import (
    CSV_COLUMNS,
    SweepConfig,
    SweepRecord,
    emit_report,
    run_sweep,
    sample_metric,
)


SMALL = SweepConfig(samples=4, truncation=2, amplitude=1e-2, seed=11)


@pytest.fixture(autouse=True)
def no_worker_left():
    """Every sweep, returned or raised, has joined its worker processes."""
    yield
    assert multiprocessing.active_children() == []


class TestSampleMetric:
    def test_zero_amplitude_returns_base(self):
        cfg = SweepConfig(amplitude=0.0)
        g = sample_metric(cfg, 5)
        assert g.is_flat

    def test_fixed_seed_reproducible(self):
        cfg = SweepConfig()
        g1 = sample_metric(cfg, 7)
        g2 = sample_metric(cfg, 7)
        np.testing.assert_array_equal(g1.block.coeffs, g2.block.coeffs)

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

    @pytest.mark.parametrize("samples", [0, 1])
    def test_at_most_one_sample_starts_no_pool(self, samples, tmp_path,
                                               monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(lab, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "sweep.jsonl"
        cfg = SweepConfig(samples=samples, seed=2, out_jsonl=str(out))
        records = run_sweep(cfg, n_threads=4)
        assert [r.sample for r in records] == list(range(samples))
        assert len(out.read_text().splitlines()) == 1 + samples

    @pytest.mark.parametrize("n_threads", [-3, 0, 2.0, True, "2", None])
    def test_bad_thread_count_is_refused(self, n_threads, monkeypatch):
        # a count below 1 used to run the samples serially without a word
        def no_sample(*args):
            raise AssertionError("a sample ran")

        monkeypatch.setattr(lab, "_run_one_sample", no_sample)
        with pytest.raises(ValueError, match="n_threads"):
            run_sweep(SweepConfig(samples=2, seed=1), n_threads=n_threads)

    def test_worker_error_reaches_caller(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("generator broke")

        # forked workers inherit the patched module
        monkeypatch.setattr(lab, "_sample_generator", broken)
        with pytest.raises(RuntimeError, match="generator broke"):
            run_sweep(SweepConfig(samples=2, seed=1), n_threads=2)

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

    def test_wkb_witness_records_integration_quality(self):
        cfg = SweepConfig(
            samples=1, truncation=2, seed=5, certify_pairs=True,
            window={"interval": [0.9, 1.1]},
            budget={"T_max": 6.0, "orbit_seeds": 2, "n_seeds": 2,
                    "wkb_T": 20.0},
        )
        witnesses = [report["certificate"]["witness"]
                     for report in run_sweep(cfg)[0].pair_reports
                     if report["mechanism"] == "positive_wkb_exponent"]
        assert witnesses
        for witness in witnesses:
            for key in ("amplitude_orthogonality_drift",
                        "frequency_transport_drift"):
                assert np.isfinite(witness[key]) and 0.0 <= witness[key] <= 1e-4

    def test_raising_pair_leaves_the_sample_certified(self, monkeypatch):
        from curllab import instability

        calls = []
        find = instability.find_fixed_points

        def failing_second(jet):
            calls.append(jet)
            if len(calls) == 2:
                raise RuntimeError("stage failure")
            return find(jet)

        monkeypatch.setattr(instability, "find_fixed_points", failing_second)
        cfg = SweepConfig(
            samples=1, truncation=2, seed=5, certify_pairs=True,
            window={"interval": [0.9, 1.1]},
            budget={"T_max": 6.0, "orbit_seeds": 2, "n_seeds": 2,
                    "wkb_T": 20.0},
        )
        reports = run_sweep(cfg)[0].pair_reports
        assert len(reports) > 2
        assert reports[1]["mechanism"] is None
        assert reports[1]["error"] == "RuntimeError: stage failure"
        for report in reports[:1] + reports[2:]:
            assert report["mechanism"] is not None and "error" not in report
            assert report["certificate"]["mechanism"] == report["mechanism"]

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
        header, *lines = p1.read_text().splitlines()
        assert json.loads(header)["config_hash"] == SMALL.config_hash
        loaded = [SweepRecord.from_json_dict(json.loads(line)) for line in lines]
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
        emit_report([], path, "csv", config=SMALL)
        assert path.read_text() == (f"# config_hash={SMALL.config_hash}\n"
                                    + ",".join(CSV_COLUMNS) + "\n")

    def test_rows_preserve_input_order(self, tmp_path):
        records = [
            SweepRecord(sample=2, seed_key="k2", min_gap=0.1,
                        eigenvalues=[1.0], pair_reports=[]),
            SweepRecord(sample=0, seed_key="k0", min_gap=0.2,
                        eigenvalues=[1.0], pair_reports=[]),
        ]
        path = tmp_path / "two.csv"
        emit_report(records, path, "csv", config=SMALL)
        lines = path.read_text().strip().splitlines()
        assert lines[2].startswith("2,")
        assert lines[3].startswith("0,")

    def test_config_hash_ignores_output_paths(self):
        a = SweepConfig(samples=2, out_jsonl="x.jsonl")
        b = SweepConfig(samples=2, out_jsonl="elsewhere.jsonl")
        assert a.config_hash == b.config_hash

    def test_config_round_trip(self):
        data = SMALL.to_json_dict()
        again = SweepConfig.from_json_dict(json.loads(json.dumps(data)))
        assert again == SMALL


class TestConfigBudget:
    # seed is drawn per pair by the sweep; wkb_threshold is a fixed tolerance
    @pytest.mark.parametrize("budget", [{"bogus": 1}, {"seed": 3},
                                        {"T_max": 6.0, "wkb_threshold": 0.2}])
    def test_unknown_key_rejected_before_any_solve(self, budget, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve ran before the budget was checked")

        monkeypatch.setattr("curllab.lab.eigenpairs", no_solve)
        bad = [key for key in budget if key != "T_max"][0]
        with pytest.raises(ValueError, match=bad):
            run_sweep(SweepConfig(samples=1, certify_pairs=True, budget=budget))

    @pytest.mark.parametrize("budget", [{"n_seeds": 2.5}, {"wkb_T": "20"},
                                        {"T_max": -5}, {"orbit_seeds": True}])
    def test_bad_value_rejected_where_built(self, budget):
        with pytest.raises(ValueError, match=next(iter(budget))):
            SweepConfig(samples=1, certify_pairs=True, budget=budget)

    def test_effort_fields_accepted(self):
        budget = {"T_max": 6.0, "orbit_seeds": 2, "n_seeds": 2, "wkb_T": 20.0}
        assert SweepConfig(certify_pairs=True, budget=budget).budget == budget


class TestConfigProblem:
    # a window or truncation that no sample can solve would fail every
    # sample alike, so it is refused where the config is built
    @pytest.mark.parametrize("problem, message", [
        ({"window": {"interval": [-1.0, 1.0]}}, "exclude"),
        ({"window": {"count": 0}}, "at least one"),
        ({"window": {"count": True}}, "integer"),
        ({"window": {"band": [0.9, 1.1]}}, "count"),
        ({"truncation": 0}, "truncation"),
        ({"truncation": 2.0}, "truncation"),
        # accepted before, and hashed apart from the window [0.9, 1.1]
        ({"window": {"interval": ["0.9", "1.1"]}}, "real bounds"),
        ({"window": {"interval": [0.9, 1.1], "band": 3}}, "count"),
    ])
    def test_unsolvable_problem_rejected_where_built(self, problem, message,
                                                     monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a sample ran before the config was checked")

        monkeypatch.setattr("curllab.lab.eigenpairs", no_solve)
        with pytest.raises(ValueError, match=message):
            run_sweep(SweepConfig(samples=2, **problem))

    # a bad ensemble field used to pass silently (a negative sample count)
    # or fail every sample alike at run time
    @pytest.mark.parametrize("ensemble, message", [
        ({"samples": -3}, "samples"),
        ({"samples": 2.5}, "samples"),
        ({"cutoff": -1}, "cutoff"),
        ({"cutoff": True}, "cutoff"),
        ({"smoothness": float("nan")}, "smoothness"),
        ({"amplitude": float("inf")}, "amplitude"),
        ({"amplitude": "0.01"}, "amplitude"),
        ({"amplitude": False}, "amplitude"),
        ({"base_metric": "bogus"}, "unknown metric name"),
        ({"base_metric": None}, "unknown metric name"),
        ({"base_metric": "conformal(nan)"}, "conformal factor c"),
        ({"base_metric": "conformal(inf)"}, "conformal factor c"),
        ({"base_metric": "random_cr(2, nan, 1)"}, "random_cr eps"),
        ({"base_metric": "random_cr(nan, 0.01, 1)"}, "random_cr r"),
        # the config seed was hashed unchecked
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "a"}, "seed"),
        ({"seed": True}, "seed"),
        ({"base_metric": "conformal(0)"}, "conformal factor c must be > 0"),
    ])
    def test_bad_ensemble_rejected_where_built(self, ensemble, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**ensemble)

    # named_metric parses a name as it builds the metric: one parser
    @pytest.mark.parametrize("base", ["flat", "conformal(2)"])
    def test_base_is_checked_by_its_build(self, base, monkeypatch):
        built = []

        def build(spec):
            built.append(spec)
            return named_metric(spec)

        monkeypatch.setattr("curllab.lab.named_metric", build)
        SweepConfig(base_metric=base)
        assert built == [base]

    def test_checks_leave_the_config_hash(self):
        # the checks add no field, so every config keeps its hash and its
        # samples
        assert SMALL.config_hash == "7e525b513784caf3"
        assert SweepConfig().config_hash == "49f78bd99fa60161"

