"""Tests for the experiment harness (registry, runner, reporting, CLI)."""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.harness import (
    EXPERIMENT_GROUPS,
    EXPERIMENTS,
    Measurement,
    experiment_report,
    measurements_table,
    resolve_experiments,
    run_by_name,
    run_experiment,
    speedup_summary,
    write_csv,
)
from repro.harness import experiments
from repro.harness.__main__ import build_parser, main
from repro.harness.experiments import SeriesSpec


class TestRegistry:
    def test_every_figure_of_the_paper_is_registered(self):
        assert set(EXPERIMENTS) == {"fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b"}

    def test_groups_cover_all_experiments(self):
        assert set(EXPERIMENT_GROUPS["all"]) == set(EXPERIMENTS)
        assert EXPERIMENT_GROUPS["fig5"] == ("fig5a", "fig5b")

    def test_resolve_single_and_group(self):
        assert [spec.experiment_id for spec in resolve_experiments("fig6a")] == ["fig6a"]
        assert [spec.experiment_id for spec in resolve_experiments("fig7")] == ["fig7a", "fig7b"]

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_experiments("fig99")

    def test_specs_declare_series_and_shapes(self):
        for spec in EXPERIMENTS.values():
            assert spec.series
            assert spec.expected_shape
            assert spec.default_sizes
            assert spec.paper_sizes

    def test_workload_builder_returns_relations_and_theta(self):
        positive, negative, theta = EXPERIMENTS["fig5a"].build_workload(100)
        assert len(positive) == 100
        assert len(negative) == 100
        assert theta.is_equi


class TestRunner:
    def test_run_experiment_produces_one_measurement_per_series_and_size(self):
        result = run_experiment(EXPERIMENTS["fig5a"], sizes=[100, 200])
        assert len(result.measurements) == 2 * len(EXPERIMENTS["fig5a"].series)
        assert all(m.seconds >= 0 for m in result.measurements)
        assert all(m.output_count > 0 for m in result.measurements)

    @pytest.mark.parametrize(
        "experiment, nj_series",
        [
            ("fig5a", "NJ"),
            ("fig5b", "NJ"),
            ("fig6a", "NJ-WUON"),
            ("fig6b", "NJ-WUON"),
            ("fig7a", "NJ"),
            ("fig7b", "NJ"),
        ],
    )
    def test_nj_and_ta_report_the_same_output_counts(self, experiment, nj_series):
        result = run_experiment(EXPERIMENTS[experiment], sizes=[150])
        by_series = {m.series: m for m in result.measurements}
        assert by_series[nj_series].output_count == by_series["TA"].output_count

    def test_each_series_reports_its_fastest_of_three_runs(self, monkeypatch):
        durations = [0.5, 0.2, 0.3, 0.4, 0.6, 0.1]
        calls = []

        def counting(positive, negative, theta):
            calls.append(len(positive))
            return [None] * len(positive)

        # Every run reads the clock twice; each run's duration comes from the
        # list.  Automatic collection is off, so the collector meter reads no
        # clock value.
        clock = iter([value for duration in durations for value in (0.0, duration)])
        monkeypatch.setattr(experiments, "perf_counter", lambda: next(clock))
        spec = replace(EXPERIMENTS["fig5a"], series=(SeriesSpec("count", counting),))
        gc.disable()
        try:
            measurements = spec.run(sizes=[20, 30])
        finally:
            gc.enable()
        assert experiments.ROUNDS == 3
        assert calls == [20, 20, 20, 30, 30, 30]
        assert [(m.size, m.seconds) for m in measurements] == [(20, 0.2), (30, 0.1)]

    def test_run_by_name_group(self):
        results = run_by_name("fig5", sizes=[80])
        assert [r.spec.experiment_id for r in results] == ["fig5a", "fig5b"]

    def test_report_contains_table_and_speedups(self):
        result = run_experiment(EXPERIMENTS["fig6a"], sizes=[120])
        assert "speedups" in result.report
        assert "NJ-WN" in result.report


class TestReporting:
    @pytest.fixture()
    def measurements(self):
        return [
            Measurement("figX", "webkit", "NJ", 100, 0.010, 42),
            Measurement("figX", "webkit", "TA", 100, 0.040, 42),
            Measurement("figX", "webkit", "NJ", 200, 0.021, 90),
            Measurement("figX", "webkit", "TA", 200, 0.096, 90),
        ]

    def test_measurements_table(self, measurements):
        table = measurements_table(measurements)
        assert "NJ [ms]" in table and "TA [ms]" in table
        assert "100" in table and "200" in table

    def test_measurements_table_empty(self):
        assert measurements_table([]) == "(no measurements)"

    def test_speedup_summary(self, measurements):
        summary = speedup_summary(measurements, baseline="TA")
        assert "TA/NJ" in summary
        assert "4.0x" in summary

    def test_experiment_report_includes_expected_shape(self, measurements):
        report = experiment_report(EXPERIMENTS["fig5a"], measurements)
        assert "expected shape" in report

    def test_write_csv(self, measurements, tmp_path):
        path = tmp_path / "out" / "measurements.csv"
        write_csv(measurements, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("experiment,")
        assert len(lines) == 5


class TestCLI:
    def test_parser_accepts_sizes(self):
        parser = build_parser()
        arguments = parser.parse_args(["fig5a", "--sizes", "100,200"])
        assert arguments.sizes == [100, 200]

    def test_parser_rejects_bad_sizes(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig5a", "--sizes", "abc"])

    def test_main_runs_a_small_experiment(self, capsys, tmp_path):
        csv_path = tmp_path / "m.csv"
        exit_code = main(
            ["fig5a", "--sizes", "80", "--csv", str(csv_path), "--json-dir", str(tmp_path)]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "fig5a" in captured.out
        assert csv_path.exists()
        assert (tmp_path / "BENCH_fig5a.json").exists()

    def test_main_unknown_experiment_exits_with_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["nonexistent"])
