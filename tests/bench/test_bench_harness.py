"""Tests for the benchmark harness and reporting (small-scale sanity runs)."""

import pathlib

import pytest

from repro.bench.harness import (
    ExperimentPoint,
    Figure4Experiment,
    Figure5Experiment,
    default_latency_model,
    run_resilience_benchmark,
)
from repro.bench.reporting import format_points, format_series, points_to_series


class TestBenchMarkers:
    def test_every_benchmark_file_carries_the_bench_marker(self):
        # The conftest auto-marker keeps `-m "not bench"` correct when the
        # whole tree is collected; the explicit pytestmark in each file keeps
        # it correct when a benchmark file is run from another rootdir, where
        # benchmarks/conftest.py may not be loaded.  Both must stay.
        bench_dir = (
            pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
        )
        files = sorted(bench_dir.glob("test_*.py"))
        assert files, bench_dir
        unmarked = [
            f.name
            for f in files
            if "pytestmark = pytest.mark.bench" not in f.read_text()
        ]
        assert unmarked == []


class TestResilienceBenchmarkPolicy:
    """The artifact can never report pool overhead as the default config."""

    SMALL = dict(num_users=10, num_providers=3, k=1, seeds=(0,))

    def _pin(self, monkeypatch, count):
        monkeypatch.setattr("repro.common.available_cpus", lambda: count)
        monkeypatch.setattr(
            "repro.scenarios.dispatch.available_cpus", lambda: count
        )

    def test_auto_on_one_core_records_unit_speedup_without_a_pool(self, monkeypatch):
        self._pin(monkeypatch, 1)
        payload = run_resilience_benchmark(workers="auto", **self.SMALL)
        assert payload["workers_requested"] == "auto"
        assert payload["workers_resolved"] == 1
        assert payload["backend"] == "serial"
        assert payload["speedup"] == 1.0
        assert payload["wall_seconds_parallel"] is None
        assert payload["verdicts_identical"] is True
        assert "sequential path" in payload["note"]

    def test_auto_on_multi_core_times_the_resolved_pool(self, monkeypatch):
        self._pin(monkeypatch, 2)
        payload = run_resilience_benchmark(workers="auto", **self.SMALL)
        assert payload["workers_resolved"] == 2
        assert payload["backend"] == "process"
        assert payload["wall_seconds_parallel"] > 0
        assert payload["verdicts_identical"] is True
        assert "workers='auto' -> 2" in payload["summary"]

    def test_oversubscribed_request_is_capped_in_the_artifact(self, monkeypatch, capsys):
        self._pin(monkeypatch, 2)
        payload = run_resilience_benchmark(workers=6, **self.SMALL)
        assert payload["workers_requested"] == 6
        assert payload["workers_resolved"] == 2
        assert "requested 6 workers" in capsys.readouterr().err


class TestFigure4Experiment:
    def test_executor_counts_match_paper(self):
        experiment = Figure4Experiment()
        assert len(experiment.executors_for_k(1)) == 3
        assert len(experiment.executors_for_k(2)) == 5
        assert len(experiment.executors_for_k(3)) == 7
        with pytest.raises(ValueError):
            experiment.executors_for_k(4)

    def test_single_points_complete_without_abort(self):
        experiment = Figure4Experiment(n_values=(20,), k_values=(1,))
        central = experiment.run_centralized_point(20)
        distributed = experiment.run_distributed_point(20, k=1)
        assert central.elapsed_seconds >= 0.0
        assert not distributed.aborted
        assert distributed.messages > 0

    def test_distributed_is_slower_than_centralised(self):
        experiment = Figure4Experiment(n_values=(50,), k_values=(1,))
        central = experiment.run_centralized_point(50)
        distributed = experiment.run_distributed_point(50, k=1)
        assert distributed.elapsed_seconds > central.elapsed_seconds

    def test_overhead_grows_with_k(self):
        experiment = Figure4Experiment()
        k1 = experiment.run_distributed_point(60, k=1)
        k3 = experiment.run_distributed_point(60, k=3)
        assert k3.messages > k1.messages

    def test_sweep_produces_all_series(self):
        experiment = Figure4Experiment(n_values=(10, 20), k_values=(1,))
        points = experiment.run()
        series = points_to_series(points)
        assert set(series) == {"centralised", "distributed k=1"}
        assert all(len(v) == 2 for v in series.values())


class TestFigure5Experiment:
    def test_parallelism_to_k_mapping(self):
        experiment = Figure5Experiment()
        assert experiment.k_for_parallelism(1) == 7
        assert experiment.k_for_parallelism(2) == 3
        assert experiment.k_for_parallelism(4) == 1
        with pytest.raises(ValueError):
            experiment.k_for_parallelism(0)

    def test_points_complete_without_abort(self):
        experiment = Figure5Experiment(n_values=(10,), epsilon=0.5)
        central = experiment.run_centralized_point(10)
        parallel = experiment.run_distributed_point(10, p=4)
        assert central.elapsed_seconds >= 0
        assert not parallel.aborted

    def test_parallelism_pays_off_when_compute_dominates(self):
        # Whether p=4 beats the centralised run is an ordering of measured
        # compute (measure_compute=True): a host wall-clock reading, recorded
        # by benchmarks/test_bench_fig5_standard_auction.py and not asserted
        # in Tier-1.  The deterministic part of the claim is checked here.
        experiment = Figure5Experiment(epsilon=0.2)
        n = 48
        central = experiment.run_centralized_point(n)
        p4 = experiment.run_distributed_point(n, p=4)
        assert not central.aborted and not p4.aborted
        assert central.messages == 0 < p4.messages
        assert central.series == "p=1 (centralised)" and p4.series == "p=4 (distributed, k=1)"

    def test_p1_is_the_centralised_series(self):
        experiment = Figure5Experiment(n_values=(8,), epsilon=0.5)
        point = experiment.run_distributed_point(8, p=1)
        assert point.series == "p=1 (centralised)"


class TestReporting:
    def _points(self):
        return [
            ExperimentPoint("fig4", "centralised", 100, 0.01, 0, 0),
            ExperimentPoint("fig4", "centralised", 200, 0.02, 0, 0),
            ExperimentPoint("fig4", "distributed k=1", 100, 0.05, 42, 1000),
        ]

    def test_points_to_series_groups_and_sorts(self):
        series = points_to_series(self._points())
        assert series["centralised"] == [(100, 0.01), (200, 0.02)]
        assert series["distributed k=1"] == [(100, 0.05)]

    def test_format_points_table(self):
        text = format_points(self._points())
        assert "series" in text
        assert "distributed k=1" in text
        assert "0.0500" in text

    def test_format_series(self):
        text = format_series(self._points())
        assert "centralised:" in text
        assert "n=  100" in text

    def test_empty_points(self):
        assert format_points([]) == "(no data)"

    def test_default_latency_model_is_bandwidth_aware(self):
        import random

        model = default_latency_model()
        small = model.delay("a", "b", 100, random.Random(0))
        large = model.delay("a", "b", 10**6, random.Random(0))
        assert large > small
