"""Differential locks for the scenario front door.

1. The paper's two figures are sweep specs: the shipped
   ``examples/specs/fig4.json`` / ``fig5.toml`` equal the builders' defaults,
   the builders' points carry the paper's quorum arithmetic, and the grids
   run every series.
2. Spec round-trips: build → dump → load → run yields identical ``RunRecord``s
   seed-for-seed, through both JSON and TOML, including ``elapsed_seconds``
   (the virtual clock is modelled, so fully deterministic).
"""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.scenarios import (
    SpecError,
    SweepSpec,
    dump_spec,
    figure4_sweep,
    figure5_sweep,
    load_spec,
    run_scenario,
    run_sweep,
    spec_from_dict,
)


class TestFigureSweeps:
    def test_shipped_spec_files_match_figure_builders(self):
        import os

        specs = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "examples", "specs"
        )
        assert load_spec(os.path.join(specs, "fig4.json"), SweepSpec) == figure4_sweep()
        assert load_spec(os.path.join(specs, "fig5.toml"), SweepSpec) == figure5_sweep()

    def test_builders_carry_the_papers_quorum_arithmetic(self):
        # Figure 4: the minimum 2k+1 of the 8 sellers execute the protocol.
        fig4 = figure4_sweep(n_values=(10,))
        assert [point.get("executors") for point in fig4.points] == [None, 3, 5, 7]
        assert fig4.points[0]["runner"] == "centralized"
        with pytest.raises(SpecError):
            figure4_sweep(k_values=(4,))
        # Figure 5: p = ⌊m/(k+1)⌋ groups, p = 1 is the centralised baseline.
        fig5 = figure5_sweep(n_values=(10,))
        assert [point.get("config.k") for point in fig5.points] == [None, 3, 1]
        assert [point.get("config.num_groups") for point in fig5.points] == [None, 2, 4]
        assert fig5.points[0]["runner"] == "centralized"
        with pytest.raises(SpecError):
            figure5_sweep(p_values=(0,))

    def test_figure_sweeps_run_every_series_without_abort(self):
        fig4 = run_sweep(figure4_sweep(n_values=(10, 20), k_values=(1,)))
        assert Counter(record.series for record in fig4.records) == {
            "centralised": 2, "distributed k=1": 2,
        }
        fig5 = run_sweep(figure5_sweep(n_values=(8,), p_values=(1, 4), epsilon=0.5))
        assert [record.series for record in fig5.records] == [
            "p=1 (centralised)", "p=4 (distributed, k=1)",
        ]
        for result in (fig4, fig5):
            assert not any(record.aborted for record in result.records)
            for record in result.records:
                # The trusted auctioneer exchanges no protocol traffic.
                assert (record.messages == 0) == (record.runner == "centralized")

    def test_fig4_distributed_is_slower_than_centralised(self):
        # Communication overhead, so it holds on modelled time alone.
        sweep = figure4_sweep(n_values=(50,), k_values=(1,))
        central, distributed = run_sweep(sweep).records
        assert distributed.elapsed_seconds > central.elapsed_seconds


class TestDefaultEngineDifferential:
    """One engine, one oracle: the vectorized engine changes labels, not science.

    Running a built-in figure grid as shipped (the ``standard`` kind builds the
    vectorized engine) must produce records bit-identical to the same grid with
    the kind built by the reference class, on every other field — winners,
    payments, messages, bytes, abort flags and modelled time.  Only the
    engine labels (``mechanism``, ``engine``) may differ.
    """

    ENGINE_LABELS = ("mechanism", "engine")

    def _protocol_fields(self, result):
        rows = []
        for record in result.records:
            payload = record.to_dict()
            for label in self.ENGINE_LABELS:
                payload.pop(label)
            rows.append(payload)
        return rows

    def test_fig5_default_flip_is_bit_identical_to_reference(self, reference_standard):
        default = figure5_sweep(n_values=(8,), p_values=(1, 2), epsilon=0.5, seed=3)
        via_default = run_sweep(default)
        with reference_standard():
            via_reference = run_sweep(default)
        assert self._protocol_fields(via_default) == self._protocol_fields(via_reference)
        assert {r.engine for r in via_default.records} == {"vectorized"}
        assert {r.engine for r in via_reference.records} == {"reference"}

    def test_unflagged_fig5_cli_runs_vectorized(self, tmp_path, capsys):
        # The Figure 5 sweep runs the vectorized engine (and says so in the record).
        spec_path = tmp_path / "fig5.toml"
        dump_spec(
            figure5_sweep(n_values=(8,), p_values=(1,), epsilon=0.5, seed=3), spec_path
        )
        assert main(["sweep", "--spec", str(spec_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {r["engine"] for r in payload["records"]} == {"vectorized"}
        assert all(
            r["mechanism"] == "standard-auction-smoothed-vcg-vectorized"
            for r in payload["records"]
        )


class TestSpecRoundTripRuns:
    @pytest.mark.parametrize("extension", ["json", "toml"])
    def test_round_trip_run_identical_records(self, tmp_path, extension):
        spec = spec_from_dict(
            {
                "name": "roundtrip",
                "mechanism": {"kind": "standard", "epsilon": 0.5},
                "workload": {"kind": "vr_sessions", "session_fraction": 0.4},
                "users": 10,
                "providers": 4,
                "config": {"k": 1, "parallel": True, "num_groups": 2},
                "latency": {"kind": "constant", "seconds": 0.001},
                "seed": 13,
            }
        )
        path = tmp_path / f"spec.{extension}"
        dump_spec(spec, path)
        loaded = load_spec(path)
        assert loaded == spec
        # Identical RunRecords including elapsed time (virtual clock only).
        assert run_scenario(loaded) == run_scenario(spec)

    def test_round_trip_survives_two_generations(self, tmp_path):
        spec = spec_from_dict(
            {"mechanism": "double", "users": 8, "providers": 4,
             "latency": "constant", "seed": 5}
        )
        first = tmp_path / "gen1.toml"
        second = tmp_path / "gen2.json"
        dump_spec(spec, first)
        dump_spec(load_spec(first), second)
        assert load_spec(second) == spec


class TestCliSpecPaths:
    def test_run_spec_json_output(self, tmp_path, capsys):
        path = tmp_path / "run.toml"
        dump_spec(
            spec_from_dict(
                {"mechanism": "double", "users": 8, "providers": 4,
                 "latency": "constant", "seed": 5}
            ),
            path,
        )
        assert main(["run", "--spec", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["users"] == 8
        assert payload["aborted"] is False
        # The record equals a direct library run of the same file.
        direct = run_scenario(load_spec(path))
        assert payload == direct.to_dict()

    def test_run_spec_with_set_overrides(self, tmp_path, capsys):
        path = tmp_path / "run.toml"
        dump_spec(
            spec_from_dict(
                {"mechanism": "double", "users": 8, "providers": 4,
                 "latency": "constant"}
            ),
            path,
        )
        assert main(
            ["run", "--spec", str(path), "--set", "users=6", "--set", "config.k=1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["users"] == 6

    def test_malformed_spec_reports_path_and_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('mechanism = "nope"\nusers = 6\nproviders = 3\n')
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown mechanism kind 'nope'" in err
        assert "available:" in err

    def test_missing_spec_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "ghost.json")]) == 2
        assert "spec file not found" in capsys.readouterr().err

    def test_sweep_rejects_nothing_silently(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"base": {"runner": "quantum"}}')
        assert main(["sweep", "--spec", str(path)]) == 2
        assert "unknown runner" in capsys.readouterr().err

    def test_scenario_file_given_to_sweep_runs_single_point(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        dump_spec(
            spec_from_dict(
                {"mechanism": "double", "users": 6, "providers": 3,
                 "latency": "constant"}
            ),
            path,
        )
        assert main(["sweep", "--spec", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 1
