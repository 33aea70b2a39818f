"""Tests for the command-line interface."""

import argparse
import contextlib
import dataclasses
import json
import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.scenarios import dump_spec, figure4_sweep, figure5_sweep, spec_from_dict
from repro.scenarios.spec import SweepSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.spec is None
        assert args.overrides == []

    def test_the_front_door_is_seven_subcommands(self):
        commands = _subparsers(build_parser())
        assert sorted(commands) == [
            "chaos", "metrics", "resilience", "results", "run", "sweep", "trace",
        ]
        run_options = {
            option
            for action in commands["run"]._actions
            for option in action.option_strings
        }
        assert run_options == {
            "-h", "--help", "--spec", "--set", "--json", "--trace", "--metrics",
        }

    def test_lint_is_not_a_subcommand(self, capsys):
        # The determinism checks are a test (tests/test_determinism_lint.py).
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_run_double(self, capsys):
        assert main(
            ["run", "--set", "mechanism=double", "--set", "users=12", "--set", "providers=4"]
        ) == 0
        out = capsys.readouterr().out
        assert "outcome" in out
        assert "agreed (x, p)" in out

    def test_run_standard_parallel(self, capsys):
        code = main(
            [
                "run",
                "--set", "mechanism=standard",
                "--set", "users=6",
                "--set", "providers=4",
                "--set", "config.parallel=true",
                "--set", "mechanism.epsilon=0.5",
            ]
        )
        assert code == 0
        assert "winning users" in capsys.readouterr().out

    def test_fig4_small(self, tmp_path, capsys):
        path = tmp_path / "fig4.json"
        dump_spec(figure4_sweep(n_values=(10,), k_values=(1,)), path)
        assert main(["sweep", "--spec", str(path), "--series"]) == 0
        out = capsys.readouterr().out
        assert "centralised" in out
        assert "distributed k=1" in out

    def test_fig5_small(self, tmp_path, capsys):
        path = tmp_path / "fig5.toml"
        dump_spec(figure5_sweep(n_values=(6,), p_values=(1, 4), epsilon=0.5), path)
        assert main(["sweep", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "p=4" in out

    def test_batch_small(self, tmp_path, capsys):
        # A scenario file is a one-point sweep: rounds=N is the batch run.
        path = tmp_path / "scenario.toml"
        dump_spec(spec_from_dict({"mechanism": "double", "users": 8, "providers": 4}), path)
        assert main(["sweep", "--spec", str(path), "--set", "rounds=2"]) == 0
        header, _rule, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[:3] == ["figure", "series", "users"]
        assert len(rows) == 2 and all(row.split()[-1] == "False" for row in rows)

    def test_run_json_output(self, capsys):
        assert main(["run", "--set", "users=8", "--set", "providers=4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mechanism"] == "double-auction-waterfill"
        assert payload["users"] == 8
        assert payload["aborted"] is False


class TestSpecDrivenCommands:
    def _spec_dict(self):
        return {
            "name": "cli-spec",
            "mechanism": "double",
            "users": 8,
            "providers": 4,
            "latency": "constant",
            "seed": 5,
        }

    def _spec(self):
        return spec_from_dict(self._spec_dict())

    def test_run_with_spec_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.toml"
        dump_spec(self._spec(), path)
        assert main(["run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "agreed (x, p)" in out
        assert "users/providers : 8/4" in out

    def test_set_overrides_the_spec_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.toml"
        dump_spec(self._spec(), path)
        assert main(["run", "--spec", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["users"] == 8
        assert main(["run", "--spec", str(path), "--set", "users=6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["users"] == 6

    def test_later_set_beats_earlier_set(self, tmp_path, capsys):
        path = tmp_path / "scenario.toml"
        dump_spec(self._spec(), path)
        assert main(
            ["run", "--spec", str(path), "--set", "users=6", "--set", "users=4", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["users"] == 4

    def test_set_to_a_default_value_is_not_ignored(self, tmp_path, capsys):
        # 50 is the ScenarioSpec default (and was the default of the removed
        # --users flag, which silently lost to the spec file at that value).
        path = tmp_path / "scenario.toml"
        dump_spec(spec_from_dict({**self._spec_dict(), "users": 20}), path)
        assert main(["run", "--spec", str(path), "--set", "users=50", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["users"] == 50

    def test_batch_with_spec_file_json(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        dump_spec(self._spec(), path)
        assert main(["sweep", "--spec", str(path), "--set", "rounds=3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["base"]["rounds"] == 3
        assert [record["instance"] for record in payload["records"]] == [0, 1, 2]

    def test_run_prints_the_record_of_a_one_round_sweep(self, tmp_path, capsys):
        # The CLI's two ways to run one round: ``run`` and a scenario file as a
        # one-point sweep.  Under modelled time they print one record.
        path = tmp_path / "scenario.toml"
        dump_spec(self._spec(), path)
        assert main(["run", "--spec", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert main(["sweep", "--spec", str(path), "--json"]) == 0
        (swept,) = json.loads(capsys.readouterr().out)["records"]
        assert list(record) == list(swept)
        assert record == swept

    def test_sweep_command_runs_grid(self, tmp_path, capsys):
        sweep = SweepSpec(base=self._spec(), name="grid", axes=(("users", (4, 6)),))
        path = tmp_path / "sweep.toml"
        dump_spec(sweep, path)
        assert main(["sweep", "--spec", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["kind"], payload["name"]) == ("sweep", "grid")
        assert [record["users"] for record in payload["records"]] == [4, 6]

    def test_sweep_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_run_given_sweep_file_errors(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        dump_spec(SweepSpec(base=self._spec()), path)
        assert main(["run", "--spec", str(path)]) == 2
        assert "use 'repro-auction sweep'" in capsys.readouterr().err

    def test_malformed_spec_error_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"users": "many"}')
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "users: expected an integer" in err

    @pytest.mark.parametrize(
        "overrides, m, k",
        [
            (["providers=2"], 2, 1),
            (["providers=5", "config.k=2", "executors=3"], 3, 2),
        ],
        ids=["default-k", "executor-subset"],
    )
    def test_quorum_violation_is_a_spec_error(self, overrides, m, k, capsys):
        argv = ["run"]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: config.k: the rational-consensus building block requires m > 2k; "
            f"got m={m} executing providers, k={k}\n"
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k", -1, "k must be non-negative"),
            ("num_groups", 0, "num_groups must be positive when given"),
            ("round_timeout", 0, "round_timeout must be a finite positive number when given"),
        ],
        ids=["k", "num_groups", "round_timeout"],
    )
    @pytest.mark.parametrize("route", ["file", "set", "point"])
    def test_a_bad_config_value_names_its_field(
        self, field, value, message, route, tmp_path, capsys
    ):
        base = {"users": 6, "providers": 3}
        out = tmp_path / "out.jsonl"
        if route == "file":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({**base, "config": {field: value}}))
            argv, where = ["run", "--spec", str(spec)], f"{spec}: config.{field}"
        elif route == "set":
            argv, where = ["run", "--set", f"config.{field}={value}"], f"config.{field}"
        else:
            spec = tmp_path / "sweep.json"
            points = [{f"config.{field}": value}, {"users": 4}]
            spec.write_text(json.dumps({"base": base, "points": points}))
            argv = ["sweep", "--spec", str(spec), "--output", str(out)]
            where = f"{spec}: points[0].config.{field}"  # typed as the file loads
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {where}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("num_groups", [5, 50])
    def test_too_many_groups_is_a_spec_error(self, num_groups, capsys):
        argv = ["run", "--set", "mechanism=standard", "--set", "workload=standard"]
        argv += ["--set", "config.parallel=true", "--set", f"config.num_groups={num_groups}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: config.num_groups: num_groups must be at most ⌊m/(k+1)⌋ = 4; "
            f"got {num_groups} with m=8 executing providers, k=1\n"
        )

    def test_largest_group_count_runs(self, capsys):
        argv = ["run", "--set", "mechanism=standard", "--set", "workload=standard"]
        argv += ["--set", "config.parallel=true", "--set", "config.num_groups=4"]
        assert main(argv) == 0
        assert "outcome         : agreed (x, p)" in capsys.readouterr().out

    def test_unread_num_groups_keeps_running(self, capsys):
        argv = ["run", "--set", "users=6", "--set", "providers=3"]
        argv += ["--set", "config.parallel=false", "--set", "config.num_groups=50"]
        assert main(argv) == 0  # the sequential allocator never forms provider groups
        assert "winning users" in capsys.readouterr().out

    def test_parallel_double_auction_is_a_spec_error(self, capsys):
        argv = ["run", "--set", "users=10", "--set", "providers=4"]
        argv += ["--set", "config.parallel=true", "--set", "config.num_groups=2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: config.parallel: 'double-auction-waterfill' does not decompose into "
            "Algorithm 1's allocation and payments; the parallel allocator runs only the "
            "mechanism kinds that do: standard, vcg\n"
        )

    @pytest.mark.parametrize("runner", ["distributed", "auction_run", "centralized"])
    def test_more_users_than_the_mechanism_takes_is_a_spec_error(self, runner, capsys):
        argv = ["run", "--set", "mechanism=vcg", "--set", "users=17", "--set", f"runner={runner}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: users: at most max_users=16 for 'exact-vcg', got 17\n"
        )

    @pytest.mark.parametrize(
        "overrides", [["users=16"], ["users=17", "mechanism.max_users=40"]], ids=["16", "raised"]
    )
    def test_users_within_the_mechanism_bound_run(self, overrides, capsys):
        argv = ["run", "--set", "mechanism=vcg"]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 0
        assert "outcome         : agreed (x, p)" in capsys.readouterr().out

    def test_a_sweep_checks_every_cell_against_its_cached_mechanism(self, tmp_path, capsys):
        # The first point runs; the second reuses the cached mechanism with 17 users.
        sweep = SweepSpec(
            base=spec_from_dict({**self._spec_dict(), "mechanism": "vcg", "users": 4}),
            name="vcg",
            axes=(("users", (4, 17)),),
        )
        path = tmp_path / "sweep.json"
        dump_spec(sweep, path)
        assert main(["sweep", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.endswith(
            "error: axes.users: at most max_users=16 for 'exact-vcg', got 17\n"
        )

    def test_an_audit_checks_its_base_users(self, capsys):
        argv = ["resilience", "--spec", "examples/specs/resilience.json"]
        argv += ["--set", "base.mechanism=vcg", "--set", "base.users=17"]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(
            "error: base.users: at most max_users=16 for 'exact-vcg', got 17\n"
        )

    @pytest.mark.parametrize(
        "params",
        [
            {"min_restarts": 0, "max_restarts": 0},
            {"min_restarts": 8, "max_restarts": 4},
            {"local_search_rounds": -1},
        ],
        ids=["zero-restarts", "min-above-max", "negative-rounds"],
    )
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_standard_auction_effort_out_of_range_is_a_spec_error(
        self, params, engine, capsys, reference_standard
    ):
        argv = ["run", "--set", "mechanism=standard"]
        for key, value in params.items():
            argv += ["--set", f"mechanism.{key}={value}"]
        with reference_standard() if engine == "reference" else contextlib.nullcontext():
            assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: mechanism: invalid parameters for mechanism 'standard': "
        )

    @pytest.mark.parametrize(
        "argv, path, named",
        [
            (
                ["run", "--set", "mechanism.local_search_rounds=1.5"],
                "mechanism",
                "local_search_rounds",
            ),
            (
                ["run", "--set", "mechanism.epsilon=1", "--set", "mechanism.min_restarts=2.5"],
                "mechanism",
                "min_restarts",
            ),
            (["run", "--set", "mechanism.epsilon=true"], "mechanism", "epsilon"),
            (
                ["sweep", "--spec", "examples/specs/fig5.toml"]
                + ["--set", "mechanism.local_search_rounds=1.5"],
                "points[0].mechanism",  # the first sweep point to build it
                "local_search_rounds",
            ),
        ],
        ids=["fractional-rounds", "fractional-restarts", "boolean-epsilon", "fig5-sweep"],
    )
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_standard_auction_effort_of_the_wrong_type_is_a_spec_error(
        self, argv, path, named, engine, capsys, reference_standard
    ):
        if argv[0] == "run":
            argv = ["run", "--set", "mechanism=standard"] + argv[1:]
        with reference_standard() if engine == "reference" else contextlib.nullcontext():
            assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: invalid parameters for mechanism 'standard': {named} must be "
        )

    @pytest.mark.parametrize("epsilon", [float("nan"), "0.5"], ids=["nan", "string"])
    def test_a_json_spec_epsilon_that_is_no_finite_number_is_a_spec_error(
        self, epsilon, tmp_path, capsys
    ):
        spec = dict(self._spec_dict(), mechanism={"kind": "standard", "epsilon": epsilon})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))  # NaN is written as the bare token NaN
        assert main(["run", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: mechanism: invalid parameters for mechanism 'standard': epsilon must be "
        )


#: One tiny spec per grid sub-command, the unit of its store line, and a
#: record edit that fails its verdict (a sweep has no verdict to fail).
_GRID_BASE = {
    "mechanism": "double",
    "users": 6,
    "providers": 3,
    "config": {"k": 1},
    "latency": "constant",
}
_GRID_CASES = {
    "sweep": ({"base": _GRID_BASE, "axes": {"users": [4, 6]}}, "rounds", None),
    "resilience": (
        {"base": _GRID_BASE, "adversaries": ["equivocate"], "coalitions": [[0], [1]]},
        "cells",
        {"profitable": True},
    ),
    "chaos": ({"base": _GRID_BASE, "faults": ["loss", "duplicate"]}, "cells", {"replay_ok": False}),
}


class TestGridCommandsShareOneHandler:
    """The strings CI greps, produced by one function for all three kinds."""

    def _spec_file(self, tmp_path, command):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(_GRID_CASES[command][0]))
        return str(path)

    @pytest.mark.parametrize("command", sorted(_GRID_CASES))
    def test_store_line_wording(self, command, tmp_path, capsys):
        unit = _GRID_CASES[command][1]
        argv = [command, "--spec", self._spec_file(tmp_path, command)]
        argv += ["--output", str(tmp_path / "journal.jsonl")]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"store {argv[-1]}: reused 0 journaled {unit}, executed 2 new {unit}"
        ]
        assert main(argv + ["--resume"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"store {argv[-1]}: reused 2 journaled {unit}, executed 0 new {unit}"
        ]

    @pytest.mark.parametrize("command", sorted(_GRID_CASES))
    def test_resume_without_output_exits_2(self, command, tmp_path, capsys):
        assert main([command, "--spec", self._spec_file(tmp_path, command), "--resume"]) == 2
        assert capsys.readouterr().err == (
            "error: --resume: resuming requires --output FILE (the journal to continue)\n"
        )

    @pytest.mark.parametrize("command", ["chaos", "resilience"])
    def test_failing_verdict_exits_1(self, command, tmp_path, capsys, monkeypatch):
        kind = repro.cli._GRID_COMMANDS[command]

        def run_then_fail_one_cell(spec, **options):
            result = kind.run(spec, **options)
            result.records[0] = dataclasses.replace(result.records[0], **_GRID_CASES[command][2])
            return result

        monkeypatch.setitem(
            repro.cli._GRID_COMMANDS, command, dataclasses.replace(kind, run=run_then_fail_one_cell)
        )
        assert main([command, "--spec", self._spec_file(tmp_path, command)]) == 1
        assert "VERDICT: NOT " in capsys.readouterr().out


class TestChaosFaultTargets:
    """A fault aimed at no executing provider exits 2 before any journal opens."""

    @pytest.mark.parametrize(
        "fault, error",
        [
            (
                '{"kind":"crash","node":"p05","at":0.001,"duration":0.002}',
                "error: faults[0].node: unknown provider id 'p05'; "
                "executing providers: p00, p01, p02\n",
            ),
            (
                '{"kind":"partition","nodes":["p01","zz"],"at":0.001,"duration":0.01}',
                "error: faults[0].nodes: unknown provider id 'zz'; "
                "executing providers: p00, p01, p02\n",
            ),
        ],
        ids=["crash", "partition"],
    )
    def test_unknown_node_exits_2(self, fault, error, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        argv = ["chaos", "--spec", str(REPO_ROOT / "examples" / "specs" / "chaos.toml")]
        argv += ["--set", f"faults=[{fault}]", "--output", str(journal)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == error
        assert not journal.exists()


class TestSpecErrorsLeaveNoJournal:
    """A spec the grid context refuses exits 2 before ``--output`` exists, so
    the corrected spec can write the same path."""

    @staticmethod
    def _k3_on_five_providers(tmp_path):
        base = spec_from_dict(
            {"mechanism": "double", "users": 6, "providers": 5, "latency": "constant"}
        )
        sweep = SweepSpec(base=base, name="k3", points=({}, {"config.k": 3}))
        path = tmp_path / "sweep.json"
        dump_spec(sweep, path)
        return path

    @staticmethod
    def _parallel_double(tmp_path):
        base = spec_from_dict(
            {"mechanism": "double", "users": 10, "providers": 4, "latency": "constant"}
        )
        sweep = SweepSpec(
            base=base,
            name="parallel-double",
            points=({}, {"config.parallel": True, "config.num_groups": 2}),
        )
        path = tmp_path / "sweep.json"
        dump_spec(sweep, path)
        return path

    @staticmethod
    def _second_point_users_x(tmp_path):
        base = spec_from_dict(
            {"mechanism": "double", "users": 6, "providers": 3, "latency": "constant"}
        )
        sweep = SweepSpec(base=base, name="users-x", points=({"users": 5}, {"users": "x"}))
        path = tmp_path / "sweep.json"
        dump_spec(sweep, path)
        return path

    @staticmethod
    def _second_point_mechanism_zzz(tmp_path):
        base = spec_from_dict(
            {"mechanism": "double", "users": 6, "providers": 3, "latency": "constant"}
        )
        sweep = SweepSpec(base=base, name="zzz", points=({"users": 5}, {"mechanism": "zzz"}))
        path = tmp_path / "sweep.json"
        dump_spec(sweep, path)
        return path

    @staticmethod
    def _axis_users_x(tmp_path):
        base = spec_from_dict(
            {"mechanism": "double", "users": 6, "providers": 3, "latency": "constant"}
        )
        sweep = SweepSpec(base=base, name="users-x", axes=(("users", (5, "x")),))
        path = tmp_path / "sweep.json"
        dump_spec(sweep, path)
        return path

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["resilience", "--spec", "examples/specs/resilience.json",
                 "--set", 'coalitions=[["p09"]]'],
                "error: coalitions[0][0]: unknown provider id 'p09'; "
                "executing providers: p00, p01, p02, p03, p04\n",
            ),
            (
                ["sweep", "--spec", "examples/specs/fig4_quick.json", "--set", "mechanism=vcg"],
                "error: points[0].users: at most max_users=16 for 'exact-vcg', got 20\n",
            ),
            (
                "_k3_on_five_providers",
                "error: points[1].config.k: the rational-consensus building block requires "
                "m > 2k; got m=5 executing providers, k=3\n",
            ),
            (
                "_parallel_double",
                "error: points[1].config.parallel: 'double-auction-waterfill' does not "
                "decompose into Algorithm 1's allocation and payments; the parallel allocator "
                "runs only the mechanism kinds that do: standard, vcg\n",
            ),
            # A point or an axis value is typed as the file loads, so its error names the file.
            (
                "_second_point_users_x",
                "error: {spec}: points[1].users: expected an integer, got str\n",
            ),
            ("_axis_users_x", "error: {spec}: axes.users: expected an integer, got str\n"),
            (
                "_second_point_mechanism_zzz",
                "error: points[1].mechanism: unknown mechanism kind 'zzz'; "
                "available: double, greedy, standard, vcg\n",
            ),
            (
                ["sweep", "--spec", "examples/specs/fig5.toml",
                 "--set", "mechanism.local_search_rounds=1.5"],
                "error: points[0].mechanism: invalid parameters for mechanism 'standard': "
                "local_search_rounds must be a finite integral number, got 1.5\n",
            ),
            (
                ["resilience", "--spec", "examples/specs/resilience.json",
                 "--set", "base.mechanism=standard",
                 "--set", "base.mechanism.local_search_rounds=1.5"],
                "error: base.mechanism: invalid parameters for mechanism 'standard': "
                "local_search_rounds must be a finite integral number, got 1.5\n",
            ),
            (
                ["chaos", "--spec", "examples/specs/chaos.toml", "--set", "base.mechanism=zzz"],
                "error: base.mechanism: unknown mechanism kind 'zzz'; "
                "available: double, greedy, standard, vcg\n",
            ),
        ],
        ids=[
            "resilience-coalition",
            "sweep-max-users",
            "sweep-second-point-k",
            "sweep-second-point-parallel-double",
            "sweep-second-point-type",
            "sweep-axis-type",
            "sweep-second-point-mechanism",
            "sweep-base-mechanism-parameters",
            "resilience-base-mechanism-parameters",
            "chaos-base-mechanism-kind",
        ],
    )
    def test_exits_2_without_a_journal(self, argv, error, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        if isinstance(argv, str):
            spec = str(getattr(self, argv)(tmp_path))
            argv, error = ["sweep", "--spec", spec], error.replace("{spec}", spec)
        journal = tmp_path / "journal.jsonl"
        assert main(argv + ["--output", str(journal)]) == 2
        assert capsys.readouterr().err == error
        assert not journal.exists()


class TestAuditScheduleParameters:
    """A schedule parameter that is malformed or names no executor exits 2."""

    @pytest.mark.parametrize(
        "schedule, error",
        [
            (
                '{"kind":"round_robin","order":"p01"}',
                "error: schedules[1]: invalid parameters for schedule 'round_robin': "
                "order must be a list of node ids, got the string 'p01'\n",
            ),
            (
                '{"kind":"adversarial","targets":["p00"],"max_deferrals":2.7}',
                "error: schedules[1]: invalid parameters for schedule 'adversarial': "
                "max_deferrals must be an integer, got 2.7\n",
            ),
            (
                '{"kind":"adversarial","targets":["p00"],"max_deferrals":true}',
                "error: schedules[1]: invalid parameters for schedule 'adversarial': "
                "max_deferrals must be an integer, got True\n",
            ),
            (
                '{"kind":"adversarial","targets":["p05"]}',
                "error: schedules[1].targets: unknown provider id 'p05'; "
                "executing providers: p00, p01, p02, p03, p04\n",
            ),
        ],
        ids=["order-string", "deferrals-float", "deferrals-bool", "unknown-target"],
    )
    def test_exits_2(self, schedule, error, capsys):
        argv = ["resilience", "--spec", str(REPO_ROOT / "examples" / "specs" / "resilience.json")]
        argv += ["--set", f'schedules=["fair",{schedule}]']
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == error


class TestObservabilityCommands:
    def _run_observed(self, tmp_path, capsys):
        trace = tmp_path / "run.rcol"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["run", "--set", "users=6", "--set", "providers=3",
             "--trace", str(trace), "--metrics", str(metrics), "--json"]
        )
        assert code == 0
        return trace, metrics, capsys.readouterr()

    def test_run_trace_and_metrics_flags(self, tmp_path, capsys):
        trace, metrics, captured = self._run_observed(tmp_path, capsys)
        # stdout stays the machine-readable record; artifacts go to stderr.
        assert json.loads(captured.out)["users"] == 6
        assert f"trace {trace}:" in captured.err
        assert "spans" in captured.err
        assert f"metrics: " in captured.err and str(metrics) in captured.err
        snapshot = json.loads(metrics.read_text())
        assert snapshot["kind"] == "metrics-snapshot"
        assert snapshot["instruments"]["rounds"]["value"] == 1

    def test_trace_subcommand_exports_chrome_and_text(self, tmp_path, capsys):
        trace, _metrics, _ = self._run_observed(tmp_path, capsys)
        assert main(["trace", str(trace)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"], "chrome export holds no events"
        assert main(["trace", str(trace), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace: ")
        assert "round" in out

    def test_trace_missing_journal_is_a_spec_error(self, capsys):
        assert main(["trace", "does-not-exist.rcol"]) == 2
        assert "trace journal not found" in capsys.readouterr().err

    def test_trace_of_a_results_journal_is_a_spec_error(self, tmp_path, capsys):
        journal = tmp_path / "results.jsonl"
        argv = ["sweep", "--spec", str(REPO_ROOT / "examples" / "specs" / "fig4_quick.json")]
        argv += ["--output", str(journal)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["trace", str(journal)]) == 2
        assert capsys.readouterr().err == (
            f"error: {journal}: not a trace journal; "
            "read results with 'repro-auction results summarize'\n"
        )

    def test_metrics_subcommand_renders_table_and_json(self, tmp_path, capsys):
        _trace, metrics, _ = self._run_observed(tmp_path, capsys)
        assert main(["metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "instruments" in out
        assert "net.messages_sent" in out
        assert main(["metrics", str(metrics), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "metrics-snapshot"

    def test_metrics_garbage_file_is_a_spec_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        assert main(["metrics", str(path)]) == 2
        assert "not a metrics snapshot" in capsys.readouterr().err


class TestBrokenPipe:
    def test_broken_pipe_from_any_command_exits_zero(self, monkeypatch):
        # The guard lives at the entrypoint, so a reader hanging up mid-write
        # is a clean exit for every sub-command — not a traceback.  dup2 is
        # stubbed out here because detaching stdout onto /dev/null for real
        # would take pytest's capture file descriptors with it; the genuine
        # article is exercised end to end by test_piped_to_head_survives.
        import repro.cli as cli

        redirected = []
        monkeypatch.setattr(cli.os, "dup2", lambda *fds: redirected.append(fds))

        def burst(args):
            raise BrokenPipeError

        monkeypatch.setitem(cli._COMMANDS, "run", burst)
        assert main(["run", "--set", "users=4"]) == 0
        assert len(redirected) == 2  # stdout and stderr both detached

    def test_piped_to_head_survives(self, tmp_path):
        # End to end through a real pipe: the reader closes after one line,
        # the writer must exit 0 with nothing on stderr.
        import subprocess
        import sys

        src = str(REPO_ROOT / "src")
        spec = str(REPO_ROOT / "examples" / "specs" / "fig4_quick.json")
        script = (
            "import sys; sys.path.insert(0, %r); "
            "from repro.cli import main; "
            "sys.exit(main(['sweep', '--spec', %r, '--json']))" % (src, spec)
        )
        result = subprocess.run(
            f"{sys.executable} -c \"{script}\" | head -c 32",
            shell=True,
            capture_output=True,
            text=True,
            executable="/bin/bash",
        )
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        assert "BrokenPipeError" not in result.stderr


def _fenced_blocks(text):
    return "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M))


def _documented_commands():
    """Every ``repro-auction ...`` command line the docs show, as argv lists."""
    sources = {
        "README.md": _fenced_blocks((REPO_ROOT / "README.md").read_text()),
        "cli.py docstring": repro.cli.__doc__,
    }
    skill = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    if skill.exists():  # not shipped in source distributions
        sources["verify skill"] = _fenced_blocks(skill.read_text())
    commands = []
    for source, text in sources.items():
        for line in text.replace("\\\n", " ").splitlines():
            if "repro-auction" not in line:
                continue
            tokens = shlex.split(line, comments=True)
            if "repro-auction" not in tokens:  # prose or a comment, not a command
                continue
            argv = tokens[tokens.index("repro-auction") + 1:]
            for index, token in enumerate(argv):
                if token.startswith((">", "2>", "|")):
                    argv = argv[:index]
                    break
            commands.append(pytest.param(argv, id=f"{source}: {' '.join(argv)}"))
    return commands


class TestDocumentedCommands:
    @pytest.mark.parametrize("argv", _documented_commands())
    def test_every_documented_command_line_parses(self, argv):
        # parse_args exits (SystemExit) on an unknown sub-command or flag; the
        # files the commands name are never opened at parse time.
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]
