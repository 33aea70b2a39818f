"""Tests for the command-line interface."""

import argparse
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

    def test_the_front_door_is_eight_subcommands(self):
        commands = _subparsers(build_parser())
        assert sorted(commands) == [
            "chaos", "lint", "metrics", "resilience", "results", "run", "sweep", "trace",
        ]
        run_options = {
            option
            for action in commands["run"]._actions
            for option in action.option_strings
        }
        assert run_options == {
            "-h", "--help", "--spec", "--set", "--json", "--trace", "--metrics",
        }

    def test_lint_subcommand_present(self):
        # The full lint CLI contract lives in tests/analysis/test_lint_cli.py;
        # this only pins that the subcommand stays wired into the front door.
        args = build_parser().parse_args(["lint", "--select", "RPA001"])
        assert args.command == "lint"
        assert args.select == ["RPA001"]

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
            "measure_compute": False,
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

    def test_sweep_command_runs_grid(self, tmp_path, capsys):
        sweep = SweepSpec(base=self._spec(), name="grid", axes=(("users", (4, 6)),))
        path = tmp_path / "sweep.toml"
        dump_spec(sweep, path)
        assert main(["sweep", "--spec", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"] == "grid"
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


#: One tiny spec per grid sub-command, the unit of its store line, and a
#: record edit that fails its verdict (a sweep has no verdict to fail).
_GRID_BASE = {
    "mechanism": "double",
    "users": 6,
    "providers": 3,
    "config": {"k": 1},
    "latency": "constant",
    "measure_compute": False,
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
        tail = ", quarantined 0 cells" if command == "chaos" else ""
        argv = [command, "--spec", self._spec_file(tmp_path, command)]
        argv += ["--output", str(tmp_path / "journal.jsonl")]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"store {argv[-1]}: reused 0 journaled {unit}, executed 2 new {unit}{tail}"
        ]
        assert main(argv + ["--resume"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"store {argv[-1]}: reused 2 journaled {unit}, executed 0 new {unit}{tail}"
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
