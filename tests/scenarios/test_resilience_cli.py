"""CLI spec-path tests for the ``resilience`` sub-command.

The three contracts of the satellite: ``--spec`` round-trips an audit file
end-to-end (text and ``--json``), ``--set`` overrides compose with the file
and an unknown adversary kind fails with a path-precise :class:`SpecError`
on stderr, and ``--resume`` against a complete journal executes 0 new cells.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.scenarios import ResilienceSpec, dump_spec, spec_from_dict


def _spec_file(tmp_path, **overrides):
    data = {
        "name": "cli-audit",
        "base": {
            "mechanism": "double",
            "users": 8,
            "providers": 4,
            "config": {"k": 1},
            "latency": "constant",
        },
        "k": 1,
        "adversaries": ["equivocate"],
        "schedules": ["fair"],
        "seeds": [0],
    }
    data.update(overrides)
    path = tmp_path / "audit.json"
    dump_spec(spec_from_dict(data, ResilienceSpec), path)
    return str(path)


class TestParser:
    def test_resilience_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resilience"])

    def test_resilience_grid_flags(self):
        args = build_parser().parse_args(
            ["resilience", "--spec", "a.json", "--workers", "2", "--output", "o.jsonl"]
        )
        assert args.command == "resilience"
        assert args.workers == 2
        assert args.output == "o.jsonl"
        assert args.resume is False


class TestSpecPath:
    def test_spec_round_trip_text_output(self, tmp_path, capsys):
        assert main(["resilience", "--spec", _spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: resilient" in out
        assert "equivocate" in out

    def test_spec_round_trip_json_output(self, tmp_path, capsys):
        assert main(["resilience", "--spec", _spec_file(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["kind"], payload["name"]) == ("resilience", "cli-audit")
        assert payload["clean"] is True
        # 4 coalitions x 1 adversary x 1 schedule x 1 seed.
        assert len(payload["records"]) == 4
        assert {r["adversary"] for r in payload["records"]} == {"equivocate"}

    def test_set_overrides_compose_with_spec(self, tmp_path, capsys):
        code = main(
            [
                "resilience",
                "--spec",
                _spec_file(tmp_path),
                "--set",
                "seeds=[0, 1]",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 8
        assert {r["seed"] for r in payload["records"]} == {0, 1}

    def test_unknown_adversary_kind_is_path_precise(self, tmp_path, capsys):
        code = main(
            [
                "resilience",
                "--spec",
                _spec_file(tmp_path),
                "--set",
                'adversaries=["equivocate", "not_a_deviation"]',
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        # The error names the exact spec path and the available kinds.
        assert "adversaries[1]" in err
        assert "not_a_deviation" in err
        assert "equivocate" in err

    def test_workers_flag_matches_sequential(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        assert main(["resilience", "--spec", spec, "--json"]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert main(["resilience", "--spec", spec, "--workers", "2", "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel == sequential


class TestJournalResume:
    def test_resume_executes_zero_new_cells(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        journal = str(tmp_path / "audit.jsonl")
        assert main(["resilience", "--spec", spec, "--output", journal, "--json"]) == 0
        first = capsys.readouterr()
        assert "executed 4 new cells" in first.err
        assert main(
            ["resilience", "--spec", spec, "--output", journal, "--resume", "--json"]
        ) == 0
        second = capsys.readouterr()
        assert "reused 4 journaled cells, executed 0 new cells" in second.err
        assert json.loads(second.out) == json.loads(first.out)

    def test_resume_requires_output(self, tmp_path, capsys):
        assert main(["resilience", "--spec", _spec_file(tmp_path), "--resume"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_changed_audit_rejects_existing_journal(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        journal = str(tmp_path / "audit.jsonl")
        assert main(["resilience", "--spec", spec, "--output", journal]) == 0
        capsys.readouterr()
        code = main(
            [
                "resilience",
                "--spec",
                spec,
                "--set",
                "seeds=[0, 1]",
                "--output",
                journal,
                "--resume",
            ]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err
