"""CLI surface of the results plane: --store-format, summarize and convert."""

import json

import pytest

from repro.cli import main
from repro.scenarios import SweepSpec, dump_spec, sniff_format, spec_from_dict


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: 64)


def _sweep_file(tmp_path):
    base = spec_from_dict(
        {
            "mechanism": "double",
            "latency": "constant",
            "measure_compute": False,
            "users": 5,
            "providers": 3,
            "rounds": 1,
        }
    )
    sweep = SweepSpec(base=base, name="cli-results", axes=(("users", (4, 5)), ("seed", (0, 1))))
    path = tmp_path / "sweep.json"
    dump_spec(sweep, path)
    return path


class TestStoreFormatFlag:
    def test_columnar_sweep_then_resume_runs_nothing(self, tmp_path, capsys):
        spec_path = _sweep_file(tmp_path)
        journal = tmp_path / "out.rcol"
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(journal),
             "--store-format", "columnar", "--json"]
        ) == 0
        first = capsys.readouterr()
        assert "executed 4 new rounds" in first.err
        assert sniff_format(journal) == "columnar"
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(journal),
             "--resume", "--json"]
        ) == 0
        second = capsys.readouterr()
        assert "reused 4 journaled rounds, executed 0 new rounds" in second.err
        assert json.loads(second.out) == json.loads(first.out)

    def test_store_format_requires_output(self, tmp_path, capsys):
        spec_path = _sweep_file(tmp_path)
        assert main(
            ["sweep", "--spec", str(spec_path), "--store-format", "columnar"]
        ) == 2
        err = capsys.readouterr().err
        assert "--store-format" in err and "--output" in err

    def test_format_mismatch_is_a_cli_error_pointing_at_convert(
        self, tmp_path, capsys
    ):
        spec_path = _sweep_file(tmp_path)
        journal = tmp_path / "out.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(journal)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(journal),
             "--store-format", "columnar", "--resume"]
        ) == 2
        err = capsys.readouterr().err
        assert "holds 'jsonl' data" in err
        assert "requested 'columnar'" in err
        assert "results convert" in err


class TestResultsSummarize:
    def _journal(self, tmp_path, fmt="columnar"):
        spec_path = _sweep_file(tmp_path)
        journal = tmp_path / f"out.{fmt}"
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(journal),
             "--store-format", fmt]
        ) == 0
        return journal

    def test_renders_the_text_table(self, tmp_path, capsys):
        journal = self._journal(tmp_path)
        capsys.readouterr()
        assert main(["results", "summarize", str(journal)]) == 0
        out = capsys.readouterr().out
        assert str(journal) in out
        assert "cli-results" in out
        assert "total_paid" in out
        assert "p50" in out and "p99" in out
        assert "rounds_per_second" in out

    def test_json_payload_is_machine_readable(self, tmp_path, capsys):
        journal = self._journal(tmp_path)
        capsys.readouterr()
        assert main(["results", "summarize", str(journal), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "columnar"
        assert payload["sweep"] == "cli-results"
        assert payload["records"] == 4
        assert payload["columns"]["total_paid"]["count"] == 4
        assert payload["flags"]["aborted"]["true"] == 0

    def test_missing_journal_is_a_path_precise_error(self, tmp_path, capsys):
        assert main(["results", "summarize", str(tmp_path / "ghost.rcol")]) == 2
        err = capsys.readouterr().err
        assert "ghost.rcol" in err and "not found" in err


class TestResultsConvert:
    def test_convert_then_resume_the_converted_journal(self, tmp_path, capsys):
        spec_path = _sweep_file(tmp_path)
        source = tmp_path / "run.rcol"
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(source),
             "--store-format", "columnar"]
        ) == 0
        capsys.readouterr()
        destination = tmp_path / "run.jsonl"
        assert main(["results", "convert", str(source), str(destination)]) == 0
        out = capsys.readouterr().out
        assert "converted 4 records" in out
        assert "(columnar) -> " in out and "(jsonl)" in out
        assert sniff_format(destination) == "jsonl"
        # The fingerprint travelled verbatim: the original sweep resumes it.
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(destination),
             "--resume"]
        ) == 0
        assert "reused 4 journaled rounds, executed 0 new rounds" in (
            capsys.readouterr().err
        )

    def test_explicit_to_format(self, tmp_path, capsys):
        spec_path = _sweep_file(tmp_path)
        source = tmp_path / "run.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(source)]
        ) == 0
        capsys.readouterr()
        destination = tmp_path / "run.rcol"
        assert main(
            ["results", "convert", str(source), str(destination),
             "--to", "columnar"]
        ) == 0
        assert sniff_format(destination) == "columnar"

    def test_same_format_conversion_is_refused(self, tmp_path, capsys):
        spec_path = _sweep_file(tmp_path)
        source = tmp_path / "run.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_path), "--output", str(source)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["results", "convert", str(source), str(tmp_path / "copy.jsonl"),
             "--to", "jsonl"]
        ) == 2
        assert "already holds 'jsonl'" in capsys.readouterr().err

    def test_missing_source_is_an_error(self, tmp_path, capsys):
        assert main(
            ["results", "convert", str(tmp_path / "ghost.jsonl"),
             str(tmp_path / "out.rcol")]
        ) == 2
        assert "not found" in capsys.readouterr().err
