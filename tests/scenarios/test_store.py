"""Results store: journal format, manifest guarding, and resume semantics."""

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    ResultsStore,
    RunRecord,
    SpecError,
    SweepSpec,
    run_sweep,
    sniff_format,
    spec_from_dict,
    spec_fingerprint,
)


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    # Pin a big host so the worker policy never degrades the --workers paths
    # under test to the sequential path on single-core CI runners.
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: 64)


def _spec(data):
    base = {"mechanism": "double", "latency": "constant", "measure_compute": False}
    base.update(data)
    return spec_from_dict(base)


def _sweep(rounds=2):
    return SweepSpec(
        base=_spec({"users": 5, "providers": 3, "rounds": rounds}),
        name="store-test",
        axes=(("users", (4, 5)), ("seed", (0, 1))),
    )


class TestJournalFormat:
    def test_journal_holds_manifest_plus_one_line_per_round(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        result = run_sweep(_sweep(), store=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "manifest"
        assert lines[0]["sweep"] == "store-test"
        assert lines[0]["fingerprint"] == spec_fingerprint(_sweep())
        assert lines[0]["total_rounds"] == len(result.records) == 8
        records = [line for line in lines[1:] if line["kind"] == "record"]
        assert len(records) == 8
        assert {(r["point"], r["instance"]) for r in records} == {
            (p, i) for p in range(4) for i in range(2)
        }

    def test_run_record_round_trips_losslessly(self):
        sweep = _sweep()
        record = run_sweep(sweep).records[0]
        assert RunRecord.from_dict(record.to_dict()) == record
        # Through actual JSON text, as the journal stores it.
        assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record

    def test_store_as_object_and_reader(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        sweep = _sweep()
        run_sweep(sweep, store=ResultsStore(path))
        manifest, completed = ResultsStore(path).read(
            expected_fingerprint=spec_fingerprint(sweep)
        )
        assert manifest["sweep"] == "store-test"
        assert len(completed) == 8


class TestResume:
    def test_resume_skips_everything_already_journaled(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        sweep = _sweep()
        first = run_sweep(sweep, workers=2, store=path)
        resumed = run_sweep(sweep, store=path, resume=True)
        assert resumed.executed_rounds == 0
        assert resumed.resumed_rounds == 8
        # Journaled records rehydrate bit-identically — elapsed included.
        assert resumed.records == first.records

    def test_resume_half_completed_journal_runs_only_missing_rounds(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "journal.jsonl"
        sweep = _sweep()
        full = run_sweep(sweep, store=path)
        # Simulate an interrupted run: keep the manifest and the first three
        # record lines only.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")

        import repro.scenarios.sweep as sweep_module

        executed = []
        original = sweep_module.run_scenario

        def counting(spec, instance=0, **kwargs):
            executed.append((spec.users, spec.seed, instance))
            return original(spec, instance, **kwargs)

        monkeypatch.setattr(sweep_module, "run_scenario", counting)
        resumed = run_sweep(sweep, store=path, resume=True)
        assert len(executed) == 5  # 8 rounds total, 3 were journaled
        assert resumed.executed_rounds == 5
        assert resumed.resumed_rounds == 3
        assert resumed.records == full.records  # grid order restored exactly

    def test_resume_with_parallel_workers(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        sweep = _sweep()
        full = run_sweep(sweep, store=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_sweep(sweep, workers=3, store=path, resume=True)
        assert resumed.executed_rounds == 6
        assert resumed.records == full.records

    def test_resume_on_missing_file_runs_fresh(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        result = run_sweep(_sweep(), store=path, resume=True)
        assert result.executed_rounds == 8
        assert path.exists()

    def test_existing_journal_without_resume_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        run_sweep(_sweep(), store=path)
        with pytest.raises(SpecError, match=r"already exists"):
            run_sweep(_sweep(), store=path)

    def test_journal_of_a_different_sweep_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        run_sweep(_sweep(), store=path)
        changed = SweepSpec(
            base=_spec({"users": 9, "providers": 3}), name="store-test"
        )
        with pytest.raises(SpecError, match=r"does not match this sweep"):
            run_sweep(changed, store=path, resume=True)

    def test_failed_sweep_journals_the_completed_rounds(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        sweep = SweepSpec(
            base=_spec({"users": 4, "providers": 3, "rounds": 2}),
            name="fails",
            points=({}, {"runner": "auction_run", "executors": 2}),
        )
        with pytest.raises(SpecError, match=r"executors"):
            run_sweep(sweep, store=path)
        _manifest, completed = ResultsStore(path).read()
        assert set(completed) == {(0, 0), (0, 1)}  # point 0 landed before the failure


class TestFormatMismatch:
    """An explicit --store-format contradicting the on-disk format is refused
    with an error naming both formats and the conversion escape hatch."""

    def _assert_mismatch(self, excinfo, path, on_disk, requested):
        assert excinfo.value.path == str(path)
        message = str(excinfo.value)
        assert f"holds {on_disk!r} data" in message
        assert f"requested {requested!r}" in message
        assert f"results convert {path}" in message
        assert f"--to {requested}" in message

    def test_jsonl_journal_with_columnar_format_is_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sweep = _sweep()
        run_sweep(sweep, store=path)
        with pytest.raises(SpecError) as excinfo:
            run_sweep(sweep, store=path, store_format="columnar", resume=True)
        self._assert_mismatch(excinfo, path, "jsonl", "columnar")

    def test_columnar_journal_with_jsonl_format_is_refused(self, tmp_path):
        path = tmp_path / "run.rcol"
        sweep = _sweep()
        run_sweep(sweep, store=path, store_format="columnar")
        with pytest.raises(SpecError) as excinfo:
            run_sweep(sweep, store=path, store_format="jsonl", resume=True)
        self._assert_mismatch(excinfo, path, "columnar", "jsonl")

    @pytest.mark.parametrize("decided_by", ["resolved backend", "constructor"])
    def test_open_store_with_contradicting_format_is_refused(self, tmp_path, decided_by):
        # The same contradiction given as an instance: the store's format is
        # decided (it resolved its backend, or was told one), so a different
        # store_format cannot be honoured and must not be silently dropped.
        path = tmp_path / "run.out"
        if decided_by == "constructor":
            store = ResultsStore(path, format="jsonl")
        else:
            store = ResultsStore(path)
            assert store.backend_kind == "jsonl"
        with pytest.raises(SpecError) as excinfo:
            run_sweep(_sweep(), store=store, store_format="columnar")
        assert excinfo.value.path == str(path)
        assert "'jsonl'" in str(excinfo.value) and "'columnar'" in str(excinfo.value)
        assert not path.exists()  # refused before anything was written
        run_sweep(_sweep(), store=store, store_format="jsonl")  # agreeing is fine
        assert sniff_format(path) == "jsonl"

    def test_matching_explicit_format_resumes_normally(self, tmp_path):
        path = tmp_path / "run.rcol"
        sweep = _sweep()
        run_sweep(sweep, store=path, store_format="columnar")
        resumed = run_sweep(sweep, store=path, store_format="columnar", resume=True)
        assert resumed.executed_rounds == 0

    def test_unknown_format_lists_available_backends(self, tmp_path):
        with pytest.raises(SpecError) as excinfo:
            run_sweep(_sweep(), store=tmp_path / "x.out", store_format="parquet")
        message = str(excinfo.value)
        assert "parquet" in message
        assert "columnar" in message and "jsonl" in message


class TestCorruption:
    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        sweep = _sweep()
        run_sweep(sweep, store=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "point": 3, "ins')  # crash mid-append
        resumed = run_sweep(sweep, store=path, resume=True)
        assert resumed.executed_rounds == 0
        assert len(resumed.records) == 8

    def test_torn_tail_is_repaired_before_appending(self, tmp_path):
        # Appending after a torn line must not concatenate the next record
        # onto the partial text (which would lose it and, once anything
        # followed, make the journal permanently unreadable).
        path = tmp_path / "journal.jsonl"
        sweep = _sweep()
        full = run_sweep(sweep, store=path)
        lines = path.read_text().splitlines()
        # Keep manifest + 2 records, then a torn partial of the third.
        path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:17])
        resumed = run_sweep(sweep, store=path, resume=True)
        assert resumed.executed_rounds == 6  # the torn round re-ran too
        assert resumed.records == full.records
        # The journal is fully healthy afterwards: every line parses and a
        # further resume finds the complete grid.
        for line in path.read_text().splitlines():
            json.loads(line)
        again = run_sweep(sweep, store=path, resume=True)
        assert again.executed_rounds == 0
        assert again.records == full.records

    def test_missing_final_newline_is_repaired(self, tmp_path):
        # Crash after the record text but before its newline hit the disk.
        path = tmp_path / "journal.jsonl"
        sweep = _sweep()
        full = run_sweep(sweep, store=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]))  # 3 intact records, no final \n
        resumed = run_sweep(sweep, store=path, resume=True)
        assert resumed.executed_rounds == 5
        assert resumed.records == full.records
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        run_sweep(_sweep(), store=path)
        lines = path.read_text().splitlines()
        lines[2] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecError, match=r"line 3 is not valid JSON"):
            ResultsStore(path).read()

    def test_file_without_manifest_is_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "record", "point": 0, "instance": 0}\n')
        with pytest.raises(SpecError, match=r"manifest"):
            run_sweep(_sweep(), store=path, resume=True)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "manifest", "version": 99, "fingerprint": "x"}\n')
        with pytest.raises(SpecError, match=r"version"):
            ResultsStore(path).read()


class TestCliGrid:
    def _dump_quick_sweep(self, tmp_path):
        from repro.scenarios import dump_spec

        path = tmp_path / "sweep.json"
        dump_spec(_sweep(rounds=1), path)
        return path

    def test_cli_workers_output_then_resume_runs_nothing(self, tmp_path, capsys):
        spec_path = self._dump_quick_sweep(tmp_path)
        journal = tmp_path / "out.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_path), "--workers", "2",
             "--output", str(journal), "--json"]
        ) == 0
        first = capsys.readouterr()
        assert "executed 4 new rounds" in first.err
        assert main(
            ["sweep", "--spec", str(spec_path), "--workers", "2",
             "--output", str(journal), "--resume", "--json"]
        ) == 0
        second = capsys.readouterr()
        assert "reused 4 journaled rounds, executed 0 new rounds" in second.err
        # The resumed payload is bit-identical — it came from the journal.
        assert json.loads(second.out) == json.loads(first.out)

    def test_cli_resume_requires_output(self, tmp_path, capsys):
        spec_path = self._dump_quick_sweep(tmp_path)
        assert main(["sweep", "--spec", str(spec_path), "--resume"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_cli_fig4_workers_and_output(self, tmp_path, capsys):
        from repro.scenarios import dump_spec, figure4_sweep

        spec_path = tmp_path / "fig4.json"
        dump_spec(figure4_sweep(n_values=(10,), k_values=(1,)), spec_path)
        journal = tmp_path / "fig4.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_path), "--workers", "2",
             "--output", str(journal), "--json"]
        ) == 0
        first = capsys.readouterr()
        assert main(
            ["sweep", "--spec", str(spec_path), "--workers", "2",
             "--output", str(journal), "--resume", "--json"]
        ) == 0
        second = capsys.readouterr()
        assert "executed 0 new rounds" in second.err
        assert json.loads(second.out) == json.loads(first.out)
