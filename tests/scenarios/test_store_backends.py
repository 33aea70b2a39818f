"""Differential suite: the columnar backend is record-equivalent to jsonl.

The results-plane contract is that a journal's *content* is independent of
its file format: every record a backend rehydrates must be byte-identical to
the jsonl backend's on canonical JSON — across sweep and resilience
workloads, sequential and parallel execution, and fingerprint-guarded resume
(including resume *across* formats through ``convert_journal``).  Plus the
columnar failure modes: torn final chunk repaired, fingerprint mismatch,
PYTHONHASHSEED-independent bytes, and the streaming-summary guarantee that
aggregation never materialises a record.
"""

import builtins
import json
import os
import subprocess
import sys

import pytest

from repro.scenarios import (
    ResultsStore,
    RunRecord,
    SpecError,
    SweepSpec,
    convert_journal,
    run_sweep,
    sniff_format,
    spec_fingerprint,
    spec_from_dict,
)
from repro.scenarios.resilience import ResilienceRecord, ResilienceSpec, run_resilience

FORMATS = ("jsonl", "columnar")


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: 64)


def _spec(data):
    base = {"mechanism": "double", "latency": "constant", "measure_compute": False}
    base.update(data)
    return spec_from_dict(base)


def _sweep(rounds=2):
    return SweepSpec(
        base=_spec({"users": 5, "providers": 3, "rounds": rounds}),
        name="backend-diff",
        axes=(("users", (4, 5)), ("seed", (0, 1))),
    )


def _audit():
    return ResilienceSpec(
        name="backend-diff-audit",
        base=_spec({"users": 8, "providers": 4, "config": {"k": 1}, "seed": 3}),
        k=1,
        adversaries=("equivocate", {"kind": "tamper_output", "bonus": 5.0}),
        schedules=("fair",),
        seeds=(3, 4),
    )


def _canonical(record):
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


class TestRecordEquivalence:
    def test_sweep_records_byte_equal_across_backends(self, tmp_path):
        sweep = _sweep()
        stores = {}
        for fmt in FORMATS:
            path = tmp_path / f"sweep.{fmt}"
            run_sweep(sweep, store=path, store_format=fmt)
            assert sniff_format(path) == fmt
            _manifest, completed = ResultsStore(path).read()
            stores[fmt] = completed
        assert stores["jsonl"].keys() == stores["columnar"].keys()
        for key, record in stores["jsonl"].items():
            assert _canonical(record) == _canonical(stores["columnar"][key])
        # Typed equality too — same frozen dataclass values, not just JSON.
        assert stores["jsonl"] == stores["columnar"]
        # Same content, fewer bytes: typed chunks + interned strings vs text.
        sizes = {fmt: os.path.getsize(tmp_path / f"sweep.{fmt}") for fmt in FORMATS}
        assert sizes["jsonl"] >= 1.5 * sizes["columnar"], sizes

    def test_parallel_columnar_matches_sequential_jsonl(self, tmp_path):
        sweep = _sweep()
        sequential = run_sweep(sweep, store=tmp_path / "seq.jsonl")
        parallel = run_sweep(
            sweep, workers=3, store=tmp_path / "par.rcol", store_format="columnar"
        )
        assert [_canonical(r) for r in parallel.records] == [
            _canonical(r) for r in sequential.records
        ]
        # And what landed on disk rehydrates to the same records, in order.
        _manifest, completed = ResultsStore(tmp_path / "par.rcol").read()
        assert sorted(completed) == sorted(
            (p, i) for p in range(4) for i in range(2)
        )

    def test_resilience_records_byte_equal_across_backends(self, tmp_path):
        audit = _audit()
        completed = {}
        for fmt in FORMATS:
            path = tmp_path / f"audit.{fmt}"
            run_resilience(audit, store=path, store_format=fmt)
            store = ResultsStore(path, record_type=ResilienceRecord)
            _manifest, cells = store.read(
                expected_fingerprint=spec_fingerprint(audit)
            )
            completed[fmt] = cells
        assert completed["jsonl"].keys() == completed["columnar"].keys()
        for key, record in completed["jsonl"].items():
            assert isinstance(record, ResilienceRecord)
            assert _canonical(record) == _canonical(completed["columnar"][key])

    def test_resilience_resume_on_columnar_runs_nothing(self, tmp_path):
        audit = _audit()
        path = tmp_path / "audit.rcol"
        first = run_resilience(audit, store=path, store_format="columnar")
        again = run_resilience(audit, store=path, resume=True)
        assert again.executed_cells == 0
        assert again.resumed_cells == len(first.records)
        assert again.records == first.records


class TestConvert:
    def test_round_trip_preserves_manifest_and_record_bytes(self, tmp_path):
        sweep = _sweep()
        source = tmp_path / "run.jsonl"
        run_sweep(sweep, store=source)
        forth = convert_journal(source, tmp_path / "run.rcol")
        back = convert_journal(tmp_path / "run.rcol", tmp_path / "back.jsonl")
        assert (forth["from"], forth["to"]) == ("jsonl", "columnar")
        assert (back["from"], back["to"]) == ("columnar", "jsonl")
        assert forth["records"] == back["records"] == 8
        first_lines = source.read_text().splitlines()
        round_trip = (tmp_path / "back.jsonl").read_text().splitlines()
        # The manifest is copied verbatim; record *content* is byte-stable
        # through the typed columns (jsonl key order within a line may shift).
        assert json.loads(round_trip[0]) == json.loads(first_lines[0])
        originals = {
            (e["point"], e["instance"]): e["record"]
            for e in map(json.loads, first_lines[1:])
        }
        for line in round_trip[1:]:
            entry = json.loads(line)
            key = (entry["point"], entry["instance"])
            assert json.dumps(entry["record"], sort_keys=True) == json.dumps(
                originals[key], sort_keys=True
            )

    def test_resume_continues_a_partial_journal_across_formats(self, tmp_path):
        sweep = _sweep()
        full = run_sweep(sweep, store=tmp_path / "full.jsonl")
        partial = tmp_path / "partial.jsonl"
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        partial.write_text("\n".join(lines[:4]) + "\n")  # manifest + 3 rounds
        converted = tmp_path / "partial.rcol"
        assert convert_journal(partial, converted)["records"] == 3
        resumed = run_sweep(sweep, store=converted, resume=True)
        assert resumed.resumed_rounds == 3
        assert resumed.executed_rounds == 5
        assert resumed.records == full.records

    def test_same_format_destination_is_refused(self, tmp_path):
        run_sweep(_sweep(), store=tmp_path / "run.jsonl")
        with pytest.raises(SpecError, match=r"already holds 'jsonl'"):
            convert_journal(
                tmp_path / "run.jsonl", tmp_path / "copy.jsonl", to="jsonl"
            )

    def test_existing_destination_is_refused(self, tmp_path):
        run_sweep(_sweep(), store=tmp_path / "run.jsonl")
        (tmp_path / "taken.rcol").write_text("something else\n")
        with pytest.raises(SpecError, match=r"already exists"):
            convert_journal(tmp_path / "run.jsonl", tmp_path / "taken.rcol")

    def test_missing_source_is_an_error(self, tmp_path):
        with pytest.raises(SpecError, match=r"not found"):
            convert_journal(tmp_path / "ghost.jsonl", tmp_path / "out.rcol")

    def test_unknown_target_format_lists_available(self, tmp_path):
        run_sweep(_sweep(), store=tmp_path / "run.jsonl")
        with pytest.raises(SpecError) as excinfo:
            convert_journal(tmp_path / "run.jsonl", tmp_path / "o.x", to="parquet")
        assert excinfo.value.path == "--to"
        assert "columnar" in str(excinfo.value) and "jsonl" in str(excinfo.value)


class TestColumnarFailureModes:
    def test_torn_final_chunk_is_ignored_on_read(self, tmp_path):
        path = tmp_path / "run.rcol"
        sweep = _sweep()
        run_sweep(sweep, store=path, store_format="columnar")
        healthy = path.read_bytes()
        # Crash mid-seal: marker + a header that never finished writing.
        path.write_bytes(healthy + b"CHNK\x40\x00\x00\x00{\"rows\": 512, ")
        _manifest, completed = ResultsStore(path).read()
        assert len(completed) == 8

    def test_torn_payload_is_ignored_on_read(self, tmp_path):
        path = tmp_path / "run.rcol"
        sweep = _sweep()
        run_sweep(sweep, store=path, store_format="columnar")
        healthy = path.read_bytes()
        # A complete header whose payload was cut off by the crash.
        header = json.dumps(
            {"rows": 99, "schema": [["x", "int"]], "strings": [], "payload_bytes": 9999}
        ).encode()
        torn = b"CHNK" + len(header).to_bytes(4, "little") + header + b"\x00" * 10
        path.write_bytes(healthy + torn)
        _manifest, completed = ResultsStore(path).read()
        assert len(completed) == 8

    def test_resume_repairs_the_torn_tail_and_appends_after_it(self, tmp_path):
        path = tmp_path / "run.rcol"
        sweep = _sweep()
        full = run_sweep(sweep, store=path, store_format="columnar")
        healthy = path.read_bytes()
        path.write_bytes(healthy + b"CHNK\x07garbage")
        resumed = run_sweep(sweep, store=path, resume=True)
        assert resumed.executed_rounds == 0
        assert resumed.records == full.records
        assert path.read_bytes() == healthy  # truncated back to the sealed extent
        # The journal stays healthy through a further resume cycle.
        again = run_sweep(sweep, store=path, resume=True)
        assert again.records == full.records

    def test_fingerprint_guard_holds_on_columnar_and_converted_journals(
        self, tmp_path
    ):
        sweep = _sweep()
        run_sweep(sweep, store=tmp_path / "run.rcol", store_format="columnar")
        changed = SweepSpec(base=_spec({"users": 9, "providers": 3}), name="backend-diff")
        with pytest.raises(SpecError, match=r"does not match this sweep"):
            run_sweep(changed, store=tmp_path / "run.rcol", resume=True)
        # The guard survives conversion: the fingerprint travels verbatim.
        convert_journal(tmp_path / "run.rcol", tmp_path / "run.jsonl")
        with pytest.raises(SpecError, match=r"does not match this sweep"):
            run_sweep(changed, store=tmp_path / "run.jsonl", resume=True)

    def test_type_unstable_records_are_refused_with_the_field_name(self, tmp_path):
        path = tmp_path / "run.rcol"
        store = ResultsStore(path, format="columnar")
        store.begin(_sweep(), total_rounds=2)
        record = run_sweep(_sweep()).records[0]
        store.append(0, 0, record)
        broken = dict(record.to_dict())
        broken["users"] = "five"  # int column fed a str
        store.backend.append_raw(0, 1, broken)
        # Appends only buffer; the type check runs when the chunk is sealed.
        with pytest.raises(SpecError, match=r"'users' is not type-stable"):
            store.flush()

    def test_not_a_columnar_journal_is_a_clear_error(self, tmp_path):
        path = tmp_path / "run.rcol"
        path.write_bytes(b"RPACOL1\nnot a manifest block")
        with pytest.raises(SpecError, match=r"truncated manifest block"):
            ResultsStore(path).read()


class TestStreamingSummary:
    def test_summaries_agree_across_backends(self, tmp_path):
        sweep = _sweep()
        summaries = {}
        for fmt in FORMATS:
            path = tmp_path / f"run.{fmt}"
            run_sweep(sweep, store=path, store_format=fmt)
            summaries[fmt] = ResultsStore(path).summary()
        for payload in summaries.values():
            payload.pop("path")
            payload.pop("backend")
        jsonl, columnar = summaries["jsonl"], summaries["columnar"]
        assert jsonl["records"] == columnar["records"] == 8
        assert jsonl["flags"] == columnar["flags"]
        assert jsonl["columns"].keys() == columnar["columns"].keys()
        for name, stats in jsonl["columns"].items():
            other = columnar["columns"][name]
            # Histogram-derived stats are bit-identical (same update kernel,
            # batch-invariant); means may differ in the last ulp only.
            for field in ("count", "min", "max", "p50", "p90", "p99"):
                assert stats[field] == other[field], (name, field)
            assert stats["mean"] == pytest.approx(other["mean"], rel=1e-12)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_summary_never_rehydrates_a_record(self, tmp_path, monkeypatch, fmt):
        path = tmp_path / f"run.{fmt}"
        run_sweep(_sweep(), store=path, store_format=fmt)

        def boom(cls, payload):  # pragma: no cover - the point is it never runs
            raise AssertionError("summary() must stream, not rehydrate records")

        monkeypatch.setattr(RunRecord, "from_dict", classmethod(boom))
        summary = ResultsStore(path).summary()
        assert summary["records"] == 8
        assert summary["columns"]["total_paid"]["count"] == 8

    def test_empty_journal_summary_is_pinned_across_backends(self, tmp_path):
        # A journal holding only its manifest (begun, nothing appended — e.g.
        # a run interrupted before its first round) summarises to the same
        # empty snapshot on every backend: zero records, empty column/flag/
        # throughput tables, never a crash or a null-division.
        sweep = _sweep()
        summaries = {}
        for fmt in FORMATS:
            path = tmp_path / f"empty.{fmt}"
            with ResultsStore(path, format=fmt) as store:
                store.begin(sweep, total_rounds=8)
            summaries[fmt] = ResultsStore(path).summary()
        for fmt, payload in summaries.items():
            assert payload.pop("backend") == fmt
            assert payload.pop("path").endswith(f"empty.{fmt}")
            assert payload["records"] == 0
            assert payload["columns"] == {}
            assert payload["flags"] == {}
            assert payload["throughput"] == {}
            assert payload["total_rounds"] == 8
        assert summaries["jsonl"] == summaries["columnar"]

    def test_empty_accumulator_snapshot_is_pinned(self):
        # The empty-distribution contract shared by store summaries and the
        # obs plane's histograms: count=0, every statistic None.
        from repro.scenarios.aggregate import MetricAccumulator

        assert MetricAccumulator().to_dict() == {
            "count": 0,
            "mean": None,
            "min": None,
            "max": None,
            "p50": None,
            "p90": None,
            "p99": None,
        }

    def test_summary_carries_throughput_from_elapsed_totals(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_sweep(_sweep(), store=path)
        throughput = ResultsStore(path).summary()["throughput"]
        assert throughput["rounds_per_second"] > 0
        assert throughput["messages_per_second"] > 0


class TestHashSeedStability:
    """Columnar bytes are a pure function of the record stream.

    The string dictionary grows in first-seen order and every header/payload
    is canonically encoded, so two interpreters with different hash seeds
    must produce *byte-identical* files — the store-layer extension of the
    ``test_seed_stability`` contract.
    """

    _SCRIPT = """\
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from repro.scenarios import SweepSpec, run_sweep, spec_from_dict

spec = spec_from_dict({
    "mechanism": "double", "latency": "constant", "measure_compute": False,
    "users": 5, "providers": 3, "rounds": 2,
})
sweep = SweepSpec(base=spec, name="hash-stability", axes=(("seed", (0, 1)),))
run_sweep(sweep, store=sys.argv[2], store_format="columnar")
with open(sys.argv[2], "rb") as handle:
    print(hashlib.sha256(handle.read()).hexdigest())
"""

    def _digest(self, tmp_path, hash_seed):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        out = tmp_path / f"hashseed-{hash_seed}.rcol"
        result = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, src, str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            check=True,
        )
        return result.stdout.strip()

    def test_columnar_bytes_identical_across_hash_seeds(self, tmp_path):
        digests = {self._digest(tmp_path, seed) for seed in ("0", "4242")}
        assert len(digests) == 1


class TestAppendIO:
    """Satellite: resume reads the journal once; appending never reads."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_appends_do_constant_io_and_resume_reads_once(
        self, tmp_path, monkeypatch, fmt
    ):
        path = tmp_path / f"run.{fmt}"
        sweep = _sweep()
        records = run_sweep(sweep).records

        read_opens = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            try:
                same = os.fspath(file) == os.fspath(path)
            except TypeError:
                same = False
            if same and "r" in mode and "+" not in mode:
                read_opens.append(mode)
            return handle

        monkeypatch.setattr(builtins, "open", counting_open)

        with ResultsStore(path, format=fmt) as store:
            store.begin(sweep, total_rounds=16)
            for index, record in enumerate(records[:4]):
                store.append(index, 0, record)
        assert read_opens == []  # a fresh journal is never read

        with ResultsStore(path) as store:
            store.backend  # resolve the backend: an 8-byte format sniff
            read_opens.clear()
            completed = store.begin(sweep, total_rounds=16, resume=True)
            assert len(completed) == 4
            assert read_opens == ["rb"]  # the single load pass — no re-read
            for index, record in enumerate(records[4:]):
                store.append(4 + index, 0, record)
            assert read_opens == ["rb"]  # appends never read

        monkeypatch.setattr(builtins, "open", real_open)
        _manifest, completed = ResultsStore(path).read()
        assert len(completed) == 8
