"""What a journal's manifest pins, and what an older journal still does.

A journal's manifest pins the canonical fingerprint of the spec that wrote
it, so any drift in what ``spec_to_dict`` emits (a renamed key, a default
that starts or stops being written) would strand every existing artifact.
The one sanctioned drift is retiring a spec path (a spec class's ``RETIRED``
table): every canonical form lost ``measure_compute`` when compute became
modelled only, the Figure 5 forms lost ``engine = "vectorized"`` when the
engine choice went, and every ``config`` table lost ``use_common_coin`` and
``require_quorum`` when the coin and the quorum became rules, so the
fingerprints pinned here are those of the forms without them.  Five locks:

* the fingerprints of the built-in figure sweeps and of every shipped spec
  file, as literals;
* ``data/fig4_quick_parent.jsonl`` — the journal that
  ``repro-auction sweep --spec examples/specs/fig4_quick.json --output …``
  wrote before the spec walker existed, under measured compute — still
  reads, but does not resume: its records were made under a rule that no
  longer exists, and the refusal names the retired path and its commit;
* ``data/fig5_parent.jsonl`` — what ``sweep --spec examples/specs/fig5.toml
  --output …`` wrote while the spec still named its engine — likewise
  reads, and its resume is refused naming ``engine``;
* ``data/fig4_quick_config_parent.jsonl`` — what ``sweep --spec
  examples/specs/fig4_quick.json --output …`` wrote while ``config`` still
  held the two switches — reads, its records are what this build computes
  but for ``bytes`` and ``elapsed_seconds`` (a distributed round's fell when
  a batch began to travel by position), and its resume is refused naming
  both retired ``config`` paths;
* a journal that ends in a ``quarantine`` line (what a crash-tolerant
  executor, since removed, wrote for a cell it gave up on) still reads, and
  resumes that cell.
"""

import json
import pathlib
import shutil

import pytest

from repro.scenarios import (
    ChaosSpec,
    ResilienceSpec,
    ResultsStore,
    RunRecord,
    SpecError,
    SweepSpec,
    figure4_sweep,
    figure5_sweep,
    load_any,
    load_spec,
    run_sweep,
    spec_fingerprint,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SPECS = REPO_ROOT / "examples" / "specs"
JOURNAL = pathlib.Path(__file__).parent / "data" / "fig4_quick_parent.jsonl"
FIG5_JOURNAL = pathlib.Path(__file__).parent / "data" / "fig5_parent.jsonl"
CONFIG_JOURNAL = pathlib.Path(__file__).parent / "data" / "fig4_quick_config_parent.jsonl"

#: (spec file, class to load it as — ``None`` sniffs scenario vs sweep, fingerprint).
SHIPPED = [
    ("chaos.toml", ChaosSpec, "17a86ebe67fc3df2c20b7180a130983f48da8f1b404d68142357f6af33daded1"),
    ("fig4.json", None, "0d62ecde9f4e3050af54b2015403b4306c23166d39a3a88b21228bdec4b23edc"),
    ("fig4_quick.json", None, "d66ab8a577c25af7d740f0f2a76155c4e1570f2fea1d08bfc94891aca38e5a4e"),
    ("fig5.toml", None, "e725e19f6780ddfc7292bb0dcce99638789de35006179e5d601cbf2dc9907ddf"),
    (
        "resilience.json",
        ResilienceSpec,
        "88747d71f115a60df0256213b78be7db70774594e9f9f71aa2a726f32ab1f5e7",
    ),
    ("vr_sessions.toml", None, "9351f285335555010751def027e2ae7d1ad30a48dfcaece6000f7ed3ac9356e5"),
    ("vr_sweep.toml", None, "a9898194e151b627df3aeb9ff770c84792925de6f072e1e6472708da6f545a8d"),
]


def assert_same_outcome_on_fewer_bytes(journaled, sweep):
    """``journaled`` is what this build computes for ``sweep``, but for bytes and time.

    The agreement batch's positional wire form (a bid is its two float64s)
    cut the bytes of every distributed round, and so the modelled time of a
    bandwidth-latency one; nothing else of a record moved, and no record's
    bytes rose.
    """
    computed = run_sweep(sweep).records

    def outcome(record):
        data = record.to_dict()
        del data["bytes"], data["elapsed_seconds"]
        return data

    assert [outcome(r) for r in journaled] == [outcome(r) for r in computed]
    for old, new in zip(journaled, computed):
        assert new.bytes_transferred <= old.bytes_transferred
        if old.runner == "distributed":
            assert new.bytes_transferred < old.bytes_transferred


def test_every_shipped_spec_file_is_pinned():
    assert sorted(path.name for path in SPECS.iterdir()) == [name for name, _, _ in SHIPPED]


@pytest.mark.parametrize("name, kind, fingerprint", SHIPPED)
def test_shipped_spec_fingerprints_are_pinned(name, kind, fingerprint):
    path = SPECS / name
    spec = load_any(path) if kind is None else load_spec(path, kind)
    assert spec_fingerprint(spec) == fingerprint


def test_builtin_figure_sweep_fingerprints_are_pinned():
    # The built-ins are the shipped figure files, field for field.
    assert (
        spec_fingerprint(figure4_sweep())
        == "0d62ecde9f4e3050af54b2015403b4306c23166d39a3a88b21228bdec4b23edc"
    )
    assert (
        spec_fingerprint(figure5_sweep())
        == "e725e19f6780ddfc7292bb0dcce99638789de35006179e5d601cbf2dc9907ddf"
    )


def test_a_journal_written_under_measured_compute_reads_but_does_not_resume(tmp_path):
    journal = tmp_path / "fig4_quick.jsonl"
    shutil.copy(JOURNAL, journal)
    lines = [json.loads(line) for line in JOURNAL.read_text().splitlines()]
    journaled = {
        (line["point"], line["instance"]): RunRecord.from_dict(line["record"])
        for line in lines[1:]
    }
    assert len(journaled) == 4

    manifest, records = ResultsStore(str(journal)).read()
    assert manifest == lines[0]
    assert records == journaled
    summary = ResultsStore(str(journal)).summary()
    assert (summary["sweep"], summary["records"]) == ("fig4", 4)

    sweep = load_spec(SPECS / "fig4_quick.json", SweepSpec)
    with pytest.raises(SpecError) as refused:
        run_sweep(sweep, store=str(journal), resume=True)
    assert refused.value.path == str(journal)
    assert "does not match this sweep" in refused.value.message
    assert "measure_compute after commit e3eec74" in refused.value.message
    assert journal.read_bytes() == JOURNAL.read_bytes()  # nothing appended


def test_a_figure5_journal_written_with_an_engine_reads_but_does_not_resume(tmp_path):
    journal = tmp_path / "fig5.jsonl"
    shutil.copy(FIG5_JOURNAL, journal)
    lines = [json.loads(line) for line in FIG5_JOURNAL.read_text().splitlines()]
    journaled = {
        (line["point"], line["instance"]): RunRecord.from_dict(line["record"])
        for line in lines[1:]
    }
    assert len(journaled) == 15

    manifest, records = ResultsStore(str(journal)).read()
    assert manifest == lines[0]
    assert records == journaled
    # The journal's records are what this build computes for the same sweep,
    # on fewer bytes.
    sweep = load_spec(SPECS / "fig5.toml", SweepSpec)
    assert_same_outcome_on_fewer_bytes([records[cell] for cell in sorted(records)], sweep)

    with pytest.raises(SpecError) as refused:
        run_sweep(sweep, store=str(journal), resume=True)
    assert refused.value.path == str(journal)
    assert "does not match this sweep" in refused.value.message
    assert "engine after commit 1b436d7" in refused.value.message
    assert journal.read_bytes() == FIG5_JOURNAL.read_bytes()  # nothing appended


def test_a_journal_written_with_the_config_switches_reads_but_does_not_resume(tmp_path):
    journal = tmp_path / "fig4_quick.jsonl"
    shutil.copy(CONFIG_JOURNAL, journal)
    lines = [json.loads(line) for line in CONFIG_JOURNAL.read_text().splitlines()]
    journaled = {
        (line["point"], line["instance"]): RunRecord.from_dict(line["record"])
        for line in lines[1:]
    }
    assert len(journaled) == 4

    manifest, records = ResultsStore(str(journal)).read()
    assert manifest == lines[0]
    assert records == journaled
    # Retiring the switches moved the fingerprint, not a record's outcome.
    sweep = load_spec(SPECS / "fig4_quick.json", SweepSpec)
    assert_same_outcome_on_fewer_bytes([records[cell] for cell in sorted(records)], sweep)

    with pytest.raises(SpecError) as refused:
        run_sweep(sweep, store=str(journal), resume=True)
    assert refused.value.path == str(journal)
    assert "does not match this sweep" in refused.value.message
    assert "config.use_common_coin after commit fc23d76" in refused.value.message
    assert "config.require_quorum after commit fc23d76" in refused.value.message
    assert journal.read_bytes() == CONFIG_JOURNAL.read_bytes()  # nothing appended


def test_a_journal_holding_a_quarantine_line_still_reads_and_resumes(tmp_path):
    # Older builds could give up on a cell and journal it as a quarantine
    # line: that cell's record is absent and the line below, written exactly
    # as those builds wrote it, follows the records.  Readers skip the line
    # kind, so the journal reads, and a resume runs exactly that cell.
    sweep = load_spec(SPECS / "fig4_quick.json", SweepSpec)
    written = tmp_path / "written.jsonl"
    run_sweep(sweep, store=str(written))
    lines = written.read_text().splitlines()
    quarantined = json.loads(lines[2])
    assert (quarantined["point"], quarantined["instance"]) == (1, 0)
    quarantine_line = json.dumps(
        {
            "kind": "quarantine",
            "point": 1,
            "instance": 0,
            "error": "ValueError: injected poison point",
            "traceback": "Traceback (most recent call last):\n"
            "ValueError: injected poison point\n",
        },
        separators=(",", ":"),
    )
    journal = tmp_path / "fig4_quick.jsonl"
    journal.write_text("\n".join(lines[:2] + lines[3:] + [quarantine_line]) + "\n")
    expected = {
        (line["point"], line["instance"]): RunRecord.from_dict(line["record"])
        for line in map(json.loads, lines[1:])
    }

    _manifest, journaled = ResultsStore(str(journal)).read()
    assert journaled == {cell: r for cell, r in expected.items() if cell != (1, 0)}

    result = run_sweep(sweep, store=str(journal), resume=True)
    assert result.executed == 1
    assert result.resumed == 3
    # The resumed cells are the journal's lines; the re-executed cell is what
    # this build computes for it, as a run without a journal does.
    fresh = run_sweep(sweep).records
    cells = sorted(expected)
    assert len(result.records) == len(cells) == len(fresh)
    for cell, record, fresh_record in zip(cells, result.records, fresh):
        assert record == expected[cell]
        if cell == (1, 0):
            assert record == fresh_record
