"""What a journal's manifest pins, and what an older journal still does.

A journal's manifest pins the canonical fingerprint of the spec that wrote
it, so any drift in what ``spec_to_dict`` emits (a renamed key, a default
that starts or stops being written) would strand every existing artifact.
The one sanctioned drift is retiring a spec path (a spec class's ``RETIRED``
table): every canonical form lost ``measure_compute`` when compute became
modelled only, the Figure 5 forms lost ``engine = "vectorized"`` when the
engine choice went, every ``config`` table lost ``use_common_coin`` and
``require_quorum`` when the coin and the quorum became rules, and
``agreement_mode`` when the bid agreement kept one form, so the fingerprints
pinned here are those of the forms without them.  Six locks:

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
* ``data/fig4_quick_agreement_parent.jsonl`` — what the same command wrote
  while ``config`` still held ``agreement_mode`` — reads, its records are
  exactly what this build computes, and its resume is refused naming
  ``config.agreement_mode``;
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
AGREEMENT_JOURNAL = pathlib.Path(__file__).parent / "data" / "fig4_quick_agreement_parent.jsonl"

#: (spec file, class to load it as — ``None`` sniffs scenario vs sweep, fingerprint).
SHIPPED = [
    ("chaos.toml", ChaosSpec, "9151679fa064c871f2fcb0a5f175cc290cb5cc515b85527e276117e95f35fa4a"),
    ("fig4.json", None, "26790a5e2d365f298722d7b1da407afe52cd91e6752299c6241b506377b3283e"),
    ("fig4_quick.json", None, "a785ca65dfa2a4eeb8d3c589888126292842e8f5efa53b9659793a43b2c23abc"),
    ("fig5.toml", None, "9ba37c00db83d114364d624780b8ea25cb365e841810accc6fa269045c02755a"),
    (
        "resilience.json",
        ResilienceSpec,
        "3ff56fa09c71e71f11786d98d1a8c9bcb12a55315221599de837e7538a1f1d3f",
    ),
    ("vr_sessions.toml", None, "9b8865bdb22b610d15edb3c6a3db74f9ad05503386c52058eeec6864b49a42ac"),
    ("vr_sweep.toml", None, "bbef6373e788ad45c3a2d18f85806033ca81d7394f83b4db8fbee4a8bafcfbcf"),
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
        == "26790a5e2d365f298722d7b1da407afe52cd91e6752299c6241b506377b3283e"
    )
    assert (
        spec_fingerprint(figure5_sweep())
        == "9ba37c00db83d114364d624780b8ea25cb365e841810accc6fa269045c02755a"
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


def test_a_journal_written_with_an_agreement_mode_reads_but_does_not_resume(tmp_path):
    journal = tmp_path / "fig4_quick.jsonl"
    shutil.copy(AGREEMENT_JOURNAL, journal)
    lines = [json.loads(line) for line in AGREEMENT_JOURNAL.read_text().splitlines()]
    journaled = {
        (line["point"], line["instance"]): RunRecord.from_dict(line["record"])
        for line in lines[1:]
    }
    assert len(journaled) == 4

    manifest, records = ResultsStore(str(journal)).read()
    assert manifest == lines[0]
    assert records == journaled
    # Retiring the mode moved the fingerprint and nothing else: the batched
    # agreement it selected is the one agreement, bytes and time included.
    sweep = load_spec(SPECS / "fig4_quick.json", SweepSpec)
    assert [records[cell] for cell in sorted(records)] == run_sweep(sweep).records

    with pytest.raises(SpecError) as refused:
        run_sweep(sweep, store=str(journal), resume=True)
    assert refused.value.path == str(journal)
    assert "does not match this sweep" in refused.value.message
    assert "config.agreement_mode after commit da19b2d" in refused.value.message
    assert journal.read_bytes() == AGREEMENT_JOURNAL.read_bytes()  # nothing appended


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
