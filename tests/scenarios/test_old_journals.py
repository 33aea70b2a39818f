"""What a journal's manifest pins, and what an older journal still does.

A journal's manifest pins the canonical fingerprint of the spec that wrote
it, so any drift in what ``spec_to_dict`` emits (a renamed key, a default
that starts or stops being written) would strand every existing artifact.
The one sanctioned drift is retiring a spec path (``ScenarioSpec.RETIRED``):
every canonical form lost ``measure_compute`` when compute became modelled
only, and the Figure 5 forms lost ``engine = "vectorized"`` when the engine
choice went, so the fingerprints pinned here are those of the forms without
them.  Four locks:

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

#: (spec file, class to load it as — ``None`` sniffs scenario vs sweep, fingerprint).
SHIPPED = [
    ("chaos.toml", ChaosSpec, "8aab9dd9daa39ae5370bf5fa07a79475b94e8fbf464e74f4c3baef1db469d96a"),
    ("fig4.json", None, "a7b9e9fe1095882493bcd307505c6df6524038ac21a997b3d78eb769a62cf868"),
    ("fig4_quick.json", None, "0bcc675a4e87d3b2869f9ba0a44a7e615dec28885b2ffc1e74addc92c31e841a"),
    ("fig5.toml", None, "ea109bf5dd90a226c0585c190ba5f7c9982b2070d777ca0853db4811a8e2aca9"),
    (
        "resilience.json",
        ResilienceSpec,
        "c361a04ad3b54aa3efb96fc987601c425f5269bdca68d6654ffd5b4465c35a4a",
    ),
    ("vr_sessions.toml", None, "735992f06effe738be6e5f07a9764990070fcac18b418cf853c0d770000b6ec6"),
    ("vr_sweep.toml", None, "9f1a33878957bd2607da13210dbfee8b59980ca61ca7d7055b34c0ebf7e9f70b"),
]


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
        == "a7b9e9fe1095882493bcd307505c6df6524038ac21a997b3d78eb769a62cf868"
    )
    assert (
        spec_fingerprint(figure5_sweep())
        == "ea109bf5dd90a226c0585c190ba5f7c9982b2070d777ca0853db4811a8e2aca9"
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
    # The journal's records are what this build computes for the same sweep.
    sweep = load_spec(SPECS / "fig5.toml", SweepSpec)
    assert [records[cell] for cell in sorted(records)] == run_sweep(sweep).records

    with pytest.raises(SpecError) as refused:
        run_sweep(sweep, store=str(journal), resume=True)
    assert refused.value.path == str(journal)
    assert "does not match this sweep" in refused.value.message
    assert "engine after commit 1b436d7" in refused.value.message
    assert journal.read_bytes() == FIG5_JOURNAL.read_bytes()  # nothing appended


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
