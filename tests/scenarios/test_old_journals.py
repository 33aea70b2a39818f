"""Journals written before the spec walker existed must keep resuming.

A journal's manifest pins the canonical fingerprint of the spec that wrote
it, so any drift in what ``spec_to_dict`` emits (a renamed key, a default
that starts or stops being written) would strand every existing artifact.
Two locks, both computed at the commit *before* the walker replaced the four
hand-written ``*_to_dict`` functions:

* the fingerprints of the built-in figure sweeps and of every shipped spec
  file, as literals;
* ``data/fig4_quick_parent.jsonl`` — the journal that commit's
  ``repro-auction sweep --spec examples/specs/fig4_quick.json --output …``
  wrote — which must resume with nothing left to execute.
"""

import json
import pathlib
import shutil

import pytest

from repro.scenarios import (
    ChaosSpec,
    ResilienceSpec,
    RunRecord,
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

#: (spec file, class to load it as — ``None`` sniffs scenario vs sweep, fingerprint).
SHIPPED = [
    ("chaos.toml", ChaosSpec, "7ab09f34b4fe78b0516734964e5d050f889615631814809ea1fd2f98baf3b9c7"),
    ("fig4.json", None, "5dd556e8e5988d56b8f0a819ef9a3946d74afbd279f4bccfb56889c5c41796bb"),
    ("fig4_quick.json", None, "b7793f1596bd7068e335c476f628aae833f3c62645bd7b1a8011de88ef13c26d"),
    ("fig5.toml", None, "9b60aa4b109695e2eb2c931e9b17e67d4da16b23b1c98660160866db594b41b2"),
    (
        "resilience.json",
        ResilienceSpec,
        "198fb46200cc50a3c685620ac20f537aaa4ad71a30fd88425dccf6d09921cc3d",
    ),
    ("vr_sessions.toml", None, "dbfb278b719ea785360daea836de7a5f8d7452ff89c8ac36a08ffc5c6b0db0ac"),
    ("vr_sweep.toml", None, "da518b6e5584d1fc76e8b2fa05e01ff9741c5a964e9aeac352d6ad1c187178e1"),
]


def test_every_shipped_spec_file_is_pinned():
    assert sorted(path.name for path in SPECS.iterdir()) == [name for name, _, _ in SHIPPED]


@pytest.mark.parametrize("name, kind, fingerprint", SHIPPED)
def test_shipped_spec_fingerprints_are_the_parent_commits(name, kind, fingerprint):
    path = SPECS / name
    spec = load_any(path) if kind is None else load_spec(path, kind)
    assert spec_fingerprint(spec) == fingerprint


def test_builtin_figure_sweep_fingerprints_are_the_parent_commits():
    assert (
        spec_fingerprint(figure4_sweep())
        == "5dd556e8e5988d56b8f0a819ef9a3946d74afbd279f4bccfb56889c5c41796bb"
    )
    assert (
        spec_fingerprint(figure5_sweep())
        == "9b60aa4b109695e2eb2c931e9b17e67d4da16b23b1c98660160866db594b41b2"
    )


def test_a_journal_written_by_the_parent_commit_resumes(tmp_path):
    journal = tmp_path / "fig4_quick.jsonl"
    shutil.copy(JOURNAL, journal)
    lines = [json.loads(line) for line in JOURNAL.read_text().splitlines()]
    journaled = [RunRecord.from_dict(line["record"]) for line in lines[1:]]
    assert len(journaled) == 4

    sweep = load_spec(SPECS / "fig4_quick.json", SweepSpec)
    result = run_sweep(sweep, store=str(journal), resume=True)
    assert result.executed_rounds == 0
    assert result.resumed_rounds == 4
    assert result.records == journaled
    assert journal.read_bytes() == JOURNAL.read_bytes()  # nothing appended
