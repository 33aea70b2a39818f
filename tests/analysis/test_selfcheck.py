"""The linter's reason to exist: the repo's own source must lint clean.

This is the static counterpart of the differential suites — every future
registry entry, spec dataclass and worker payload must conform *by
construction*.  A new finding here means either a real determinism/contract
hazard (fix it) or a deliberate exception (suppress it on the line with
``# repro: noqa[RPAxxx]`` plus a justification comment).
"""

from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def _tree(name: str) -> Path:
    path = REPO_ROOT / name
    if not path.is_dir():  # pragma: no cover - installed-package runs
        pytest.skip(f"{name}/ not present next to tests/")
    return path


class TestRepoLintsClean:
    def test_src_has_zero_unsuppressed_findings(self):
        report = lint_paths([_tree("src")])
        assert report.findings == (), "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.files_checked > 50

    def test_benchmarks_have_zero_unsuppressed_findings(self):
        report = lint_paths([_tree("benchmarks")])
        assert report.findings == (), "\n".join(
            finding.render() for finding in report.findings
        )

    def test_full_rule_set_ran(self):
        report = lint_paths([_tree("src")])
        assert list(report.codes) == sorted(RULES)

    def test_suppressions_are_the_documented_wall_clock_fields(self):
        # The deliberate exceptions are pinned: SimNetwork's opt-in
        # measure_compute timing and CentralizedAuctioneer's stopwatch, two
        # lines each.  If this count moves, the new suppression needs the
        # same scrutiny these four got (see DESIGN.md).
        report = lint_paths([_tree("src")])
        assert report.suppressed == 4
