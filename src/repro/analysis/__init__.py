"""Static analysis: the determinism & contract linter (``repro-auction lint``).

The repo's headline guarantee — bit-identical results across engines,
schedulers, sequential/parallel executors and ``PYTHONHASHSEED`` values — is
enforced dynamically by the differential suites; this package enforces it
*statically*, catching the bug classes that escape runtime tests before they
run (an unpicklable exception reaches a process pool only on the error path;
set-iteration order only diverges under another hash seed).

Layout: :mod:`~repro.analysis.rules` holds the RPA rule set and the
``RULES`` mapping of code to rule class;
:mod:`~repro.analysis.paths` the taint-path policy;
:mod:`~repro.analysis.engine` discovery/dispatch/suppression;
:mod:`~repro.analysis.reporting` the text/JSON rendering;
:mod:`~repro.analysis.findings` the finding and ``# repro: noqa[RPAxxx]``
primitives.  See DESIGN.md, "Static analysis: the determinism linter", for
the rule contract and how to add a rule.
"""

from repro.analysis.engine import (
    LintError,
    LintReport,
    lint_paths,
    lint_source,
    select_rules,
)
from repro.analysis.findings import Finding, scan_suppressions
from repro.analysis.paths import classify_path
from repro.analysis.reporting import (
    REPORT_VERSION,
    render_json,
    render_text,
    report_to_dict,
)
from repro.analysis.rules import RULES, Rule, SourceModule

__all__ = [
    "Finding",
    "LintError",
    "LintReport",
    "REPORT_VERSION",
    "RULES",
    "Rule",
    "SourceModule",
    "classify_path",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "report_to_dict",
    "scan_suppressions",
    "select_rules",
]
