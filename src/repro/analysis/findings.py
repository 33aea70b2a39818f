"""Findings and suppressions: the data the linter emits and the comments that mute it.

A :class:`Finding` is one rule violation at one source location.  Findings are
frozen, ordered (path, line, col, code) and JSON-round-trippable, so reports
are byte-stable across runs — the same property every other artifact in this
repo guarantees (RunRecord, ResilienceRecord), and the reason a CI lint job
can diff two reports meaningfully.

Suppression is per-line, explicit and *code-scoped*::

    now = time.perf_counter()  # repro: noqa[RPA001] wall-clock timing field

Only the named codes on that exact line are muted; a bare ``# repro: noqa``
(no code list) is deliberately NOT honoured — a suppression that does not say
*what* it suppresses rots silently when the line later grows a second hazard.
Everything after the closing bracket is the human justification; the linter
does not parse it but the review convention (DESIGN.md) requires it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping, Tuple

__all__ = ["Finding", "scan_suppressions", "is_suppressed", "sort_findings"]

#: ``# repro: noqa[RPA001]`` or ``# repro: noqa[RPA001, RPA002] justification``.
_NOQA_PATTERN = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: a stable code at a precise ``path:line:col``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def scan_suppressions(source: str) -> Mapping[int, FrozenSet[str]]:
    """Map 1-based line numbers to the RPA codes suppressed on that line."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(line)
        if match is None:
            continue
        codes = frozenset(
            code.strip().upper() for code in match.group(1).split(",") if code.strip()
        )
        if codes:
            suppressions[lineno] = codes
    return suppressions


def is_suppressed(finding: Finding, suppressions: Mapping[int, FrozenSet[str]]) -> bool:
    return finding.code in suppressions.get(finding.line, frozenset())


def sort_findings(findings) -> Tuple[Finding, ...]:
    """Deterministic report order: (path, line, col, code)."""
    return tuple(sorted(findings))
