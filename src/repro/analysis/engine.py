"""The lint engine: file discovery, rule dispatch, suppression, selection.

One :func:`lint_paths` call is one lint run: discover ``.py`` files under the
given paths (sorted, so reports are byte-stable), parse each once, hand the
shared :class:`~repro.analysis.rules.SourceModule` to every selected rule,
then drop findings muted by a line-scoped ``# repro: noqa[RPAxxx]`` comment.
The result is a :class:`LintReport` — pure data; rendering lives in
:mod:`repro.analysis.reporting`.

Error taxonomy (mirrors the CLI exit contract):

* findings           — the report carries them; the CLI exits 1.
* :class:`LintError` — the *lint run itself* is broken (missing path, syntax
  error in a scanned file).  A :class:`~repro.scenarios.spec.SpecError`
  subclass, so the message is path-precise and the CLI exits 2 through the
  same handler every other subcommand uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import ast

from repro.analysis.findings import (
    Finding,
    is_suppressed,
    scan_suppressions,
    sort_findings,
)
from repro.analysis.paths import classify_path
from repro.analysis.rules import RULES, Rule, SourceModule
from repro.scenarios.spec import SpecError

__all__ = ["LintError", "LintReport", "lint_paths", "lint_source", "select_rules"]

#: Directory names never descended into during discovery.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


class LintError(SpecError):
    """The lint run itself failed (bad input, unparseable file) — CLI exit 2."""


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run: what was checked, found and suppressed."""

    codes: Tuple[str, ...]
    files_checked: int
    findings: Tuple[Finding, ...]
    suppressed: int

    @property
    def clean(self) -> bool:
        return not self.findings


def select_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (all of them by default).

    ``select`` entries may be comma-separated (``--select RPA001,RPA002`` and
    repeated ``--select`` flags compose).  Unknown codes raise a path-precise
    :class:`SpecError` naming the offending position, exactly like an unknown
    mechanism kind in a spec file.
    """
    if not select:
        codes = sorted(RULES)
    else:
        codes = []
        for position, chunk in enumerate(select):
            for raw in str(chunk).split(","):
                code = raw.strip().upper()
                if not code:
                    continue
                if code not in RULES:
                    raise SpecError(
                        f"--select[{position}]",
                        f"unknown rule code {raw.strip()!r}; "
                        f"available: {', '.join(sorted(RULES))}",
                    )
                if code not in codes:
                    codes.append(code)
        if not codes:
            raise SpecError("--select", "no rule codes given")
        codes.sort()
    return [RULES[code]() for code in codes]


def _parse_module(display_path: str, source: str) -> SourceModule:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise LintError(
            display_path, f"cannot parse: {exc.msg} (line {exc.lineno})"
        ) from exc
    return SourceModule(
        path_class=classify_path(display_path), source=source, tree=tree
    )


def _run_rules(
    modules: Iterable[SourceModule], rules: Sequence[Rule]
) -> Tuple[Tuple[Finding, ...], int, int]:
    findings: List[Finding] = []
    suppressed = 0
    checked = 0
    for module in modules:
        checked += 1
        suppressions = scan_suppressions(module.source)
        for rule in rules:
            for finding in rule.check(module):
                if is_suppressed(finding, suppressions):
                    suppressed += 1
                else:
                    findings.append(finding)
    return sort_findings(findings), suppressed, checked


def lint_source(
    source: str,
    path: str = "src/repro/example.py",
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint one source string under a virtual ``path`` (fixture/test entry point)."""
    rules = select_rules(select)
    findings, suppressed, checked = _run_rules([_parse_module(path, source)], rules)
    return LintReport(
        codes=tuple(rule.code for rule in rules),
        files_checked=checked,
        findings=findings,
        suppressed=suppressed,
    )


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """All ``.py`` files under ``paths``, sorted; missing paths are a LintError."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(str(raw), "no such file or directory")
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
            continue
        for candidate in path.rglob("*.py"):
            if not _SKIPPED_DIRS.intersection(candidate.parts):
                files.append(candidate)
    return sorted(set(files))


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with the selected rules."""
    rules = select_rules(select)

    def modules() -> Iterable[SourceModule]:
        for file_path in discover_files(paths):
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError as exc:
                raise LintError(str(file_path), f"cannot read: {exc}") from exc
            yield _parse_module(file_path.as_posix(), source)

    findings, suppressed, checked = _run_rules(modules(), rules)
    return LintReport(
        codes=tuple(rule.code for rule in rules),
        files_checked=checked,
        findings=findings,
        suppressed=suppressed,
    )
