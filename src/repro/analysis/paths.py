"""Taint-path policy: which rules apply to which files.

The determinism rules (RPA001/RPA002) only make sense on the *deterministic
paths* — the packages whose outputs the repo pins bit-identical across
engines, schedulers, executors and ``PYTHONHASHSEED`` values.  Classification
is purely structural (path segments under the ``repro`` package), so it works
identically for real files, test fixtures with virtual paths, and files named
on the CLI with absolute paths.

The policy table (see DESIGN.md, "Static analysis: the determinism linter"):

========================  =========================================
path                      classification
========================  =========================================
``repro/auctions/``       deterministic
``repro/net/``            deterministic
``repro/consensus/``      deterministic
``repro/gametheory/``     deterministic
``repro/obs/``            deterministic (sim-time-only tracing/metrics)
``repro/scenarios/``      deterministic, except ``dispatch.py``
everything else           contract rules only (RPA003–RPA005)
========================  =========================================

``scenarios/dispatch.py`` is exempt because worker resolution *must* inspect
the real machine (``available_cpus``) and warn on real stderr — it is the one
scenarios module whose job is talking to the actual host, not the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Tuple, Union

__all__ = [
    "DETERMINISTIC_EXEMPT_FILES",
    "DETERMINISTIC_PACKAGES",
    "PathClass",
    "classify_path",
]

#: Sub-packages of ``repro`` whose behaviour is pinned bit-identical.
DETERMINISTIC_PACKAGES = frozenset(
    {"auctions", "net", "consensus", "gametheory", "obs", "scenarios"}
)

#: Files inside deterministic packages that are exempt by design.
DETERMINISTIC_EXEMPT_FILES = frozenset({("scenarios", "dispatch.py")})


@dataclass(frozen=True)
class PathClass:
    """The lint-relevant classification of one source file."""

    display_path: str
    repro_parts: Tuple[str, ...]
    deterministic: bool


def _normalize(path: Union[str, "PurePosixPath"]) -> Tuple[str, ...]:
    return tuple(part for part in PurePosixPath(str(path).replace("\\", "/")).parts)


def classify_path(path: Union[str, PurePosixPath]) -> PathClass:
    """Classify ``path`` by its segments; accepts absolute or repo-relative paths."""
    parts = _normalize(path)
    display = "/".join(parts)

    repro_parts: Tuple[str, ...] = ()
    if "repro" in parts:
        anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        repro_parts = parts[anchor + 1 :]

    deterministic = False
    if repro_parts and repro_parts[0] in DETERMINISTIC_PACKAGES:
        exempt = any(
            repro_parts[0] == head and repro_parts[-1] == tail
            for head, tail in DETERMINISTIC_EXEMPT_FILES
        )
        deterministic = not exempt

    return PathClass(
        display_path=display, repro_parts=repro_parts, deterministic=deterministic
    )
