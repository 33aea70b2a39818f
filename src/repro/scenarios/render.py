"""Text renderers of the results plane.

:func:`render_summary` prints a streamed :meth:`ResultsStore.summary` payload,
and :func:`render_records` / :func:`render_series` the in-memory record list
``repro-auction sweep`` prints.  They format plain values only, so this module
loads no NumPy: a text-mode sweep prints without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from repro.scenarios.runner import RunRecord

__all__ = ["render_records", "render_series", "render_summary"]


def render_summary(summary: Mapping[str, Any]) -> str:
    """Human-readable rendering of a :meth:`ResultsStore.summary` payload."""
    lines = [
        f"journal : {summary.get('path', '?')} ({summary.get('backend', '?')})",
        f"sweep   : {summary.get('sweep', '?')}  "
        f"records {summary.get('records', 0)}/{summary.get('total_rounds', '?')}",
    ]
    columns: Mapping[str, Mapping[str, Any]] = summary.get("columns", {})
    if columns:
        header = (
            f"{'column':<20s} {'count':>8s} {'mean':>12s} {'min':>12s} "
            f"{'p50':>12s} {'p90':>12s} {'p99':>12s} {'max':>12s}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name, stats in columns.items():
            lines.append(
                f"{name:<20s} {stats['count']:>8d} "
                + " ".join(_cell(stats[key]) for key in ("mean", "min", "p50", "p90", "p99", "max"))
            )
    flags: Mapping[str, Mapping[str, int]] = summary.get("flags", {})
    for name, state in flags.items():
        lines.append(f"{name:<20s} {state['true']}/{state['count']} true")
    throughput: Mapping[str, float] = summary.get("throughput", {})
    for label, value in throughput.items():
        lines.append(f"{label:<20s} {value:,.1f}")
    return "\n".join(lines)


def _cell(value: Optional[float]) -> str:
    return f"{value:>12.6g}" if value is not None else f"{'-':>12s}"


def render_records(figure: str, records: Iterable["RunRecord"]) -> str:
    """Fixed-width table of a sweep's records, one row per round.

    What ``repro-auction sweep`` prints: ``figure`` (the sweep's name) labels
    every row, ``seconds`` is the modelled elapsed time to four decimals.
    """
    headers = ("figure", "series", "users", "seconds", "messages", "bytes", "aborted")
    rows = [
        [
            f"{value:.4f}" if isinstance(value, float) else str(value)
            for value in (
                figure,
                record.series,
                record.users,
                record.elapsed_seconds,
                record.messages,
                record.bytes_transferred,
                record.aborted,
            )
        ]
        for record in records
    ]
    if not rows:
        return "(no data)"
    widths = [max(len(header), *(len(row[i]) for row in rows)) for i, header in enumerate(headers)]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_series(records: Iterable["RunRecord"]) -> str:
    """One block per series, ``n=users  seconds`` pairs sorted by user count.

    What ``repro-auction sweep --series`` prints — the grouping of the paper's
    figures: running time against the number of users, one line per
    configuration.
    """
    series: Dict[str, List[Tuple[int, float]]] = {}
    for record in records:
        series.setdefault(record.series, []).append((record.users, record.elapsed_seconds))
    lines: List[str] = []
    for name in sorted(series):
        lines.append(f"{name}:")
        for users, seconds in sorted(series[name]):
            lines.append(f"  n={users:>5d}  {seconds:8.3f} s")
    return "\n".join(lines)
