"""Streaming aggregation over results journals: summaries without record lists.

The results plane's aggregation layer (see DESIGN.md, "The results plane").
A :class:`StreamingSummary` consumes a journal's rows — one dict at a time
from the JSONL backend, one column array per chunk from the columnar backend
— and maintains constant-size state per numeric column: count, sum, min, max
and a fixed-bin log-domain histogram from which quantiles are estimated.  No
code path ever materialises the full record list; memory is O(columns), not
O(records), which is what lets ``repro-auction results summarize`` work on
journals far larger than RAM.

Determinism contract: both backends funnel values through the same
:meth:`MetricAccumulator.update` NumPy kernel, so histogram bucket counts —
and therefore quantile estimates — are bit-identical however the rows were
batched.  Only ``sum`` (and hence ``mean``) may differ in the last ulp
between batchings, because float addition is not associative; consumers that
need exact cross-backend equality compare records, not summaries.

Quantiles are *estimates* with bounded relative error: values are placed in
one of :data:`~MetricAccumulator.BINS` bins, linear in
``sign(v) * log1p(|v|)`` over ``[-SPAN, SPAN]`` — symmetric-log bucketing in
the spirit of HDR-histogram latency reporters (cf. spirit's
``bench-mc-client/src/metrics.rs``).  At the shipped resolution one bin spans
~3.1% relative width, and estimates are clamped to the exact ``[min, max]``.

The text renderers of the results plane sit together at the bottom:
:func:`render_summary` for a streamed summary, and :func:`render_records` /
:func:`render_series` for the in-memory record list ``repro-auction sweep``
prints.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.scenarios.runner import RunRecord

__all__ = [
    "MetricAccumulator",
    "StreamingSummary",
    "derived_throughput",
    "render_records",
    "render_series",
    "render_summary",
]

#: Quantiles every summary reports, as (label, q) pairs.
QUANTILES: Tuple[Tuple[str, float], ...] = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class MetricAccumulator:
    """Constant-size streaming state for one numeric column.

    ``update`` takes a float64 array (any batching); ``quantile`` inverts the
    histogram.  All state is O(BINS), independent of how many values passed.
    """

    #: Histogram resolution: bins linear in the transformed domain.
    BINS = 4096
    #: Transformed domain half-width: log1p(|v|) <= 64 covers |v| < ~6e27.
    SPAN = 64.0

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._counts = np.zeros(self.BINS, dtype=np.int64)

    def update(self, values: Any) -> None:
        """Fold a batch of values in (list or array; empty batches are no-ops)."""
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return
        self.count += int(array.size)
        self.total += float(array.sum())
        self.minimum = min(self.minimum, float(array.min()))
        self.maximum = max(self.maximum, float(array.max()))
        transformed = np.sign(array) * np.log1p(np.abs(array))
        width = (2.0 * self.SPAN) / self.BINS
        indices = np.clip(
            ((transformed + self.SPAN) / width).astype(np.int64), 0, self.BINS - 1
        )
        self._counts += np.bincount(indices, minlength=self.BINS)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile from the histogram (clamped to [min, max])."""
        if not self.count:
            return None
        target = min(max(int(math.ceil(q * self.count)), 1), self.count)
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, target))
        width = (2.0 * self.SPAN) / self.BINS
        center = -self.SPAN + (index + 0.5) * width
        value = math.copysign(math.expm1(abs(center)), center)
        return min(max(value, self.minimum), self.maximum)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }
        for label, q in QUANTILES:
            data[label] = self.quantile(q)
        return data


class StreamingSummary:
    """Per-column accumulators over a stream of journal rows.

    Two feeding modes, one kernel:

    * :meth:`add_row` — row dicts (the JSONL backend).  Rows are buffered and
      flushed through :meth:`add_column` in fixed-size batches so the NumPy
      bucketing arithmetic is identical to the columnar path.
    * :meth:`add_column` / :meth:`add_flags` — whole column arrays (the
      columnar backend, one call per chunk).

    Numeric columns (int/float) get a :class:`MetricAccumulator`; bool columns
    get true/total counts; strings and structured values are skipped — they
    have no streaming aggregate.  Column typing is decided by the first row or
    array seen for each name.
    """

    #: Row-mode batch size: rows buffered before one vectorised flush.
    BATCH_ROWS = 4096

    def __init__(self) -> None:
        self.records = 0
        self.metrics: Dict[str, MetricAccumulator] = {}
        self.flags: Dict[str, List[int]] = {}  # name -> [total, true]
        self._row_buffer: Dict[str, List[float]] = {}
        self._buffered = 0

    # -- row mode (jsonl) -----------------------------------------------------------
    def add_row(self, row: Mapping[str, Any]) -> None:
        self.records += 1
        for name, value in row.items():
            if isinstance(value, bool):
                state = self.flags.setdefault(name, [0, 0])
                state[0] += 1
                state[1] += int(value)
            elif isinstance(value, (int, float)):
                self._row_buffer.setdefault(name, []).append(float(value))
        self._buffered += 1
        if self._buffered >= self.BATCH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Drain the row buffer through the vectorised column path."""
        buffer, self._row_buffer = self._row_buffer, {}
        self._buffered = 0
        for name in buffer:
            self._metric(name).update(buffer[name])

    # -- column mode (columnar) ------------------------------------------------------
    def add_records(self, count: int) -> None:
        """Count rows fed via the column mode (one call per chunk)."""
        self.records += int(count)

    def add_column(self, name: str, values: Any) -> None:
        self._metric(name).update(values)

    def add_flags(self, name: str, values: Any) -> None:
        array = np.asarray(values, dtype=bool).ravel()
        state = self.flags.setdefault(name, [0, 0])
        state[0] += int(array.size)
        state[1] += int(array.sum())

    # -- results ---------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        self.flush()
        return {
            "records": self.records,
            "columns": {name: self.metrics[name].to_dict() for name in self.metrics},
            "flags": {
                name: {"count": state[0], "true": state[1]}
                for name, state in self.flags.items()
            },
            "throughput": derived_throughput(self.metrics),
        }

    def _metric(self, name: str) -> MetricAccumulator:
        metric = self.metrics.get(name)
        if metric is None:
            metric = self.metrics[name] = MetricAccumulator()
        return metric


def derived_throughput(metrics: Mapping[str, MetricAccumulator]) -> Dict[str, float]:
    """Throughput aggregates derivable from the well-known record columns.

    When the stream carried ``elapsed_seconds`` (every sweep record does),
    total modelled time relates the other totals: messages/sec, bytes/sec and
    rounds/sec over the journal as a whole.  Absent or zero elapsed time
    yields an empty mapping rather than infinities.
    """
    elapsed = metrics.get("elapsed_seconds")
    if elapsed is None or elapsed.total <= 0.0:
        return {}
    derived: Dict[str, float] = {"rounds_per_second": elapsed.count / elapsed.total}
    for source, label in (("messages", "messages_per_second"), ("bytes", "bytes_per_second")):
        metric = metrics.get(source)
        if metric is not None:
            derived[label] = metric.total / elapsed.total
    return derived


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
