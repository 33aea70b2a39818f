"""Streaming aggregation over results journals: summaries without record lists.

The results plane's aggregation layer (see DESIGN.md, "The results plane").
A :class:`StreamingSummary` consumes a journal's rows — one dict at a time
from the JSONL backend, one matrix of numeric columns per chunk from the
columnar backend — and maintains bounded state per numeric column: count,
sum, min, max and a log-domain histogram of at most ``BINS`` occupied bins,
from which quantiles are estimated.  No code path ever materialises the full
record list; memory is O(columns), not O(records), which is what lets
``repro-auction results summarize`` work on journals far larger than RAM.

Cost contract: folding n values into a column costs O(n + occupied bins),
never O(BINS).  The histogram is a ``{bin: count}`` dict, and one
:func:`update_rows` call folds a whole (columns × rows) matrix: one
signed-log transform, one binning and one ``np.unique`` for every column at
once.  A four-record sweep summary therefore makes a few dozen NumPy calls,
not the ~560 of a dense 4,096-bin array per column (see DESIGN.md,
"Streaming aggregation").

Determinism contract: both backends funnel values through the same
:func:`update_rows` kernel, so histogram bucket counts — and therefore
quantile estimates — are bit-identical however the rows were batched or laid
out in rows of a matrix.  Only ``sum`` (and hence ``mean``) may differ in the
last ulp between batchings, because float addition is not associative;
consumers that need exact cross-backend equality compare records, not
summaries.

Quantiles are *estimates* with bounded relative error: values are placed in
one of :data:`~MetricAccumulator.BINS` bins, linear in
``sign(v) * log1p(|v|)`` over ``[-SPAN, SPAN]`` — symmetric-log bucketing in
the spirit of HDR-histogram latency reporters (cf. spirit's
``bench-mc-client/src/metrics.rs``).  At the shipped resolution one bin spans
~3.1% relative width, and estimates are clamped to the exact ``[min, max]``.
Values beyond ``SPAN`` land in the end bins; ±inf too, and a quantile whose
rank falls among the infinities reads exactly ±inf.  A NaN has no rank: it
is a :class:`SpecError` naming its column, as is an int beyond float64.

The text renderers of the results plane sit together at the bottom:
:func:`render_summary` for a streamed summary, and :func:`render_records` /
:func:`render_series` for the in-memory record list ``repro-auction sweep``
prints.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.scenarios.spec import SpecError

if TYPE_CHECKING:
    from repro.scenarios.runner import RunRecord

__all__ = [
    "MetricAccumulator",
    "StreamingSummary",
    "UnrankableValue",
    "derived_throughput",
    "render_records",
    "render_series",
    "render_summary",
    "update_rows",
]

#: Quantiles every summary reports, as (label, q) pairs.
QUANTILES: Tuple[Tuple[str, float], ...] = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class MetricAccumulator:
    """Bounded streaming state for one numeric column.

    ``update`` folds one batch of values in, :func:`update_rows` one batch per
    accumulator (the same kernel); ``quantile`` inverts the histogram.  The
    histogram keeps only its occupied bins, ``{bin: count}``, so state is at
    most O(BINS) and a column of n values costs O(n + occupied bins), however
    many values passed.
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
        self._counts: Dict[int, int] = {}
        # -inf / +inf values: binned at the ends like any other value, but
        # counted too, so a quantile that ranks among them reads exactly ±inf.
        self._infinities = [0, 0]

    def update(self, values: Any) -> None:
        """Fold a batch of values in (list or array; empty batches are no-ops)."""
        update_rows((self,), np.ascontiguousarray(values, dtype=np.float64).reshape(1, -1))

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile from the histogram (clamped to [min, max])."""
        return self._quantiles((q,))[0]

    def _quantiles(self, qs: Sequence[float]) -> List[Optional[float]]:
        """Estimate each of the ascending ``qs`` in one walk of the sorted occupied bins.

        The estimate's bin is the first whose running count reaches the
        target rank ``ceil(q * count)``; its centre, mapped back through the
        signed-log transform and clamped to the exact [min, max], is the value.
        """
        if not self.count:
            return [None] * len(qs)
        negative, positive = self._infinities
        occupied = sorted(self._counts.items())
        position = running = 0
        index = -1
        estimates: List[Optional[float]] = []
        for q in qs:
            target = min(max(int(math.ceil(q * self.count)), 1), self.count)
            if target <= negative:
                estimates.append(-math.inf)
                continue
            if target > self.count - positive:
                estimates.append(math.inf)
                continue
            while running < target:
                index, count = occupied[position]
                running += count
                position += 1
            center = -self.SPAN + (index + 0.5) * _BIN_WIDTH
            value = math.copysign(math.expm1(abs(center)), center)
            estimates.append(min(max(value, self.minimum), self.maximum))
        return estimates

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }
        estimates = self._quantiles([q for _label, q in QUANTILES])
        for (label, _q), estimate in zip(QUANTILES, estimates):
            data[label] = estimate
        return data


#: Width of one histogram bin in the transformed domain (1/32 at the shipped BINS).
_BIN_WIDTH = (2.0 * MetricAccumulator.SPAN) / MetricAccumulator.BINS


class UnrankableValue(ValueError):
    """A NaN reached :func:`update_rows`: it has no rank, so no bin and no quantile.

    ``row`` is the matrix row (the accumulator's position) that held it.
    """

    def __init__(self, row: int) -> None:
        super().__init__(f"row {row} holds a NaN, which no quantile can rank")
        self.row = row

    def __reduce__(self):
        return (UnrankableValue, (self.row,))


def update_rows(accumulators: Sequence[MetricAccumulator], matrix: np.ndarray) -> None:
    """Fold row ``i`` of ``matrix`` into ``accumulators[i]``, every row in one pass.

    ``matrix`` is a C-contiguous float64 array of shape (accumulators × n).
    Per-row sum, min and max reduce along axis 1 — the pairwise loop a 1-D
    ``array.sum()`` runs, so a row folds exactly as it would alone.  The
    signed-log transform and the binning run once over the whole matrix,
    clipped in the float domain (-inf lands in the bottom bin, +inf in the
    top one), and one ``np.unique`` over ``bin + row * BINS`` yields every
    row's occupied bins with their counts.  A NaN raises
    :class:`UnrankableValue` before any accumulator changes.
    """
    rows, width = matrix.shape
    if rows == 0 or width == 0:
        return
    lows = matrix.min(axis=1).tolist()  # a NaN propagates to its row's minimum
    for row, low in enumerate(lows):
        if low != low:
            raise UnrankableValue(row)
    highs = matrix.max(axis=1).tolist()
    sums = matrix.sum(axis=1).tolist()
    nbins = MetricAccumulator.BINS
    scaled = np.log1p(np.abs(matrix))
    scaled *= np.sign(matrix)
    scaled += MetricAccumulator.SPAN
    scaled /= _BIN_WIDTH
    np.clip(scaled, 0, nbins - 1, out=scaled)
    keys = scaled.astype(np.int64)
    keys += np.arange(0, rows * nbins, nbins).reshape(rows, 1)
    occupied, counts = np.unique(keys, return_counts=True)
    bounds = occupied.searchsorted(np.arange(0, (rows + 1) * nbins, nbins)).tolist()
    bins = (occupied % nbins).tolist()
    counts = counts.tolist()
    for row, accumulator in enumerate(accumulators):
        accumulator.count += width
        accumulator.total += sums[row]
        low, high = lows[row], highs[row]
        accumulator.minimum = min(accumulator.minimum, low)
        accumulator.maximum = max(accumulator.maximum, high)
        histogram = accumulator._counts
        start, stop = bounds[row], bounds[row + 1]
        for index, count in zip(bins[start:stop], counts[start:stop]):
            histogram[index] = histogram.get(index, 0) + count
        if low == -math.inf:
            accumulator._infinities[0] += int(np.count_nonzero(matrix[row] == -math.inf))
        if high == math.inf:
            accumulator._infinities[1] += int(np.count_nonzero(matrix[row] == math.inf))


class StreamingSummary:
    """Per-column accumulators over a stream of journal rows.

    Two feeding modes, one kernel (:func:`update_rows`):

    * :meth:`add_row` — row dicts (the JSONL backend).  Rows are buffered and
      flushed through :meth:`add_columns` in fixed-size batches, the columns
      of one length as one matrix, so the NumPy bucketing arithmetic is
      identical to the columnar path.
    * :meth:`add_columns` / :meth:`add_flags` — whole column arrays (the
      columnar backend, one call each per chunk).

    Numeric columns (int/float) get a :class:`MetricAccumulator`; bool columns
    get true/total counts; strings and structured values are skipped — they
    have no streaming aggregate.  Column typing is decided by the first row or
    array seen for each name.  A value no float64 summary can hold — a NaN,
    an int beyond float64's range — is a :class:`SpecError` at ``source``
    (the journal) naming the column.
    """

    #: Row-mode batch size: rows buffered before one vectorised flush.
    BATCH_ROWS = 4096

    def __init__(self, source: str) -> None:
        self.source = source
        self.records = 0
        self.metrics: Dict[str, MetricAccumulator] = {}
        self.flags: Dict[str, List[int]] = {}  # name -> [total, true]
        self._row_buffer: Dict[str, List[float]] = {}
        self._buffered = 0

    # -- row mode (jsonl) -----------------------------------------------------------
    def add_row(self, row: Mapping[str, Any], line: int) -> None:
        """Buffer one row; ``line`` (its journal line) only labels an error."""
        self.records += 1
        for name, value in row.items():
            if isinstance(value, bool):
                state = self.flags.setdefault(name, [0, 0])
                state[0] += 1
                state[1] += int(value)
            elif isinstance(value, (int, float)):
                try:
                    number = float(value)
                except OverflowError:
                    raise SpecError(
                        self.source,
                        f"line {line}: column {name!r} holds an integer beyond the "
                        f"float64 range, which a summary cannot fold",
                    ) from None
                self._row_buffer.setdefault(name, []).append(number)
        self._buffered += 1
        if self._buffered >= self.BATCH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Drain the row buffer through the vectorised column path."""
        buffer, self._row_buffer = self._row_buffer, {}
        self._buffered = 0
        by_length: Dict[int, List[str]] = {}
        for name, values in buffer.items():
            self._metric(name)  # columns keep their first-seen order
            by_length.setdefault(len(values), []).append(name)
        for names in by_length.values():
            self.add_columns(names, np.array([buffer[name] for name in names], dtype=np.float64))

    # -- column mode (columnar) ------------------------------------------------------
    def add_records(self, count: int) -> None:
        """Count rows fed via the column mode (one call per chunk)."""
        self.records += int(count)

    def add_columns(self, names: Sequence[str], matrix: np.ndarray) -> None:
        """Fold row ``i`` of the C-contiguous float64 ``matrix`` into column ``names[i]``."""
        try:
            update_rows([self._metric(name) for name in names], matrix)
        except UnrankableValue as exc:
            raise SpecError(
                self.source,
                f"column {names[exc.row]!r} holds a NaN, which no summary quantile can rank",
            ) from None

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
