"""Deterministic counters, gauges and histograms behind one metrics hub.

Three instrument classes, each carrying its ``kind`` in every snapshot:

``counter``
    A monotonically increasing integer (messages sent, faults injected,
    memo hits).  Snapshot: ``{"kind": "counter", "value": N}``.

``gauge``
    A last-write-wins value (solve-memo hit rate of the latest round).
    Snapshot: ``{"kind": "gauge", "value": v}`` with ``None`` before the
    first ``set``.

``histogram``
    A distribution backed by the store plane's signed-log
    :class:`~repro.scenarios.aggregate.MetricAccumulator` (delivery
    latency, per-point modelled elapsed).  Snapshot: the accumulator's
    ``count``/``mean``/``min``/``max``/``p50``/``p90``/``p99`` dict — and
    therefore exactly the *empty snapshot* contract the store plane pins
    (``count=0``, everything else ``None``) when nothing was observed.

A :class:`MetricsHub` is a named-instrument namespace: ``hub.counter("x")``
creates on first use and returns the same instrument afterwards.  The
snapshot is sorted by name and built from each instrument's ``to_dict``,
so its canonical JSON is byte-identical across reruns and
``PYTHONHASHSEED`` values — the hub is part of the repo's bit-identity
surface, which is why this module lives in the linter's deterministic
``obs`` package (no wall clock, no unordered iteration).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.scenarios.aggregate import MetricAccumulator
from repro.scenarios.spec import SpecError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHub",
    "render_metrics",
]


class Counter:
    """A monotonically increasing integer instrument."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += int(amount)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "counter", "value": int(self.value)}


class Gauge:
    """A last-write-wins value instrument (``None`` until first set)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """A distribution instrument over the signed-log accumulator.

    Observations are buffered and flushed through
    :meth:`MetricAccumulator.update` in batches, so per-event cost is one
    list append; the accumulator's vectorised binning runs only every
    ``BATCH`` observations and at snapshot time.
    """

    kind = "histogram"

    BATCH = 4096

    __slots__ = ("_accumulator", "_pending")

    def __init__(self) -> None:
        self._accumulator = MetricAccumulator()
        self._pending: List[float] = []

    def observe(self, value: float) -> None:
        self._pending.append(float(value))
        if len(self._pending) >= self.BATCH:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._accumulator.update(self._pending)
            self._pending = []

    @property
    def count(self) -> int:
        return self._accumulator.count + len(self._pending)

    def to_dict(self) -> Dict[str, Any]:
        self._flush()
        snapshot = self._accumulator.to_dict()
        snapshot["kind"] = "histogram"
        return snapshot


class MetricsHub:
    """A named-instrument namespace with a deterministic snapshot.

    Instruments are created on first use and cached by name; asking for an
    existing name as a different kind is a
    name-precise :class:`SpecError` (two subsystems silently sharing
    ``"latency"`` as a counter *and* a histogram is a bug, not a merge).
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _instrument(self, name: str, cls: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls()
        elif instrument.kind != cls.kind:
            raise SpecError(
                f"metrics[{name}]",
                f"instrument already exists as a {instrument.kind}, "
                f"requested as a {cls.kind}",
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshot ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The full state, sorted by instrument name (rerun-stable)."""
        return {
            "kind": "metrics-snapshot",
            "version": 1,
            "instruments": {
                name: self._instruments[name].to_dict()
                for name in sorted(self._instruments)
            },
        }

    def snapshot_json(self) -> str:
        """Canonical (sorted, compact) JSON of :meth:`snapshot` — the
        byte-identity surface the determinism suite pins."""
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.snapshot_json().encode("utf-8")).hexdigest()

    def summary_line(self) -> str:
        """One greppable line: ``metrics: C counters, G gauges, H histograms``."""
        kinds = {"counter": 0, "gauge": 0, "histogram": 0}
        for instrument in self._instruments.values():
            kinds[instrument.kind] = kinds.get(instrument.kind, 0) + 1
        return (
            f"metrics: {kinds['counter']} counters, {kinds['gauge']} gauges, "
            f"{kinds['histogram']} histograms"
        )


def render_metrics(snapshot: Dict[str, Any]) -> str:
    """Human-readable rendering of a :meth:`MetricsHub.snapshot` document."""
    instruments = snapshot.get("instruments", {})
    lines = [f"metrics snapshot: {len(instruments)} instruments"]
    if not instruments:
        return lines[0]
    width = max(len(name) for name in instruments)

    def _cell(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    for name in sorted(instruments):
        data = instruments[name]
        kind = data.get("kind", "?")
        if kind == "histogram":
            detail = " ".join(
                f"{field}={_cell(data.get(field))}"
                for field in ("count", "mean", "min", "max", "p50", "p90", "p99")
            )
        else:
            detail = f"value={_cell(data.get('value'))}"
        lines.append(f"{name:<{width}s}  {kind:<9s} {detail}")
    return "\n".join(lines)
