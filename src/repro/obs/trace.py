"""Sim-time span tracing over the results-store plane.

A :class:`Tracer` records :class:`SpanRecord` rows — auction solves, pivot
re-solves, message deliveries, grid-point executions, fault injections —
into the same append-only journal formats as sweep results (jsonl or
columnar, through :class:`~repro.scenarios.store.ResultsStore`), so the
trace artifact inherits the store plane's whole toolbox: sniffed formats,
O(1) appends, torn-tail repair, ``results convert``.

**The sim-time-only rule.**  Every timestamp in a span is *modelled* time:
``SimNetwork``'s virtual clock for network spans, grid/sequence indices
for executor and engine spans.  The wall clock never appears (``obs`` is a
deterministic package, so ``tests/test_determinism_lint.py`` fails on a
``time.perf_counter`` here), which is what makes a trace
byte-identical across reruns, hosts and ``PYTHONHASHSEED`` values — a
trace diff is therefore a *behaviour* diff, never noise.

**Timelines.**  Spans carry a ``track``: a small integer lane that keeps
logically concurrent timelines apart (each scenario round starts its sim
clock at 0, so two rounds' delivery spans would otherwise overlap).
Opening a span with ``new_track=True`` allocates the next lane; child
spans inherit the lane of the innermost open span.  The Chrome-trace
exporter (:mod:`repro.obs.export`) maps tracks to ``pid`` values, so
Perfetto shows one process-row per round.

Parent/child nesting is positional: :meth:`Tracer.open` pushes, and
:meth:`Tracer.close` pops and emits; :meth:`Tracer.emit` records a leaf
span under the innermost open span without touching the stack.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["SpanRecord", "Tracer", "load_trace", "trace_fingerprint"]


@dataclass(frozen=True)
class SpanRecord:
    """One span: a named interval (or instant, ``dur == 0``) in sim time.

    The field types are deliberately column-stable (always the same Python
    type for every row) so the columnar backend can infer a typed schema
    from the first record: ``detail`` is always a dict (possibly empty) and
    lands in a JSON column; ``parent`` is ``-1`` for roots rather than
    ``None`` so the column stays integer.
    """

    span_id: int
    parent: int
    track: int
    name: str
    cat: str
    ts: float
    dur: float
    detail: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": int(self.span_id),
            "parent": int(self.parent),
            "track": int(self.track),
            "name": str(self.name),
            "cat": str(self.cat),
            "ts": float(self.ts),
            "dur": float(self.dur),
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            span_id=int(data["span_id"]),
            parent=int(data["parent"]),
            track=int(data["track"]),
            name=str(data["name"]),
            cat=str(data["cat"]),
            ts=float(data["ts"]),
            dur=float(data["dur"]),
            detail=dict(data.get("detail", {})),
        )


@dataclass(frozen=True)
class _TraceRun:
    """The manifest owner for a trace journal (``begin`` wants a ``.name``)."""

    name: str


def trace_fingerprint(name: str) -> str:
    """The manifest fingerprint of a trace journal named ``name``."""
    payload = json.dumps(
        {"kind": "trace", "version": 1, "name": name},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Tracer:
    """Collects spans in memory and (optionally) journals them as they close.

    A tracer with no journal is still useful — the in-memory ``spans`` list
    feeds the Chrome exporter directly — but the journal is what survives
    the process and what ``repro-auction trace`` reads back.  ``active`` is
    the cheap guard instrumentation sites check before building span
    detail.
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.active = True
        self._journal: Any = None
        self._stack: List[Tuple[int, int, str, str, float]] = []
        self._next_id = 0
        self._next_track = 0
        self._seq = 0

    # -- journal lifecycle -----------------------------------------------------------
    def begin_journal(self, path: str, format: Optional[str] = None, name: str = "trace") -> None:
        """Attach an on-disk journal; every span emitted from now on is appended.

        ``format`` picks the backend for a fresh path; ``None`` infers
        ``columnar`` for ``.rcol`` paths and the jsonl interchange default
        otherwise (existing files are sniffed by the store plane either way).
        """
        # Imported lazily: the store plane (and its numpy surface) must not
        # load just because something imported repro.obs.
        from repro.scenarios.store import ResultsStore

        if format is None and str(path).endswith(".rcol"):
            format = "columnar"
        self._journal = ResultsStore(path, record_type=SpanRecord, format=format)
        self._journal.begin(
            _TraceRun(name), total_rounds=0, fingerprint=trace_fingerprint(name)
        )

    def finish(self) -> None:
        """Close any open spans (zero-length tails) and the journal."""
        while self._stack:
            self.close()
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- span emission ---------------------------------------------------------------
    def seq(self) -> float:
        """The next logical timestamp, for spans with no sim clock (engine work)."""
        value = float(self._seq)
        self._seq += 1
        return value

    @property
    def current_track(self) -> int:
        return self._stack[-1][1] if self._stack else 0

    def open(self, name: str, cat: str, ts: float, *, new_track: bool = False) -> int:
        """Open a nesting span; children emitted before :meth:`close` nest under it."""
        span_id = self._next_id
        self._next_id += 1
        if new_track:
            self._next_track += 1
            track = self._next_track
        else:
            track = self.current_track
        self._stack.append((span_id, track, name, cat, float(ts)))
        return span_id

    def close(
        self,
        end_ts: Optional[float] = None,
        dur: Optional[float] = None,
        **detail: Any,
    ) -> SpanRecord:
        """Close the innermost open span.

        Duration comes from ``dur`` if given, else ``end_ts - open_ts``,
        else 0 (an instant-like span).
        """
        span_id, track, name, cat, ts = self._stack.pop()
        if dur is None:
            dur = (float(end_ts) - ts) if end_ts is not None else 0.0
        parent = self._stack[-1][0] if self._stack else -1
        return self._record(
            SpanRecord(span_id, parent, track, name, cat, ts, float(dur), detail)
        )

    def emit(self, name: str, cat: str, ts: float, dur: float = 0.0, **detail: Any) -> SpanRecord:
        """Record a leaf span under the innermost open span (no stack push)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        return self._record(
            SpanRecord(
                span_id, parent, self.current_track, name, cat, float(ts), float(dur), detail
            )
        )

    def instant(self, name: str, cat: str, ts: float, **detail: Any) -> SpanRecord:
        """Record an instant event (a zero-duration span; exported as ``ph: i``)."""
        return self.emit(name, cat, ts, 0.0, **detail)

    def _record(self, record: SpanRecord) -> SpanRecord:
        self.spans.append(record)
        if self._journal is not None:
            self._journal.append(record.span_id, 0, record)
        return record


def load_trace(path: str) -> Tuple[Dict[str, Any], List[SpanRecord]]:
    """Read a trace journal back: ``(manifest, spans in span-id order)``.

    The format is sniffed by the store plane, so this reads jsonl and
    columnar trace journals alike (and journals converted between them).  A
    manifest whose fingerprint is not its name's :func:`trace_fingerprint`
    (a sweep's or an audit's results) is a :class:`SpecError`.
    """
    from repro.scenarios.spec import SpecError
    from repro.scenarios.store import ResultsStore

    with ResultsStore(path, record_type=SpanRecord) as store:
        manifest, rows = store.backend.read_raw()
        if manifest.get("fingerprint") != trace_fingerprint(manifest.get("sweep")):
            raise SpecError(
                path, "not a trace journal; read results with 'repro-auction results summarize'"
            )
        completed = store.backend._rehydrate(rows)
    spans = [completed[key] for key in sorted(completed)]
    return manifest, spans
