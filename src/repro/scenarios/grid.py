"""The grid engine: one executor under the sweep and both audits.

The paper's evaluation is three grids over one simulator — the Figure 4/5
running-time sweeps, the Definition-2 k-resilience audit and the fault audit.
Each is a set of *cells* ``(point, instance)`` whose records are pure
functions of ``(spec, cell)``; :func:`run_grid` is the only place that turns
such a grid into records (DESIGN.md, "The grid engine", is the long form).

**What a grid kind declares** — one module-level :class:`Grid`: its name
(the ``kind`` of its JSON payload and the prefix of its counters), the unit
its cells are counted in, the per-record verdict, the record type, the spec
class (its file form — :func:`~repro.scenarios.spec.spec_to_dict` — is all
that crosses a process boundary, and its canonical digest is the journal
fingerprint) and a context factory ``context(spec)``.  A context is one
executor's state.  Its constructor runs every check the spec and its cached
mechanism allow — :func:`run_grid` builds it before the journal opens, so a
spec that fails one leaves no journal — and it builds nothing else until a
cell runs:

* ``run_order()`` — every cell of the grid, in the order one executor should
  take them (cells that share setup back to back);
* ``group_key(point, instance)`` — what a worker can amortise across cells;
* ``run_cell(point, instance) -> record``;
* ``close()`` — release what the context holds (idempotent);
* ``observe(walk)`` — the kind's own observability, called once on the
  parent with ``(cell, record, executed now?)`` per record in grid order.

**What the engine guarantees**, for every declaration: records in grid order
(sorted by ``(point, instance)``, never the completion order of a dict);
parallel records bit-identical to serial ones (:func:`run_chunk`); chunks
that follow the group key (:func:`chunk_cells`); journal-per-chunk and
fingerprint-guarded resume (:func:`run_grid`); one :class:`GridResult` and
one counter family for every kind.  The serial path is one in-process
context fed the pending cells in run order: no chunking, no dict round trip,
no work per cell beyond ``run_cell`` and the journal append.
"""

from __future__ import annotations

import functools
import json
import pickle
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.obs.context import current_observation
from repro.scenarios.dispatch import (
    CHUNKS_PER_WORKER,
    ChunkExecutionError,
    WorkerSpec,
    execute_chunks,
    resolve_workers,
    split_chunks,
)
from repro.scenarios.spec import SpecError, spec_fingerprint, spec_from_dict, spec_to_dict
from repro.scenarios.store import ResultsStore

__all__ = [
    "Cell",
    "Grid",
    "GridResult",
    "chunk_cells",
    "run_chunk",
    "run_grid",
]

#: One unit of work and of journaling: (grid point index, instance index).
Cell = Tuple[int, int]


@dataclass(frozen=True)
class Grid:
    """What one grid kind declares (see the module docstring).

    ``kind`` names the payload and the counter family
    (``<kind>.<unit>_executed`` …); ``unit`` is what a cell is called in
    both and on the CLI's store line; ``verdict`` names the record's boolean
    property a clean grid needs on every record (``None``: no per-record
    verdict).  Every field is a string or a module-level callable or class,
    so a declaration pickles by reference into worker processes.
    """

    kind: str
    unit: str
    verdict: Optional[str]
    record_type: type
    spec_type: type
    context: Callable[..., Any]


@dataclass
class GridResult:
    """All records of one grid, in grid order — what every grid kind returns.

    ``executed`` counts the cells this invocation ran, ``resumed`` those a
    results journal held (``resume=True``).
    """

    grid: Grid
    name: str
    base: Dict[str, Any]
    records: List[Any] = field(default_factory=list)
    executed: int = 0
    resumed: int = 0

    @property
    def failing(self) -> List[Any]:
        """The records whose verdict failed (none for a kind without one)."""
        verdict = self.grid.verdict
        if verdict is None:
            return []
        return [record for record in self.records if not getattr(record, verdict)]

    def is_clean(self) -> bool:
        """True when every record passed."""
        return not self.failing

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.grid.kind,
            "name": self.name,
            "base": self.base,
            "clean": self.is_clean(),
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def run_grid(
    grid: Grid,
    spec: Any,
    *,
    workers: WorkerSpec = None,
    store=None,
    store_format: Optional[str] = None,
    resume: bool = False,
) -> GridResult:
    """Run every cell of ``spec``'s grid that ``store`` does not already hold.

    Args:
        grid: the grid kind's declaration.
        spec: the sweep / audit specification (names the journal manifest).
        workers: run cells in a pool of worker processes — a count or
            ``"auto"``, resolved by
            :func:`~repro.scenarios.dispatch.resolve_workers`; ``None``/``1``
            (and any resolution landing on one CPU) is the sequential,
            in-process path.
        store: a results journal — a path (``str``/``PathLike``) or a
            :class:`~repro.scenarios.store.ResultsStore` — appended to as
            cells complete.  The journal doubles as the run's artifact and
            as the checkpoint for ``resume``.
        store_format: which format a fresh journal is written in
            (``"jsonl"``, the default, or ``"columnar"``).  Existing journals
            are sniffed — a format contradicting what is on disk, or what an
            already-open ``ResultsStore`` decided, is a :class:`SpecError`
            naming both formats.
        resume: with ``store``, skip cells the journal already holds (its
            manifest must match this spec) and run only the missing ones.
            Journaled records are returned bit-identically regardless of the
            journal's backend.

    A failing cell fails the run fast — with the worker's typed error, or
    ``BrokenProcessPool`` when a worker process died — after every finished
    cell has been journaled, so a ``resume=True`` re-run executes only the
    cells that are missing.
    """
    plan = resolve_workers(workers)
    context = grid.context(spec)
    journal = _as_store(store, store_format, grid.record_type)
    fresh: Dict[Cell, Any] = {}
    reused: Dict[Cell, Any] = {}
    try:
        order = context.run_order()
        if journal is not None:
            reused = journal.begin(
                spec,
                total_rounds=len(order),
                resume=resume,
                fingerprint=spec_fingerprint(spec),
            )
        pending = [cell for cell in order if cell not in reused]
        stream = _stream(grid, spec, context, pending, plan)
        try:
            for point, instance, record in stream:
                fresh[(point, instance)] = record
                if journal is not None:
                    journal.append(point, instance, record)
        finally:
            stream.close()
    finally:
        context.close()
        if journal is not None:
            journal.close()
    # ``(cell, record, executed now?)`` per cell, in grid order.
    walk = [
        (cell, fresh[cell], True) if cell in fresh else (cell, reused[cell], False)
        for cell in sorted(order)
    ]
    result = GridResult(
        grid,
        name=spec.name,
        base=spec_to_dict(spec.base),
        records=[record for _cell, record, _executed in walk],
        executed=len(fresh),
        resumed=len(reused),
    )
    # Observability hook (see repro.obs), on the parent: emitted from the
    # grid-order walk, so the counters are the same whether the cells ran
    # serially, in a worker pool or came out of a resumed journal.
    context.observe(walk)
    obs = current_observation()
    if obs is not None and obs.metrics is not None:
        prefix = f"{grid.kind}.{grid.unit}_"
        for what, count in (
            ("executed", result.executed),
            ("reused", result.resumed),
            ("failed", len(result.failing)),
        ):
            obs.metrics.counter(prefix + what).inc(count)
    return result


def _as_store(store, store_format, record_type):
    if store is None:
        return None
    if isinstance(store, ResultsStore):
        store.record_type = record_type
        if store_format is not None:
            # ``store.format`` is what the instance was given or has already
            # resolved to; overwriting it would be silently ignored once the
            # backend exists, so a contradiction is the same error as a path's.
            if store.format not in (None, store_format):
                raise SpecError(
                    store.path,
                    f"this journal is already open as {store.format!r} but "
                    f"store_format requested {store_format!r}; drop store_format "
                    f"to use the store as it is",
                )
            store.format = store_format
        return store
    return ResultsStore(store, record_type=record_type, format=store_format)


def _stream(grid, spec, context, pending, plan) -> Iterator[Any]:
    """Yield ``(point, instance, record)`` as cells land."""
    if not (plan.parallel and pending):
        for point, instance in pending:
            yield point, instance, context.run_cell(point, instance)
        return
    chunks = chunk_cells(context, pending, plan.workers)
    worker = functools.partial(run_chunk, grid, spec_to_dict(spec))
    yield from execute_chunks(chunks, worker, plan.workers)


def chunk_cells(context, cells: List[Cell], workers: int) -> List[List[Cell]]:
    """Group pending cells into worker chunks — the one chunker.

    Cells sharing a group key start out in one chunk, then the largest chunks
    are split toward ``workers * CHUNKS_PER_WORKER`` total
    (:func:`~repro.scenarios.dispatch.split_chunks`) — a grid with fewer keys
    than workers (Figure 4: one configuration; an audit with one schedule and
    one seed) would otherwise serialise.  The unit of splitting is *all cells
    of one point under one key*, so every round of a sweep point lands in one
    chunk; within a chunk cells keep their run order.  Splitting only costs
    extra workers a bit-identical rebuild of shared state, never a record.
    """
    groups: Dict[Hashable, Dict[int, List[Cell]]] = {}
    for point, instance in cells:
        key = context.group_key(point, instance)
        groups.setdefault(key, {}).setdefault(point, []).append((point, instance))
    chunks = split_chunks(
        [list(units.values()) for units in groups.values()], workers * CHUNKS_PER_WORKER
    )
    return [[cell for unit in chunk for cell in unit] for chunk in chunks]


def run_chunk(
    grid: Grid, payload: Dict[str, Any], cells: List[Cell]
) -> List[Tuple[int, int, Any]]:
    """Worker body: run one chunk of cells through a fresh context.

    The context is closed in a ``finally`` so what it holds is released even
    when a cell raises mid-chunk.  A failure partway through
    raises :class:`~repro.scenarios.dispatch.ChunkExecutionError` carrying
    the cells completed so far (the parent journals them before re-raising),
    the worker traceback as a string (traceback objects do not pickle) and
    the original exception when it survives pickling, so callers see the
    typed error.
    """
    results: List[Tuple[int, int, Any]] = []
    context = grid.context(spec_from_dict(payload, grid.spec_type))
    try:
        for point, instance in cells:
            try:
                results.append((point, instance, context.run_cell(point, instance)))
            except Exception as exc:
                try:
                    cause = pickle.loads(pickle.dumps(exc))
                except Exception:
                    cause = None
                raise ChunkExecutionError(results, traceback.format_exc(), cause) from None
    finally:
        context.close()
    return results
