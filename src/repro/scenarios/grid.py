"""The grid engine: one executor under the sweep and both audits.

The paper's evaluation is three grids over one simulator — the Figure 4/5
running-time sweeps, the Definition-2 k-resilience audit and the fault audit.
Each is a set of *cells* ``(point, instance)`` whose records are pure
functions of ``(spec, cell)``; :func:`run_grid` is the only place that turns
such a grid into records (DESIGN.md, "The grid engine", is the long form).

**What an audit kind declares** — one module-level :class:`Grid`: the record
type, the spec class (its file form — :func:`~repro.scenarios.spec.spec_to_dict`
— is all that crosses a process boundary, besides picklable ``extra``
arguments, and its canonical digest is the journal fingerprint) and a context
factory ``context(spec, *extra)``.  A context is one executor's state; it
builds nothing until a cell runs:

* ``run_order()`` — every cell of the grid, in the order one executor should
  take them (cells that share setup back to back);
* ``group_key(point, instance)`` — what a worker can amortise across cells;
* ``run_cell(point, instance) -> record``;
* ``close()`` — release engine resources (idempotent).

**What the engine guarantees**, for every declaration: records in grid order
(sorted by ``(point, instance)``, never the completion order of a dict);
parallel records bit-identical to serial ones (:func:`run_chunk`); chunks
that follow the group key (:func:`chunk_cells`); journal-per-chunk,
fingerprint-guarded resume and cell-granular quarantine (:func:`run_grid`).
The serial path is one in-process context fed the pending cells in run
order: no chunking, no dict round trip, no work per cell beyond ``run_cell``
and the journal append.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.scenarios.dispatch import (
    CHUNKS_PER_WORKER,
    ChunkExecutionError,
    ChunkQuarantine,
    WorkerSpec,
    execute_chunks,
    resolve_workers,
    split_chunks,
)
from repro.scenarios.spec import SpecError, spec_fingerprint, spec_from_dict, spec_to_dict
from repro.scenarios.store import ResultsStore

__all__ = ["Cell", "ENGINE_KEYWORDS", "Grid", "GridRun", "chunk_cells", "run_chunk", "run_grid"]

#: One unit of work and of journaling: (grid point index, instance index).
Cell = Tuple[int, int]


@dataclass(frozen=True)
class Grid:
    """What one audit kind declares (see the module docstring).

    Every field is a module-level callable or class, so a declaration pickles
    by reference into worker processes.
    """

    record_type: type
    spec_type: type
    context: Callable[..., Any]


@dataclass
class GridRun:
    """What :func:`run_grid` hands back to the public entry point wrapping it.

    ``context`` is the parent-side context (closed); ``cells`` the whole grid
    in grid order; ``fresh`` the cells this invocation executed, ``reused``
    those the journal held; ``quarantined`` one ``{"point", "instance",
    "error"}`` dict per cell the executor gave up on, in completion order.
    """

    context: Any
    cells: List[Cell] = field(default_factory=list)
    fresh: Dict[Cell, Any] = field(default_factory=dict)
    reused: Dict[Cell, Any] = field(default_factory=dict)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    def in_grid_order(self) -> Iterator[Tuple[int, int, Any, bool]]:
        """``(point, instance, record, executed now?)`` per cell that has a record."""
        given_up = {(entry["point"], entry["instance"]) for entry in self.quarantined}
        for cell in self.cells:
            record = self.fresh.get(cell)
            if record is not None:
                yield cell[0], cell[1], record, True
            elif cell not in given_up:
                yield cell[0], cell[1], self.reused[cell], False

    @property
    def records(self) -> List[Any]:
        return [record for _point, _instance, record, _fresh in self.in_grid_order()]


def run_grid(
    grid: Grid,
    spec: Any,
    extra: Tuple[Any, ...] = (),
    *,
    workers: WorkerSpec = None,
    store=None,
    store_format: Optional[str] = None,
    resume: bool = False,
    failure_mode: str = "raise",
) -> GridRun:
    """Run every cell of ``spec``'s grid that ``store`` does not already hold.

    Args:
        grid: the audit kind's declaration.
        spec: the sweep / audit specification (names the journal manifest).
        extra: further positional arguments of ``grid.context``; they ride to
            the workers, so a parallel run requires them to pickle (the
            sweep's latency-model override is the one user).
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
        failure_mode: what a parallel run does when a worker fails.
            ``"raise"`` (default) fails fast with the worker's typed error
            after journaling every completed cell; ``"quarantine"`` opts
            into the crash-tolerant executor — bounded chunk retries, worker
            death survived in a fresh pool, and cells that keep failing
            recorded in :attr:`GridRun.quarantined` (and journaled) while
            the rest of the grid completes.  The sequential path always
            fails fast: there is no worker boundary to contain the failure.
    """
    if failure_mode not in ("raise", "quarantine"):
        raise SpecError(
            "failure_mode",
            f"failure_mode must be 'raise' or 'quarantine', got {failure_mode!r}",
        )
    plan = resolve_workers(workers)
    context = grid.context(spec, *extra)
    run = GridRun(context)
    journal = _as_store(store, store_format, grid.record_type)
    try:
        order = context.run_order()
        run.cells = sorted(order)
        if journal is not None:
            run.reused = journal.begin(
                spec,
                total_rounds=len(order),
                resume=resume,
                fingerprint=spec_fingerprint(spec),
            )
        pending = [cell for cell in order if cell not in run.reused]
        stream = _stream(grid, spec, extra, context, pending, plan, failure_mode)
        try:
            for item in stream:
                if isinstance(item, ChunkQuarantine):
                    for point, instance in item.items:
                        run.quarantined.append(
                            {"point": point, "instance": instance, "error": item.error}
                        )
                        if journal is not None:
                            journal.append_quarantine(
                                point, instance, item.error, item.traceback
                            )
                    continue
                point, instance, record = item
                run.fresh[(point, instance)] = record
                if journal is not None:
                    journal.append(point, instance, record)
        finally:
            stream.close()
    finally:
        context.close()
        if journal is not None:
            journal.close()
    return run


#: The engine's options — :func:`run_grid`'s keyword-only parameters, read off
#: its signature so the list exists once.  ``run_sweep`` / ``run_resilience`` /
#: ``run_chaos`` forward ``**engine`` to :func:`run_grid` untouched (a keyword
#: it does not declare is its ``TypeError``), and the ``Simulation`` facade
#: splits these names from a spec's fields.
ENGINE_KEYWORDS: Tuple[str, ...] = tuple(inspect.getfullargspec(run_grid).kwonlyargs)


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


def _stream(grid, spec, extra, context, pending, plan, failure_mode) -> Iterator[Any]:
    """Yield ``(point, instance, record)`` — or quarantine sentinels — as cells land."""
    if not (plan.parallel and pending):
        for point, instance in pending:
            yield point, instance, context.run_cell(point, instance)
        return
    try:
        pickle.dumps(extra)
    except Exception as exc:
        raise SpecError(
            "workers",
            f"{extra!r} cannot be shipped to worker processes (not picklable): "
            f"{exc}; run with workers=1 or express it in the spec",
        ) from exc
    chunks = chunk_cells(context, pending, plan.workers)
    worker = functools.partial(run_chunk, grid, spec_to_dict(spec), tuple(extra))
    yield from execute_chunks(chunks, worker, plan.workers, failure_mode)


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
    grid: Grid, payload: Dict[str, Any], extra: Tuple[Any, ...], cells: List[Cell]
) -> List[Tuple[int, int, Any]]:
    """Worker body: run one chunk of cells through a fresh context.

    The context is closed in a ``finally`` so worker-side mechanism resources
    are released even when a cell raises mid-chunk.  A failure partway through
    raises :class:`~repro.scenarios.dispatch.ChunkExecutionError` carrying
    the cells completed so far (the parent journals them before retrying or
    re-raising), the worker traceback as a string (traceback objects do not
    pickle), the cells still pending — the one that raised first, then
    everything the chunk never reached — and the original exception when it
    survives pickling, so fail-fast callers see the typed error.
    """
    results: List[Tuple[int, int, Any]] = []
    context = grid.context(spec_from_dict(payload, grid.spec_type), *extra)
    try:
        for position, (point, instance) in enumerate(cells):
            try:
                results.append((point, instance, context.run_cell(point, instance)))
            except Exception as exc:
                try:
                    cause = pickle.loads(pickle.dumps(exc))
                except Exception:
                    cause = None
                raise ChunkExecutionError(
                    results, traceback.format_exc(), list(cells[position:]), cause
                ) from None
    finally:
        context.close()
    return results
