"""Executor dispatch: worker resolution policy + the process-pool chunk runner.

The grid engine (:mod:`repro.scenarios.grid`) — the one executor under the
sweep, the resilience audit and the chaos audit — groups work into
amortisation-preserving chunks, runs each chunk through a picklable worker
function, streams results back in completion order, and reassembles
deterministic grid order while journaling per chunk.  This module owns what
sits beneath that loop:

* :func:`resolve_workers` — the worker-count policy.  ``workers="auto"``
  resolves from the CPUs this process may actually use
  (:func:`repro.common.available_cpus`, affinity-aware); an explicit count
  larger than that degrades to the available count with a stderr warning
  instead of oversubscribing; a single available CPU resolves to the
  sequential path, where a pool only adds overhead.
* :func:`execute_chunks` — runs chunks in a local process pool.  The
  sequential path needs no counterpart here: the engine runs it inline.

**The chunk contract** (what the engine and :func:`execute_chunks` rely on):

1. *Chunk determinism* — a chunk is a pure function of its payload: the worker
   rehydrates components from spec dicts and every component is bit-identical
   however often it is rebuilt, so running a chunk anywhere (in-process, a
   local worker) yields identical records.
2. *Journal-per-chunk* — results are yielded chunk by chunk as they complete;
   the caller appends them to the results journal immediately, so a crash
   loses at most the in-flight chunks.
3. *Fingerprint-guarded resume* — the executor only ever receives the
   *pending* work items; the caller computed those against a journal whose
   manifest fingerprint matched the spec.  It neither reorders fields nor
   rewrites records, or resumed runs would stop being bit-identical.
"""

from __future__ import annotations

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Union

from repro.common import available_cpus
from repro.scenarios.spec import SpecError

__all__ = [
    "CHUNKS_PER_WORKER",
    "ChunkExecutionError",
    "WorkerPlan",
    "execute_chunks",
    "reset_oversubscription_warnings",
    "resolve_workers",
    "split_chunks",
]

#: What callers may pass as ``workers``: nothing (sequential), an explicit
#: positive count, or ``"auto"`` (size from the CPUs actually available).
WorkerSpec = Union[None, int, str]

#: Target chunk count per worker.  >1 for two reasons: load balancing (work
#: items vary widely in cost across a grid) and checkpoint granularity — a
#: chunk is the unit of result return, so it bounds how much work a crash can
#: lose between journal appends under parallel execution.
CHUNKS_PER_WORKER = 4


# ------------------------------------------------------------- failure model --
class ChunkExecutionError(Exception):
    """A worker chunk failed partway through; carries what survives the crash.

    Raised *inside* a worker (see
    :func:`repro.scenarios.grid.run_chunk`) so the parent loses
    neither the cells the chunk completed before the failure
    (``partial_results``, yielded — and therefore journaled — before the
    re-raise) nor the original traceback (``traceback``, a string,
    because traceback objects do not cross process boundaries).
    ``cause`` is the original exception object when it pickles losslessly
    (``SpecError`` does), so the parent re-raises the path-precise
    typed error instead of a stringly wrapper; ``None`` otherwise.
    """

    def __init__(
        self,
        partial_results: List[Any],
        traceback_str: str,
        cause: Optional[BaseException] = None,
    ) -> None:
        self.partial_results = list(partial_results)
        self.traceback = str(traceback_str)
        self.cause = cause
        super().__init__(self.error)

    @property
    def error(self) -> str:
        """The final line of the worker traceback — the exception itself."""
        lines = [line for line in self.traceback.strip().splitlines() if line.strip()]
        return lines[-1].strip() if lines else "worker chunk failed"

    def __reduce__(self):
        # Exceptions with a multi-argument __init__ do not survive pickling by
        # default (unpickling re-invokes the class with ``self.args``); being
        # shipped across the process boundary is this class's whole purpose.
        return (ChunkExecutionError, (self.partial_results, self.traceback, self.cause))


# ------------------------------------------------------------- worker policy --
#: Oversubscription warnings already printed this process, keyed by
#: ``(requested, cpus)``.  One CLI invocation resolves the same request more
#: than once (the audit harnesses plan up front, then the executor they call
#: re-resolves), and re-printing an identical warning per resolution reads as
#: N distinct problems.  Warn once per distinct resolution instead; tests
#: reset via :func:`reset_oversubscription_warnings`.
_WARNED_OVERSUBSCRIPTIONS: set = set()


def reset_oversubscription_warnings() -> None:
    """Forget which oversubscription warnings were printed (test isolation)."""
    _WARNED_OVERSUBSCRIPTIONS.clear()


@dataclass(frozen=True)
class WorkerPlan:
    """The resolved execution plan for one sweep/audit invocation.

    ``workers`` is the resolved process count (1 for the sequential path);
    ``requested`` preserves what the caller asked for (``None``, an int, or
    ``"auto"``) so artifacts can record both sides of the resolution.
    """

    requested: WorkerSpec
    workers: int
    capped: bool = False

    @property
    def parallel(self) -> bool:
        return self.workers > 1


def resolve_workers(workers: WorkerSpec, *, path: str = "workers") -> WorkerPlan:
    """Resolve a requested worker count into a :class:`WorkerPlan`.

    Policy:

    * ``None`` or ``1`` — the sequential in-process path.
    * ``"auto"`` — as many workers as CPUs this process may run on
      (:func:`repro.common.available_cpus`); on a single available CPU this
      *is* the sequential path, so pool overhead can never be the default.
    * an explicit ``N > available CPUs`` — degrades to the available count
      with a stderr warning instead of oversubscribing (``capped=True``).
      The warning prints once per distinct ``(requested, cpus)`` resolution
      per process, not once per call — one invocation resolves the same
      request repeatedly (harness plan + executor re-resolution).
    * anything else (0, negatives, other strings) — :class:`SpecError`.
    """
    cpus = available_cpus()
    capped = False
    if workers is None:
        count = 1
    elif isinstance(workers, str):
        if workers != "auto":
            raise SpecError(
                path, f"workers must be a positive integer or 'auto', got {workers!r}"
            )
        count = cpus
    elif isinstance(workers, bool) or not isinstance(workers, int):
        raise SpecError(
            path, f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    elif workers < 1:
        raise SpecError(path, f"workers must be a positive integer, got {workers}")
    else:
        count = workers
        if count > cpus:
            capped = True
            count = cpus
            if (workers, cpus) not in _WARNED_OVERSUBSCRIPTIONS:
                _WARNED_OVERSUBSCRIPTIONS.add((workers, cpus))
                print(
                    f"workers: requested {workers} workers but only {cpus} "
                    f"CPU{'s are' if cpus != 1 else ' is'} available; running "
                    f"{count} to avoid oversubscription",
                    file=sys.stderr,
                )
    return WorkerPlan(requested=workers, workers=max(count, 1), capped=capped)


# ----------------------------------------------------------------- chunking --
def split_chunks(chunks: List[List[Any]], target: int) -> List[List[Any]]:
    """Split the largest chunks until there are ``target`` of them (or none splits).

    Used by the grid engine's chunker: work items sharing an amortisation key
    start out in one chunk, then the largest chunks are split toward
    ``workers * CHUNKS_PER_WORKER`` total — a grid with fewer distinct keys
    than workers would otherwise serialise.  Splitting is free in correctness
    terms (chunk determinism, point 1 of the chunk contract) and only trades
    some cache sharing for parallelism, load balance and journal-checkpoint
    granularity.  Indivisible chunks (single items) are never split, so an
    item the chunker must keep whole — all rounds of one sweep point —
    survives.
    """
    chunks = list(chunks)
    while len(chunks) < target:
        largest = max(chunks, key=len, default=None)
        if largest is None or len(largest) < 2:
            break
        chunks.remove(largest)
        middle = (len(largest) + 1) // 2
        chunks.append(largest[:middle])
        chunks.append(largest[middle:])
    return chunks


# ----------------------------------------------------------------- executor --
def execute_chunks(
    chunks: List[List[Any]],
    worker: Callable[[List[Any]], List[Any]],
    workers: int,
) -> Iterator[Any]:
    """Run chunks in a local ``ProcessPoolExecutor``, streaming completion order.

    ``worker`` is a picklable callable (``worker(chunk) -> list of results``);
    individual results are yielded in whatever order chunks complete, and the
    caller owns order reassembly and journaling.

    The pool prefers the ``fork`` start method where available, so workers
    inherit runtime registrations (mechanism/workload kinds a calling program
    registered after import).  On spawn-only platforms, custom kinds must be
    registered at import time of a module the workers also import.

    Failures are fail-fast.  A worker exception yields the failing chunk's
    partial results, then re-raises the typed ``cause`` — or, when it did not
    pickle, a ``RuntimeError`` carrying the worker traceback.  A dead worker
    process propagates as ``BrokenProcessPool``.  Either way the chunks that
    have not started are cancelled, and everything yielded before the raise
    has been journaled by the caller, so ``--resume`` repeats only the cells
    that never finished.
    """
    pool = ProcessPoolExecutor(
        max_workers=max(1, min(workers, len(chunks))), mp_context=_pool_context()
    )
    try:
        for future in as_completed([pool.submit(worker, chunk) for chunk in chunks]):
            try:
                yield from future.result()
            except ChunkExecutionError as exc:
                yield from exc.partial_results
                if exc.cause is not None:
                    # Re-raise the original, typed error; the chunk context
                    # (partials journaled, worker traceback) rides along as
                    # __cause__.
                    raise exc.cause from exc
                raise RuntimeError(
                    "a worker raised while executing a chunk (cells completed "
                    "before the failure were journaled); worker traceback:\n"
                    f"{exc.traceback}"
                ) from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork (Windows, some macOS configs)
        return None
