"""Parallel, memoised execution of the Clarke-pivot payment re-solves.

Clarke payments are the "Task 2" of Algorithm 1: one full allocation re-solve per
winner, each on the bid vector with that winner removed.  The re-solves are pure
functions of ``(mechanism parameters, reduced bid vector, pivot seed)``, which
makes them both embarrassingly parallel and highly cacheable:

* inside one distributed simulation every provider of a group recomputes the same
  payment task (that is how the framework tolerates coalitions), so a process-wide
  memo keyed on ``(reduced-bid-vector hash, seed)`` collapses the k+1 replicated
  computations into one;
* across rounds of a batch workload (``Simulation.run_batch``, or a sweep point
  with ``rounds > 1``) repeated instances hit the same cache.

:class:`PivotExecutor` submits the cache misses to a ``concurrent.futures`` pool
("thread" or "process") or runs them inline ("serial").  Results are merged by
user id, so execution order — and therefore parallelism — cannot affect the
outcome; determinism only depends on each re-solve's own seed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Optional, Sequence, Tuple

from repro.auctions.base import Allocation, BidVector
from repro.common import available_cpus, stable_hash
from repro.obs.context import current_observation

__all__ = ["PivotExecutor", "SolveCache", "clear_solve_cache", "shared_solve_cache"]

#: Key of a memoised solve: (mechanism fingerprint, bid-vector hash, seed).
SolveKey = Tuple[Tuple[int, float, int], int, int]


class SolveCache:
    """A small thread-safe LRU for ``solve_allocation`` results.

    Values are ``(Allocation, welfare)`` pairs — immutable and tiny — so a few
    thousand entries cost little memory while absorbing both the per-group
    replication of payment tasks and repeated rounds of batch workloads.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[SolveKey, Tuple[Allocation, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: SolveKey) -> Optional[Tuple[Allocation, float]]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: SolveKey, value: Tuple[Allocation, float]) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide cache shared by every vectorized mechanism instance.
_SHARED_CACHE = SolveCache()


def shared_solve_cache() -> SolveCache:
    """The process-wide solve memo (one per Python process; workers have their own)."""
    return _SHARED_CACHE


def clear_solve_cache() -> None:
    """Drop all memoised solves (tests use this to measure cold-cache behaviour)."""
    _SHARED_CACHE.clear()


def bid_vector_fingerprint(bids: BidVector) -> int:
    """Deterministic hash of a bid vector (exact: built from float ``repr``s)."""
    return stable_hash(
        tuple((u.user_id, u.unit_value, u.demand) for u in bids.users),
        tuple((p.provider_id, p.unit_cost, p.capacity) for p in bids.providers),
    )


def _solve_in_worker(params: Tuple[int, float, int], bids: BidVector, seed: int):
    """Process-pool entry point: rebuild a vectorized mechanism and solve.

    Module-level so it pickles; imports locally to avoid an import cycle with
    :mod:`repro.auctions.engine.vectorized`.
    """
    from repro.auctions.engine.vectorized import VectorizedStandardAuction

    restarts, perturbation, local_search_rounds = params
    mechanism = VectorizedStandardAuction(
        perturbation=perturbation, local_search_rounds=local_search_rounds
    )
    mechanism.restarts = int(restarts)
    return mechanism.solve_allocation(bids, seed)


class PivotExecutor:
    """Runs per-winner pivot re-solves through a pool, with the shared memo in front.

    Args:
        mode: ``"serial"`` (inline), ``"thread"``, ``"process"``, or ``"auto"`` —
            which picks ``"thread"`` on multi-core hosts and ``"serial"`` on
            single-core ones, where a pool only adds scheduling overhead.
            Core counting is affinity-aware
            (:func:`repro.common.available_cpus`): a cpuset-restricted
            container counts the CPUs it may run on, not the machine's.
        max_workers: pool size (default: ``concurrent.futures``' own default).

    The pool is created lazily and reused across calls, so one executor can be
    shared by every provider node of a simulation and by every round of a batch
    run — that sharing is where the amortisation comes from.
    """

    def __init__(self, mode: str = "auto", max_workers: Optional[int] = None) -> None:
        if mode == "auto":
            # Affinity-aware: a container pinned to one core of a many-core
            # host must resolve to "serial", whatever os.cpu_count() says.
            mode = "thread" if available_cpus() > 1 else "serial"
        if mode not in ("serial", "thread", "process"):
            raise ValueError(f"unknown pivot executor mode {mode!r}")
        self.mode = mode
        self.max_workers = max_workers
        self._pool: Optional[Executor] = None
        self._lock = threading.Lock()

    # -- pool lifecycle ---------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        with self._lock:
            if self._pool is None:
                if self.mode == "thread":
                    self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
                else:
                    self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def __enter__(self) -> "PivotExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- the work ---------------------------------------------------------------
    def pivot_welfares(
        self,
        mechanism,
        bids: BidVector,
        user_ids: Sequence[str],
        seed: int,
    ) -> Dict[str, float]:
        """Welfare of the re-solved allocation without each user in ``user_ids``.

        ``mechanism`` must be a vectorized standard auction (it provides the
        parameters, the per-user pivot seed derivation and the memoised solver).
        """
        cache = shared_solve_cache()
        params = mechanism.engine_params()
        # A reduced vector is a pure function of (bids, removed user), so its cache
        # key can be derived from the base fingerprint — hashing the base vector
        # once instead of re-hashing a near-copy per winner, and the (frequent,
        # across provider replicas) cache-hit path never materialises the reduced
        # vector at all.
        base_fingerprint = bid_vector_fingerprint(bids)
        jobs = []  # (user_id, key, pivot seed) for cache misses
        welfares: Dict[str, float] = {}
        for user_id in user_ids:
            pivot_seed = mechanism._pivot_seed(seed, user_id)
            key: SolveKey = (
                params,
                stable_hash(base_fingerprint, "without", user_id),
                pivot_seed,
            )
            hit = cache.get(key)
            if hit is not None:
                welfares[user_id] = hit[1]
            else:
                jobs.append((user_id, key, pivot_seed))

        # Observability hook: one "pivot_resolve" span per batch, emitted on
        # the calling thread before any pool fan-out so the span order is the
        # same under serial, thread and process executors.  Engine work has no
        # sim clock, so the timestamp is the tracer's logical sequence.
        obs = current_observation()
        if obs is not None and obs.tracer is not None and obs.tracer.active:
            obs.tracer.emit(
                "pivot_resolve",
                "engine",
                ts=obs.tracer.seq(),
                dur=float(max(len(jobs), 1)),
                users=len(user_ids),
                resolves=len(jobs),
                memo_hits=len(user_ids) - len(jobs),
            )

        if not jobs:
            return welfares
        if self.mode == "serial":
            for user_id, key, pivot_seed in jobs:
                welfares[user_id] = mechanism._solve_cached(
                    bids.without_user(user_id), pivot_seed, key
                )[1]
            return welfares

        pool = self._ensure_pool()
        if self.mode == "thread":
            futures = [
                pool.submit(
                    mechanism._solve_cached, bids.without_user(user_id), pivot_seed, key
                )
                for user_id, key, pivot_seed in jobs
            ]
            for (user_id, _key, _pivot_seed), future in zip(jobs, futures):
                welfares[user_id] = future.result()[1]
        else:
            futures = [
                pool.submit(_solve_in_worker, params, bids.without_user(user_id), pivot_seed)
                for user_id, key, pivot_seed in jobs
            ]
            for (user_id, key, _pivot_seed), future in zip(jobs, futures):
                allocation, welfare = future.result()
                cache.put(key, (allocation, welfare))
                welfares[user_id] = welfare
        return welfares
