"""The process-wide memo in front of allocation solves and Clarke-pivot re-solves.

Clarke payments are the "Task 2" of Algorithm 1: one full allocation re-solve per
winner, each on the bid vector with that winner removed.  Solves and re-solves are
pure functions of ``(mechanism parameters, bid vector, seed)``, which makes them
highly cacheable:

* inside one distributed simulation every provider of a group recomputes the same
  payment task (that is how the framework tolerates coalitions), so a process-wide
  memo keyed on ``(bid-vector hash, seed)`` collapses the k+1 replicated
  computations into one;
* across rounds of a batch workload (``Simulation.run_batch``, or a sweep point
  with ``rounds > 1``) repeated instances hit the same cache.

The key is by content, so that equal vectors of different rounds meet (the p=2 and
p=4 series of one Figure-5 point); the hash behind it is taken once per vector
*object* (:func:`bid_vector_fingerprint`), and the honest providers of a round hold
one agreed vector object (:meth:`BidAgreementBlock._assemble
<repro.core.bid_agreement.BidAgreementBlock._assemble>`).

The misses of one payment task are computed together, as one batch of
:func:`repro.auctions.engine.kernel.solve_batch`
(:meth:`VectorizedStandardAuction._pivot_welfares`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple, Union

from repro.auctions.base import Allocation, BidVector
from repro.common import memoise, stable_hash

__all__ = ["SolveCache", "bid_vector_fingerprint", "clear_solve_cache", "shared_solve_cache"]

#: Key of a memoised solve: (mechanism fingerprint, bid-vector hash, seed).
SolveKey = Tuple[Tuple[int, float, int], int, int]
#: What a key maps to: the solve's result, or the welfare alone under a pivot key.
SolveValue = Union[Tuple[Allocation, float], float]


class SolveCache:
    """A small thread-safe LRU for ``solve_allocation`` results.

    Values are ``(Allocation, welfare)`` pairs under a solve key and the welfare
    alone under a pivot key (no ``solve_allocation`` call can produce a pivot
    key, so an allocation stored there would never be read) — immutable and
    tiny, so a few thousand entries cost little memory while absorbing both the
    per-group replication of payment tasks and repeated rounds of batch workloads.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[SolveKey, SolveValue]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: SolveKey) -> Optional[SolveValue]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: SolveKey, value: SolveValue) -> None:
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


#: Where a bid vector remembers its :func:`bid_vector_fingerprint`.
_FINGERPRINT_ATTR = "_repro_fingerprint"

#: Process-wide cache shared by every vectorized mechanism instance.
_SHARED_CACHE = SolveCache()


def shared_solve_cache() -> SolveCache:
    """The process-wide solve memo (one per Python process; workers have their own)."""
    return _SHARED_CACHE


def clear_solve_cache() -> None:
    """Drop all memoised solves (tests use this to measure cold-cache behaviour)."""
    _SHARED_CACHE.clear()


def bid_vector_fingerprint(bids: BidVector) -> int:
    """Deterministic hash of a bid vector (exact: built from float ``repr``s).

    Hashed once per vector object and remembered on it; the value depends on
    the contents alone, so equal vectors of different rounds still meet in the
    cache.
    """
    fingerprint = getattr(bids, _FINGERPRINT_ATTR, None)
    if fingerprint is None:
        fingerprint = memoise(
            bids,
            _FINGERPRINT_ATTR,
            stable_hash(
                tuple((u.user_id, u.unit_value, u.demand) for u in bids.users),
                tuple((p.provider_id, p.unit_cost, p.capacity) for p in bids.providers),
            ),
        )
    return fingerprint
