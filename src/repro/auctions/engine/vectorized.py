"""The vectorized standard auction: one batch kernel call per task, memoised.

:class:`VectorizedStandardAuction` is a :class:`~repro.auctions.standard_auction.
StandardAuction` whose two expensive pieces are swapped out:

* ``solve_allocation`` evaluates all restarts — greedy placement, local search and
  restart selection — as one :func:`repro.auctions.engine.kernel.solve_batch`
  call and memoises the result in the process-wide solve cache: inside a
  distributed simulation every provider computes the allocation task on identical
  inputs, so all but the first computation become cache hits;
* the per-winner Clarke-pivot re-solves of a payment task go through the same
  memo, and its misses are one batch of the same kernel — every (winner, restart)
  pair a row — instead of one solve per winner.

Results are bit-identical to the reference (the contract of DESIGN.md, enforced by
``tests/auctions/test_engine_equivalence.py``); the kernel's docstring lists what
pins them.

The kernel (and NumPy) is imported at the first kernel call, not with this module,
so a double-auction process never loads it (``tests/test_import_footprint.py``);
a test may still patch the kernel's attributes, which are looked up per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.auctions.base import Allocation, BidVector, UserBid
from repro.auctions.engine.pivot import bid_vector_fingerprint, shared_solve_cache
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.validation import eligible_user_bids
from repro.common import stable_hash
from repro.obs.context import current_observation

__all__ = ["VectorizedStandardAuction"]


class VectorizedStandardAuction(StandardAuction):
    """Vectorized engine behind the same mechanism interface and semantics."""

    name = "standard-auction-smoothed-vcg-vectorized"
    engine = "vectorized"

    def engine_params(self) -> Tuple[int, float, int]:
        """The parameters that determine a solve, used in cache keys."""
        return (self.restarts, self.perturbation, self.local_search_rounds)

    # ------------------------------------------- DecomposableMechanism API --
    def solve_allocation(self, bids: BidVector, seed: int) -> Tuple[Allocation, float]:
        """Batch-kernel version of the reference Step 1, memoised process-wide."""
        key = (self.engine_params(), bid_vector_fingerprint(bids), seed)
        cache = shared_solve_cache()
        result = cache.get(key)
        memo_hit = result is not None
        if result is None:
            result = self._solve_uncached(bids, seed)
            cache.put(key, result)
        # Observability hook: one "solve" span per top-level allocation solve.
        # The timestamp is the tracer's logical sequence — engine work has no
        # sim clock (see repro.obs).
        obs = current_observation()
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("engine.solves").inc()  # logical: before the memo
        if obs is not None and obs.tracer is not None and obs.tracer.active:
            obs.tracer.emit(
                "solve",
                "engine",
                ts=obs.tracer.seq(),
                dur=1.0,
                users=len(bids.users),
                memo_hit=memo_hit,
            )
        return result

    def _solve_uncached(self, bids: BidVector, seed: int) -> Tuple[Allocation, float]:
        # Filtering is the one ``eligible_user_bids`` and allocation construction
        # the reference's own helper, so the two engines cannot drift apart.
        users = eligible_user_bids(bids)
        ((assignment, welfare),) = self._kernel(
            users, self.eligible_capacities(bids), [(seed, None)]
        )
        return self.allocation_from_assignment(users, assignment), max(welfare, 0.0)

    def _kernel(
        self,
        users: List[UserBid],
        capacities: Dict[str, float],
        problems: List[Tuple[int, Optional[int]]],
    ) -> List[Tuple[Dict[str, str], float]]:
        """One ``solve_batch`` call, its size counted on the observed path.

        Rows and cells (rows x eligible users) are functions of the arguments
        alone, counted here so that nothing inside the kernel can move them.
        """
        obs = current_observation()
        if obs is not None and obs.metrics is not None:
            rows = len(problems) * self.restarts
            obs.metrics.counter("engine.kernel_calls").inc()
            obs.metrics.counter("engine.kernel_rows").inc(rows)
            obs.metrics.counter("engine.kernel_cells").inc(rows * len(users))
        from repro.auctions.engine import kernel

        return kernel.solve_batch(users, capacities, problems, *self.engine_params())

    def _pivot_welfares(
        self, bids: BidVector, user_ids: Sequence[str], seed: int
    ) -> Dict[str, float]:
        """Step 2's re-solves: the memo in front, its misses as one kernel batch."""
        cache = shared_solve_cache()
        params = self.engine_params()
        # A reduced vector is a pure function of (bids, removed user), so its cache
        # key is derived from the base fingerprint — the base vector is hashed once
        # and no reduced vector is ever materialised.  Pivot keys hold the welfare
        # alone: ``solve_allocation`` cannot produce them, so nothing else is read.
        base_fingerprint = bid_vector_fingerprint(bids)
        welfares: Dict[str, float] = {}
        misses = []  # (user id, key, pivot seed)
        for user_id in user_ids:
            pivot_seed = self._pivot_seed(seed, user_id)
            key = (params, stable_hash(base_fingerprint, "without", user_id), pivot_seed)
            hit = cache.get(key)
            if hit is not None:
                welfares[user_id] = hit
            else:
                misses.append((user_id, key, pivot_seed))

        # Observability hook: one "pivot_resolve" span per payment task.  Engine
        # work has no sim clock, so the timestamp is the tracer's logical sequence.
        obs = current_observation()
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("engine.resolves").inc(len(user_ids))  # before the memo
        if obs is not None and obs.tracer is not None and obs.tracer.active:
            obs.tracer.emit(
                "pivot_resolve",
                "engine",
                ts=obs.tracer.seq(),
                dur=float(max(len(misses), 1)),
                users=len(user_ids),
                resolves=len(misses),
                memo_hits=len(user_ids) - len(misses),
            )
        if not misses:
            return welfares

        from repro.auctions.engine import kernel

        users = eligible_user_bids(bids)
        capacities = self.eligible_capacities(bids)
        index = {user.user_id: i for i, user in enumerate(users)}
        # Chunk the problems so rows × users per kernel call stays bounded.
        step = max(1, kernel.MAX_CELLS // max(1, self.restarts * len(users)))
        for start in range(0, len(misses), step):
            chunk = misses[start : start + step]
            problems = [(pivot_seed, index.get(user_id)) for user_id, _key, pivot_seed in chunk]
            batch = self._kernel(users, capacities, problems)
            for (user_id, key, _seed), (_assignment, welfare) in zip(chunk, batch):
                welfares[user_id] = max(welfare, 0.0)
                cache.put(key, welfares[user_id])
        return welfares
