"""Interface for mechanisms whose execution can be decomposed into parallel tasks.

Algorithm 1 of the paper splits the standard auction into three steps: (1) compute
the allocation, (2) compute the payment of every winner — one Clarke-pivot re-solve
each, independent per winner and therefore parallelisable across groups of
providers — and (3) gather the results.  A loser pays nothing, which every provider
reads off the allocation it holds: :meth:`DecomposableMechanism.assemble` fills in
its 0.0.  The parallel allocator (:mod:`repro.core.allocator`) can run *any*
mechanism that exposes this structure; the interface below is what it needs, and
:meth:`DecomposableMechanism.run` is the same three steps on one node.

All methods must be deterministic functions of their arguments (including the seed),
because different provider groups independently recompute pieces of the result and the
data-transfer block aborts if they disagree.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.auctions.base import (
    Allocation,
    AllocationAlgorithm,
    AuctionResult,
    BidVector,
    Payments,
)

__all__ = ["DecomposableMechanism"]


class DecomposableMechanism(AllocationAlgorithm):
    """An allocation algorithm split into allocation, winners' payments and assembly."""

    def run(self, bids: BidVector, rng: Optional[random.Random] = None) -> AuctionResult:
        """Solve, pay the winners, assemble.

        A randomized mechanism runs on ``rng.getrandbits(63)`` (``rng`` defaults
        to ``Random(0)``), the task seed the parallel allocator derives from
        the coin; one that reads no seed runs on 0 and leaves ``rng`` alone.
        """
        if self.randomized:
            seed = (rng if rng is not None else random.Random(0)).getrandbits(63)
        else:
            seed = 0
        allocation, welfare = self.solve_allocation(bids, seed)
        payments = self.payments_for_users(
            bids, allocation.winners(), allocation, welfare, seed
        )
        return self.assemble(bids, allocation, payments)

    @abc.abstractmethod
    def solve_allocation(self, bids: BidVector, seed: int) -> Tuple[Allocation, float]:
        """Step 1: compute the allocation (and its declared social welfare)."""

    @abc.abstractmethod
    def payments_for_users(
        self,
        bids: BidVector,
        user_ids: Sequence[str],
        allocation: Allocation,
        welfare: float,
        seed: int,
    ) -> Dict[str, float]:
        """Step 2: compute the payments of a subset of users, given the allocation."""

    def assemble(
        self,
        bids: BidVector,
        allocation: Allocation,
        user_payments: Dict[str, float],
    ) -> AuctionResult:
        """Step 3: the pair (x, p) from the allocation and the winners' payments.

        Every bidder missing from ``user_payments`` pays 0.0, and a provider
        receives the payments of the users it serves.
        """
        payments = dict.fromkeys(bids.user_ids, 0.0)
        payments.update(user_payments)
        provider_revenues: Dict[str, float] = {}
        for user_id, provider_id, _amount in allocation.entries:
            payment = payments.get(user_id, 0.0)
            provider_revenues[provider_id] = provider_revenues.get(provider_id, 0.0) + payment
        return AuctionResult(allocation, Payments.from_dicts(payments, provider_revenues))
