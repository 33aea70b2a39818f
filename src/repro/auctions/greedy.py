"""Greedy first-fit baseline for the standard auction.

A fast, deterministic, *non-truthful* baseline: users are considered in decreasing
unit-value order and placed first-fit into providers; winners pay their own bid.  It
exists to (a) give the tests a cheap comparator for allocation quality, and
(b) give the game-theory test-suite a mechanism that is *expected to fail* the
truthfulness checks, demonstrating that those checks have teeth.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.auctions.base import (
    Allocation,
    AllocationAlgorithm,
    AuctionResult,
    BidVector,
    Payments,
)
from repro.auctions.validation import eligible_provider_asks, eligible_user_bids

__all__ = ["GreedyStandardAuction"]

_EPS = 1e-12


class GreedyStandardAuction(AllocationAlgorithm):
    """First-fit decreasing allocation with pay-your-bid payments (not truthful)."""

    name = "greedy-pay-your-bid"
    requires_provider_bids = False
    randomized = False
    single_provider_allocation = True

    def run(self, bids: BidVector, rng: Optional[random.Random] = None) -> AuctionResult:
        users = sorted(eligible_user_bids(bids), key=lambda u: (-u.unit_value, u.user_id))
        remaining = {p.provider_id: p.capacity for p in eligible_provider_asks(bids)}
        order = sorted(remaining)
        amounts: Dict[tuple, float] = {}
        payments: Dict[str, float] = {}
        for user in users:
            for provider_id in order:
                if remaining[provider_id] + _EPS >= user.demand:
                    amounts[(user.user_id, provider_id)] = user.demand
                    remaining[provider_id] -= user.demand
                    payments[user.user_id] = user.total_value
                    break
        allocation = Allocation.from_dict(amounts)
        provider_revenues: Dict[str, float] = {}
        for (user_id, provider_id), _amount in amounts.items():
            provider_revenues[provider_id] = (
                provider_revenues.get(provider_id, 0.0) + payments.get(user_id, 0.0)
            )
        return AuctionResult(allocation, Payments.from_dicts(payments, provider_revenues))
