"""Exact VCG standard auction (ground-truth baseline).

Solves the welfare-maximisation problem of the standard auction *exactly* by branch
and bound over single-provider assignments and charges exact Clarke-pivot payments.
With an exact welfare-maximising allocation rule, VCG is dominant-strategy truthful —
the property-based tests use this mechanism as the reference against which the
approximate :class:`~repro.auctions.standard_auction.StandardAuction` is compared.

Complexity is exponential in the number of users (each user can go to any provider or
nowhere), so keep instances small (n ≲ 12).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.auctions.base import (
    Allocation,
    AllocationAlgorithm,
    AuctionResult,
    BidVector,
    Payments,
    UserBid,
)
from repro.auctions.decomposable import DecomposableMechanism
from repro.auctions.payments import clarke_pivot_payments
from repro.auctions.validation import eligible_provider_asks, eligible_user_bids

__all__ = ["ExactVCGAuction"]

_EPS = 1e-12


class ExactVCGAuction(AllocationAlgorithm, DecomposableMechanism):
    """Exact multiple-knapsack welfare maximisation with Clarke-pivot payments."""

    name = "exact-vcg"
    requires_provider_bids = False
    single_provider_allocation = True

    def __init__(self, max_users: int = 16) -> None:
        self.max_users = max_users

    # ------------------------------------------------------------------ run --
    def run(self, bids: BidVector, rng: Optional[random.Random] = None) -> AuctionResult:
        seed = 0
        allocation, welfare = self.solve_allocation(bids, seed)
        payments = self.payments_for_users(bids, bids.user_ids, allocation, welfare, seed)
        return self.assemble(bids, allocation, payments)

    # ------------------------------------------- DecomposableMechanism API --
    def solve_allocation(self, bids: BidVector, seed: int) -> Tuple[Allocation, float]:
        users = eligible_user_bids(bids)
        if len(users) > self.max_users:
            raise ValueError(
                f"ExactVCGAuction is exponential; refusing {len(users)} users "
                f"(max_users={self.max_users})"
            )
        providers = eligible_provider_asks(bids)
        if not users or not providers:
            return Allocation.empty(), 0.0
        # Sort by decreasing total value so good solutions are found early and the
        # upper bound prunes aggressively.
        users = sorted(users, key=lambda u: (-u.total_value, u.user_id))
        provider_ids = [p.provider_id for p in providers]
        capacities = [p.capacity for p in providers]
        suffix_value = [0.0] * (len(users) + 1)
        for index in range(len(users) - 1, -1, -1):
            suffix_value[index] = suffix_value[index + 1] + users[index].total_value

        best: Dict[str, str] = {}
        best_welfare = 0.0
        assignment: Dict[str, str] = {}

        def search(index: int, current: float, remaining: List[float]) -> None:
            nonlocal best, best_welfare
            if current > best_welfare + _EPS:
                best_welfare = current
                best = dict(assignment)
            if index >= len(users):
                return
            if current + suffix_value[index] <= best_welfare + _EPS:
                return  # even taking every remaining user cannot improve
            user = users[index]
            # Branch: assign to each provider with room (deduplicating equal residuals).
            seen_residuals = set()
            for position, capacity in enumerate(remaining):
                if capacity + _EPS < user.demand:
                    continue
                rounded = round(capacity, 12)
                if rounded in seen_residuals:
                    continue
                seen_residuals.add(rounded)
                remaining[position] -= user.demand
                assignment[user.user_id] = provider_ids[position]
                search(index + 1, current + user.total_value, remaining)
                del assignment[user.user_id]
                remaining[position] += user.demand
            # Branch: skip the user.
            search(index + 1, current, remaining)

        search(0, 0.0, list(capacities))
        allocation = Allocation.from_dict(
            {
                (user.user_id, best[user.user_id]): user.demand
                for user in users
                if user.user_id in best
            }
        )
        return allocation, best_welfare

    def payments_for_users(
        self,
        bids: BidVector,
        user_ids: Sequence[str],
        allocation: Allocation,
        welfare: float,
        seed: int,
    ) -> Dict[str, float]:
        def welfare_without(user_id: str) -> float:
            _, pivot_welfare = self.solve_allocation(bids.without_user(user_id), seed)
            return pivot_welfare

        return clarke_pivot_payments(bids, allocation, user_ids, welfare_without)

    def assemble(
        self,
        bids: BidVector,
        allocation: Allocation,
        user_payments: Dict[str, float],
    ) -> AuctionResult:
        provider_revenues: Dict[str, float] = {}
        for user_id, provider_id, _amount in allocation.entries:
            payment = user_payments.get(user_id, 0.0)
            provider_revenues[provider_id] = provider_revenues.get(provider_id, 0.0) + payment
        return AuctionResult(
            allocation, Payments.from_dicts(user_payments, provider_revenues)
        )
