"""Standard auction: approximately-optimal allocation with VCG payments (§5.2.2).

The paper instantiates its framework with the mechanism of Zhang, Wu, Li and Lau
("A Truthful (1−ε)-Optimal Mechanism for On-demand Cloud Resource Provisioning",
INFOCOM 2015): users do not split their demand — each user's bandwidth request is
served entirely by a single provider or not at all — providers do not bid, and the
mechanism aims at truthfulness, (approximately) maximal social welfare and polynomial
running time.  Welfare maximisation under the single-provider constraint is the
multiple-knapsack problem, which is NP-hard; the original algorithm is a randomised
(1−ε)-approximation with complexity ≈ O(m·n⁹·(1/ε)²).

This module implements a *substitute with the same computational and game-theoretic
shape* (see DESIGN.md):

* the allocation rule is a randomised smoothed greedy over value-density orders with
  ``restarts ≈ (1/ε)²`` independent perturbations followed by a pairwise local-search
  improvement — expensive, randomised, and tunable via ``epsilon`` exactly like the
  original's accuracy/effort knob;
* payments are Clarke pivots: each winner's payment requires re-solving the allocation
  without that winner, which is the per-user, embarrassingly parallel "Task 2" of
  Algorithm 1 in the paper;
* all randomness is derived deterministically from an integer seed, so independent
  provider groups recomputing any piece of the mechanism obtain identical results
  (a requirement of the data-transfer block's consistency checks).

The class implements :class:`~repro.auctions.decomposable.DecomposableMechanism`, so
the parallel allocator can split the payment phase across provider groups.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import stable_hash
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

__all__ = ["StandardAuction"]

_EPS = 1e-12


class StandardAuction(AllocationAlgorithm, DecomposableMechanism):
    """Truthful-in-expectation, approximately welfare-maximising standard auction.

    Args:
        epsilon: accuracy/effort knob.  The number of randomised restarts of the
            allocation rule is ``ceil(1/epsilon**2)`` (clamped to
            ``[min_restarts, max_restarts]``), mirroring the (1/ε)² factor in the
            complexity of the original mechanism.  Smaller ε ⇒ better welfare and
            more computation.
        perturbation: relative magnitude of the smoothing noise applied to bid values
            when building each randomised greedy order.
        local_search_rounds: number of improvement passes (relocation of losers into
            residual capacity) applied to each restart's solution.
        min_restarts / max_restarts: clamps for the restart count.
    """

    name = "standard-auction-smoothed-vcg"
    requires_provider_bids = False
    single_provider_allocation = True

    def __init__(
        self,
        epsilon: float = 0.25,
        perturbation: float = 0.05,
        local_search_rounds: int = 1,
        min_restarts: int = 4,
        max_restarts: int = 512,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 <= perturbation < 1:
            raise ValueError("perturbation must be in [0, 1)")
        self.epsilon = epsilon
        self.perturbation = perturbation
        self.local_search_rounds = local_search_rounds
        self.restarts = max(min_restarts, min(max_restarts, int(round(1.0 / epsilon**2))))

    # ------------------------------------------------------------------ run --
    def run(self, bids: BidVector, rng: Optional[random.Random] = None) -> AuctionResult:
        rng = rng if rng is not None else random.Random(0)
        seed = rng.getrandbits(63)
        allocation, welfare = self.solve_allocation(bids, seed)
        payments = self.payments_for_users(
            bids, bids.user_ids, allocation, welfare, seed
        )
        return self.assemble(bids, allocation, payments)

    # ------------------------------------------- DecomposableMechanism API --
    @staticmethod
    def eligible_capacities(bids: BidVector) -> Dict[str, float]:
        """Provider capacities that can host anything, in bid-vector order (shared)."""
        return {p.provider_id: p.capacity for p in eligible_provider_asks(bids)}

    @staticmethod
    def allocation_from_assignment(
        users: List[UserBid], assignment: Dict[str, str]
    ) -> Allocation:
        """Materialise the winning assignment as an all-or-nothing allocation (shared)."""
        return Allocation.from_dict(
            {
                (user.user_id, provider_id): user.demand
                for user in users
                for provider_id in [assignment.get(user.user_id)]
                if provider_id is not None
            }
        )

    def solve_allocation(self, bids: BidVector, seed: int) -> Tuple[Allocation, float]:
        """Step 1: randomised smoothed greedy + local search over the full bid vector."""
        users = eligible_user_bids(bids)
        capacities = self.eligible_capacities(bids)
        if not users or not capacities:
            return Allocation.empty(), 0.0

        best_assignment: Dict[str, str] = {}
        best_welfare = -1.0
        for restart in range(self.restarts):
            restart_rng = random.Random(stable_hash(seed, "restart", restart))
            assignment = self._greedy_assignment(users, dict(capacities), restart_rng)
            assignment = self._local_search(users, capacities, assignment)
            welfare = self._assignment_welfare(users, assignment)
            if welfare > best_welfare + _EPS:
                best_welfare = welfare
                best_assignment = assignment
        allocation = self.allocation_from_assignment(users, best_assignment)
        return allocation, max(best_welfare, 0.0)

    def payments_for_users(
        self,
        bids: BidVector,
        user_ids: Sequence[str],
        allocation: Allocation,
        welfare: float,
        seed: int,
    ) -> Dict[str, float]:
        """Step 2: Clarke pivots for a subset of users (one re-solve per winner).

        Because the allocation rule is approximate, the pivot re-solve can occasionally
        find a *better* solution than the one actually chosen, which would make the raw
        Clarke payment exceed the winner's declared value.  Payments are therefore
        clamped to the declared value of the allocated bundle, which restores
        individual rationality (a standard fix for approximate-VCG mechanisms) at a
        negligible cost in truthfulness.

        The re-solves themselves go through :meth:`_pivot_welfares`, the hook the
        vectorized engine overrides to run them through a pool with memoisation.
        """
        winners = set(allocation.winners())
        pivot_welfares = self._pivot_welfares(
            bids, [uid for uid in user_ids if uid in winners], seed
        )

        def welfare_without(user_id: str) -> float:
            # Total over all users, like the pre-batching closure: the prefetch
            # above covers every user clarke_pivot_payments asks about today,
            # but a miss falls back to a single re-solve instead of a KeyError.
            if user_id in pivot_welfares:
                return pivot_welfares[user_id]
            return self._pivot_welfares(bids, [user_id], seed)[user_id]

        payments = clarke_pivot_payments(bids, allocation, user_ids, welfare_without)
        # Ids without an entry total 0, an empty ``sum``, as ``user_total`` gives.
        allocated = allocation.user_totals()
        return {
            user_id: min(payment, bids.user(user_id).unit_value * allocated.get(user_id, 0))
            for user_id, payment in payments.items()
        }

    def _pivot_welfares(
        self, bids: BidVector, user_ids: Sequence[str], seed: int
    ) -> Dict[str, float]:
        """Welfare of the re-solved allocation without each user (one re-solve each)."""
        welfares: Dict[str, float] = {}
        for user_id in user_ids:
            reduced = bids.without_user(user_id)
            _, pivot_welfare = self.solve_allocation(reduced, self._pivot_seed(seed, user_id))
            welfares[user_id] = pivot_welfare
        return welfares

    def assemble(
        self,
        bids: BidVector,
        allocation: Allocation,
        user_payments: Dict[str, float],
    ) -> AuctionResult:
        """Step 3: attach payments; provider revenues are the payments of their users."""
        provider_revenues: Dict[str, float] = {}
        for user_id, provider_id, _amount in allocation.entries:
            payment = user_payments.get(user_id, 0.0)
            provider_revenues[provider_id] = provider_revenues.get(provider_id, 0.0) + payment
        return AuctionResult(
            allocation, Payments.from_dicts(user_payments, provider_revenues)
        )

    # ---------------------------------------------------------------- pieces --
    @staticmethod
    def _pivot_seed(seed: int, user_id: str) -> int:
        """Deterministic per-user seed for the pivot re-solve (same on all providers)."""
        return stable_hash(seed, "pivot", user_id)

    def _greedy_assignment(
        self,
        users: List[UserBid],
        capacities: Dict[str, float],
        rng: random.Random,
    ) -> Dict[str, str]:
        """Best-fit decreasing over a smoothed value-density order."""
        def smoothed_density(user: UserBid) -> float:
            noise = 1.0 + self.perturbation * (2.0 * rng.random() - 1.0)
            return user.unit_value * noise

        order = sorted(
            users, key=lambda u: (-smoothed_density(u), u.user_id)
        )
        assignment: Dict[str, str] = {}
        remaining = dict(capacities)
        for user in order:
            # Best fit: the provider with the least remaining capacity that still fits,
            # which keeps large residuals available for large future demands.
            candidates = [
                (remaining[pid], pid)
                for pid in remaining
                if remaining[pid] + _EPS >= user.demand
            ]
            if not candidates:
                continue
            _, chosen = min(candidates)
            assignment[user.user_id] = chosen
            remaining[chosen] -= user.demand
        return assignment

    def _local_search(
        self,
        users: List[UserBid],
        capacities: Dict[str, float],
        assignment: Dict[str, str],
    ) -> Dict[str, str]:
        """Try to place losers into residual capacity, possibly evicting cheaper winners."""
        assignment = dict(assignment)
        users_by_id = {u.user_id: u for u in users}
        for _ in range(max(0, self.local_search_rounds)):
            remaining = dict(capacities)
            for user_id, provider_id in assignment.items():
                remaining[provider_id] -= users_by_id[user_id].demand
            improved = False
            losers = [u for u in users if u.user_id not in assignment]
            losers.sort(key=lambda u: (-u.total_value, u.user_id))
            for loser in losers:
                # Direct placement into residual capacity.
                fits = [pid for pid, cap in remaining.items() if cap + _EPS >= loser.demand]
                if fits:
                    chosen = min(fits, key=lambda pid: remaining[pid])
                    assignment[loser.user_id] = chosen
                    remaining[chosen] -= loser.demand
                    improved = True
                    continue
                # Eviction: replace a strictly lower-value winner if the swap fits.
                for winner_id, provider_id in list(assignment.items()):
                    winner = users_by_id[winner_id]
                    if winner.total_value + _EPS >= loser.total_value:
                        continue
                    freed = remaining[provider_id] + winner.demand
                    if freed + _EPS >= loser.demand:
                        del assignment[winner_id]
                        assignment[loser.user_id] = provider_id
                        remaining[provider_id] = freed - loser.demand
                        improved = True
                        break
            if not improved:
                break
        return assignment

    @staticmethod
    def _assignment_welfare(users: List[UserBid], assignment: Dict[str, str]) -> float:
        users_by_id = {u.user_id: u for u in users}
        return sum(users_by_id[uid].total_value for uid in assignment)
