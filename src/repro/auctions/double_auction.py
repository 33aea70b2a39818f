"""Truthful, budget-balanced double auction for divisible bandwidth (§5.2.1).

This is the reproduction of the double-auction allocation algorithm the paper takes
from Zheng et al. ("STAR: Strategy-Proof Double Auctions for Multi-Cloud, Multi-Tenant
Bandwidth Reservation"): providers are ordered by increasing declared unit cost, users
by decreasing declared unit value, and users are allocated to providers with the
*water-filling* method.  Truthfulness and budget balance are obtained with a McAfee
style *trade reduction*: the marginal (lowest-value) trading user and the marginal
(highest-cost) trading provider are excluded from the trade, and their declared
value/cost become the uniform unit prices charged to the remaining winners — prices
that are, by construction, independent of the winners' own bids.

Properties (see also the test suite):

* **feasible** — never exceeds provider capacities or user demands;
* **budget balanced** — the buyer price is at least the seller price, so users pay at
  least what providers receive;
* **individually rational** — winners pay at most their declared value per unit and
  providers receive at least their declared cost per unit;
* **truthful** — the per-unit prices faced by a winner do not depend on its own bid
  (the mechanism trades maximal social welfare for this, exactly the trade-off the
  paper describes).

The algorithm is a couple of sorts plus a linear scan, which is why the paper uses it
to measure the *communication* overhead of the distributed simulation (Figure 4): the
computation itself is negligible, so any slowdown of the distributed version is pure
coordination cost.

``run`` is written to match: one eligibility filter and one sort per side, the trade
walk over indices, a ration-and-match loop that appends the allocation entries
directly, and one walk of those entries for the per-id totals and payments — each bid
is touched a constant number of times.  Every float comes from the same operations in
the same order as the validate / walk-into-dicts / re-filter / ration-into-a-dict /
re-aggregate pipeline it replaced, which lives on as the oracle in
``tests/auctions/double_auction_reference.py`` (results must match by ``repr``; builtin
``sum`` only, never NumPy, because 3.12's ``sum`` is compensated).  Measured (CHANGES.md,
PR 19): a cold ``run`` on 300 users / 8 providers 0.75 -> 0.45 ms, 1000 users
2.9 -> 1.9 ms; on the ``fig4_sweep`` workload (16 clearings of 300 users per op) the
traced ``auctions.solve_ms`` 0.92 -> 0.59 and, with the shared agreement batches of
the same change, ``rounds_per_s`` 74.2 -> 108.7.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.auctions.base import (
    EPSILON,
    Allocation,
    AllocationAlgorithm,
    AuctionResult,
    BidVector,
    Payments,
)
from repro.auctions.validation import eligible_provider_asks, eligible_user_bids

__all__ = ["DoubleAuction"]

_EPS = 1e-12


class DoubleAuction(AllocationAlgorithm):
    """McAfee-style double auction with water-filling for divisible bandwidth."""

    name = "double-auction-waterfill"
    requires_provider_bids = True
    single_provider_allocation = False

    def run(self, bids: BidVector, rng: Optional[random.Random] = None) -> AuctionResult:
        # Decreasing value, increasing cost; deterministic tie-breaks on the ids.
        buyers = sorted(eligible_user_bids(bids), key=lambda b: (-b.unit_value, b.user_id))
        sellers = sorted(
            eligible_provider_asks(bids), key=lambda s: (s.unit_cost, s.provider_id)
        )
        if not buyers or not sellers:
            return AuctionResult.empty()

        # Walk the demand and supply curves simultaneously: quantity is traded as
        # long as the current buyer's unit value strictly exceeds the current
        # seller's unit cost.  Eligible demands and capacities exceed _EPS and a
        # side is advanced as soon as what it has left does not, so every pair the
        # walk visits trades: the traders are the buyers up to ``last_buyer`` and
        # the sellers up to ``last_seller``, the last pair being the marginal one.
        num_buyers, num_sellers = len(buyers), len(sellers)
        last_buyer = last_seller = -1
        i = j = 0
        remaining_demand = buyers[0].demand
        remaining_capacity = sellers[0].capacity
        while i < num_buyers and j < num_sellers:
            if buyers[i].unit_value <= sellers[j].unit_cost:
                break
            last_buyer, last_seller = i, j
            quantity = min(remaining_demand, remaining_capacity)
            remaining_demand -= quantity
            remaining_capacity -= quantity
            if remaining_demand <= _EPS:
                i += 1
                remaining_demand = buyers[i].demand if i < num_buyers else 0.0
            if remaining_capacity <= _EPS:
                j += 1
                remaining_capacity = sellers[j].capacity if j < num_sellers else 0.0

        # Trade reduction: the marginal buyer and seller are excluded from the
        # trade and their declared value / cost become the uniform unit prices.
        if last_buyer < 1 or last_seller < 1:
            return AuctionResult.empty()
        buyer_price = buyers[last_buyer].unit_value
        seller_price = sellers[last_seller].unit_cost
        winning_buyers, winning_sellers = buyers[:last_buyer], sellers[:last_seller]

        # Ration the reduced trade ``Q' = min(winner demand, winning capacity)``:
        # if one side is short the other is rationed *proportionally* (to demand
        # on the buyer side, to capacity on the seller side) — a bid-independent
        # rule, so no winner can increase the quantity it trades by exaggerating
        # its bid.  The per-buyer quotas are then placed onto the per-seller
        # quotas with the water-filling method of §5.2.1 (the matching does not
        # affect prices or quantities, only which pipe the bandwidth flows through).
        total_demand = sum([b.demand for b in winning_buyers])
        total_capacity = sum([s.capacity for s in winning_sellers])
        traded = min(total_demand, total_capacity)
        buyer_share = traded / total_demand
        seller_share = traded / total_capacity
        seller_quota = [s.capacity * seller_share for s in winning_sellers]
        entries: List[Tuple[str, str, float]] = []
        cursor = 0
        for buyer in winning_buyers:
            remaining = buyer.demand * buyer_share
            while remaining > _EPS and cursor < len(seller_quota):
                available = seller_quota[cursor]
                if available <= _EPS:
                    cursor += 1
                    continue
                take = min(remaining, available)
                if take > EPSILON:
                    entries.append(
                        (buyer.user_id, winning_sellers[cursor].provider_id, float(take))
                    )
                seller_quota[cursor] = available - take
                remaining -= take
        if not entries:
            return AuctionResult.empty()
        entries.sort()

        # Amounts are grouped per id in entry order and summed per group — the
        # same ``sum`` over the same sequence as ``Allocation.user_total``.
        by_user: Dict[str, List[float]] = {}
        by_provider: Dict[str, List[float]] = {}
        for user_id, provider_id, amount in entries:
            by_user.setdefault(user_id, []).append(amount)
            by_provider.setdefault(provider_id, []).append(amount)
        return AuctionResult(
            Allocation(tuple(entries)),
            Payments.from_dicts(
                {uid: buyer_price * sum(group) for uid, group in by_user.items()},
                {pid: seller_price * sum(group) for pid, group in by_provider.items()},
            ),
        )
