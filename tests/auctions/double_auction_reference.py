"""The double auction's clearing as a validate / walk / ration / re-aggregate pipeline.

This is ``repro.auctions.double_auction`` before ``DoubleAuction.run`` became one
pass: ``run`` and its four helpers, moved here verbatim (only the class name
changed).  It is the oracle of the differential suite in
``tests/auctions/test_double_auction.py`` — the one-pass clearing must return a
result with the same ``repr``, float for float — and of the payment property in
``tests/properties/test_property_auctions.py``.  Not shipped, never imported by
``src/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.auctions.base import (
    Allocation,
    AllocationAlgorithm,
    AuctionResult,
    BidVector,
    Payments,
    ProviderAsk,
    UserBid,
)
from repro.auctions.validation import is_valid_provider_ask, is_valid_user_bid

__all__ = ["ReferenceDoubleAuction"]

_EPS = 1e-12


@dataclass(frozen=True)
class _TradeSet:
    """Outcome of the efficient water-filling pass."""

    traded_quantity: float
    #: per-user traded amount in the efficient (pre-reduction) solution
    user_amounts: Dict[str, float]
    #: per-provider traded amount in the efficient (pre-reduction) solution
    provider_amounts: Dict[str, float]
    #: id of the marginal (lowest-value) trading user, if any
    marginal_user: Optional[str]
    #: id of the marginal (highest-cost) trading provider, if any
    marginal_provider: Optional[str]


class ReferenceDoubleAuction(AllocationAlgorithm):
    """``DoubleAuction`` as it was before the one-pass clearing: the oracle."""

    name = "double-auction-waterfill"
    requires_provider_bids = True
    single_provider_allocation = False

    def run(self, bids: BidVector, rng: Optional[random.Random] = None) -> AuctionResult:
        buyers = self._eligible_buyers(bids)
        sellers = self._eligible_sellers(bids)
        if not buyers or not sellers:
            return AuctionResult.empty()

        trades = self._efficient_trades(buyers, sellers)
        if trades.traded_quantity <= _EPS or trades.marginal_user is None:
            return AuctionResult.empty()

        buyer_price = bids.user(trades.marginal_user).unit_value
        seller_price = bids.provider(trades.marginal_provider).unit_cost

        winning_buyers = [
            b for b in buyers
            if b.user_id in trades.user_amounts and b.user_id != trades.marginal_user
        ]
        winning_sellers = [
            s for s in sellers
            if s.provider_id in trades.provider_amounts
            and s.provider_id != trades.marginal_provider
        ]
        if not winning_buyers or not winning_sellers:
            return AuctionResult.empty()

        allocation = self._ration_and_match(winning_buyers, winning_sellers)
        if allocation.is_empty():
            return AuctionResult.empty()

        user_totals = allocation.user_totals()
        provider_totals = allocation.provider_totals()
        user_payments = {
            user_id: buyer_price * user_totals[user_id]
            for user_id in allocation.winners()
        }
        provider_revenues = {
            provider_id: seller_price * provider_totals[provider_id]
            for provider_id in allocation.providers_used()
        }
        return AuctionResult(
            allocation, Payments.from_dicts(user_payments, provider_revenues)
        )

    # -- pieces ---------------------------------------------------------------
    @staticmethod
    def _eligible_buyers(bids: BidVector) -> List[UserBid]:
        buyers = [
            bid for bid in bids.users
            if is_valid_user_bid(bid) and bid.unit_value > 0 and bid.demand > _EPS
        ]
        # Decreasing value; deterministic tie-break on the id.
        return sorted(buyers, key=lambda b: (-b.unit_value, b.user_id))

    @staticmethod
    def _eligible_sellers(bids: BidVector) -> List[ProviderAsk]:
        sellers = [
            ask for ask in bids.providers
            if is_valid_provider_ask(ask) and ask.capacity > _EPS
        ]
        # Increasing cost; deterministic tie-break on the id.
        return sorted(sellers, key=lambda s: (s.unit_cost, s.provider_id))

    @staticmethod
    def _efficient_trades(buyers: List[UserBid], sellers: List[ProviderAsk]) -> _TradeSet:
        """Walk the demand and supply curves simultaneously.

        Quantity is traded as long as the current buyer's unit value strictly exceeds
        the current seller's unit cost; the last buyer and seller that trade any
        quantity are the marginal participants excluded by the trade reduction.
        """
        user_amounts: Dict[str, float] = {}
        provider_amounts: Dict[str, float] = {}
        traded = 0.0
        i = j = 0
        remaining_demand = buyers[0].demand if buyers else 0.0
        remaining_capacity = sellers[0].capacity if sellers else 0.0
        marginal_user: Optional[str] = None
        marginal_provider: Optional[str] = None

        while i < len(buyers) and j < len(sellers):
            buyer, seller = buyers[i], sellers[j]
            if buyer.unit_value <= seller.unit_cost:
                break
            quantity = min(remaining_demand, remaining_capacity)
            if quantity > _EPS:
                traded += quantity
                user_amounts[buyer.user_id] = user_amounts.get(buyer.user_id, 0.0) + quantity
                provider_amounts[seller.provider_id] = (
                    provider_amounts.get(seller.provider_id, 0.0) + quantity
                )
                marginal_user = buyer.user_id
                marginal_provider = seller.provider_id
            remaining_demand -= quantity
            remaining_capacity -= quantity
            if remaining_demand <= _EPS:
                i += 1
                remaining_demand = buyers[i].demand if i < len(buyers) else 0.0
            if remaining_capacity <= _EPS:
                j += 1
                remaining_capacity = sellers[j].capacity if j < len(sellers) else 0.0

        return _TradeSet(traded, user_amounts, provider_amounts, marginal_user, marginal_provider)

    @staticmethod
    def _ration_and_match(buyers: List[UserBid], sellers: List[ProviderAsk]) -> Allocation:
        """Ration the reduced trade among winners and match it by water-filling.

        The traded quantity after the trade reduction is
        ``Q' = min(total winner demand, total winning-seller capacity)``.  If one side
        is short, the other side is rationed *proportionally* (to demand on the buyer
        side, to capacity on the seller side) — a bid-independent rule, so no winner
        can increase the quantity it trades by exaggerating its bid.  The resulting
        per-buyer quantities are then placed onto the per-seller quantities with the
        water-filling method of §5.2.1 (the matching itself does not affect prices or
        quantities, only which pipe the bandwidth flows through).
        """
        total_demand = sum(b.demand for b in buyers)
        total_capacity = sum(s.capacity for s in sellers)
        traded = min(total_demand, total_capacity)
        if traded <= _EPS:
            return Allocation.empty()
        buyer_share = traded / total_demand
        seller_share = traded / total_capacity
        buyer_quota = {b.user_id: b.demand * buyer_share for b in buyers}
        seller_quota = {s.provider_id: s.capacity * seller_share for s in sellers}

        amounts: Dict[Tuple[str, str], float] = {}
        seller_order = [s.provider_id for s in sellers]
        cursor = 0
        for buyer in buyers:
            remaining = buyer_quota[buyer.user_id]
            while remaining > _EPS and cursor < len(seller_order):
                provider_id = seller_order[cursor]
                available = seller_quota[provider_id]
                if available <= _EPS:
                    cursor += 1
                    continue
                take = min(remaining, available)
                amounts[(buyer.user_id, provider_id)] = (
                    amounts.get((buyer.user_id, provider_id), 0.0) + take
                )
                seller_quota[provider_id] -= take
                remaining -= take
        return Allocation.from_dict(amounts)
