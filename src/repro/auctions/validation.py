"""Bid validation and neutral bids.

Bidders in a decentralized system "may adopt arbitrary behaviours such as submitting
different bids to different providers or not submitting a bid" (Section 3.2).  The
framework handles this by (a) the bid agreement, which resolves inconsistencies, and
(b) substituting a *neutral bid* — one that excludes the bidder from the auction — for
anything invalid or missing.  This module defines what "valid" means and produces the
neutral substitutes.
"""

from __future__ import annotations

import math
from typing import Any, List

from repro.auctions.base import BidVector, ProviderAsk, UserBid

__all__ = [
    "InvalidBidError",
    "is_valid_user_bid",
    "is_valid_provider_ask",
    "eligible_user_bids",
    "eligible_provider_asks",
    "neutral_user_bid",
    "neutral_provider_ask",
    "coerce_user_bid",
    "sanitize_bid_vector",
]


class InvalidBidError(ValueError):
    """Raised when a bid cannot be interpreted at all (wrong type or structure)."""


#: A demand or capacity at or below this is too small to take part in an
#: allocation (the mechanisms' ``_EPS``).
_NEGLIGIBLE = 1e-12
_INF = math.inf


def _is_number(value: Any) -> bool:
    """An ``int`` or ``float`` (or a subclass of one) other than ``bool``."""
    return type(value) is float or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )


# Both validators bound their fields with one comparison chain, whatever the
# numeric type: NaN fails every comparison, -inf the lower bounds and an int
# beyond float range the upper ones (int/float comparison is exact, where
# ``math.isfinite(10**400)`` raises) — which leaves +inf to rule out, for
# callers whose bound is itself infinite.
def is_valid_user_bid(
    bid: Any,
    max_unit_value: float = 1e9,
    max_demand: float = 1e9,
) -> bool:
    """A user bid is valid if its numeric fields are finite, positive and bounded."""
    if not isinstance(bid, UserBid):
        return False
    unit_value, demand = bid.unit_value, bid.demand
    return (
        _is_number(unit_value)
        and _is_number(demand)
        and 0 <= unit_value <= max_unit_value
        and 0 < demand <= max_demand
        and unit_value != _INF
        and demand != _INF
    )


def is_valid_provider_ask(
    ask: Any,
    max_unit_cost: float = 1e9,
    max_capacity: float = 1e12,
) -> bool:
    """A provider ask is valid if cost and capacity are finite and non-negative."""
    if not isinstance(ask, ProviderAsk):
        return False
    unit_cost, capacity = ask.unit_cost, ask.capacity
    return (
        _is_number(unit_cost)
        and _is_number(capacity)
        and 0 <= unit_cost <= max_unit_cost
        and 0 <= capacity <= max_capacity
        and unit_cost != _INF
        and capacity != _INF
    )


def eligible_user_bids(bids: BidVector) -> List[UserBid]:
    """The user bids that can take part in an allocation, in bid-vector order.

    One definition for every mechanism: providers recomputing each other's
    results — and the two standard-auction engines — must filter identically.
    """
    return [
        bid for bid in bids.users
        if is_valid_user_bid(bid) and bid.unit_value > 0 and bid.demand > _NEGLIGIBLE
    ]


def eligible_provider_asks(bids: BidVector) -> List[ProviderAsk]:
    """The provider asks that can host anything, in bid-vector order.

    The same single definition as :func:`eligible_user_bids`, for the other
    side: a mechanism called on a vector nobody sanitised must not meet an
    infinite, NaN or non-numeric capacity the protocol would have neutralised.
    """
    return [
        ask for ask in bids.providers
        if is_valid_provider_ask(ask) and ask.capacity > _NEGLIGIBLE
    ]


def neutral_user_bid(user_id: str) -> UserBid:
    """The pre-determined valid bid substituted for a missing/invalid user bid.

    A zero unit value with an infinitesimal demand never wins anything and never
    affects other users' payments in the mechanisms of this package, which is the
    "excludes i from the auction" semantics of the paper's ⊥ substitution.
    """
    return UserBid(user_id=user_id, unit_value=0.0, demand=1e-9)


def neutral_provider_ask(provider_id: str) -> ProviderAsk:
    """Neutral ask: zero capacity, so the provider cannot trade."""
    return ProviderAsk(provider_id=provider_id, unit_cost=0.0, capacity=0.0)


def coerce_user_bid(user_id: str, candidate: Any) -> UserBid:
    """Return ``candidate`` if it is a valid bid *for this user*, else the neutral bid."""
    if is_valid_user_bid(candidate) and candidate.user_id == user_id:
        return candidate
    return neutral_user_bid(user_id)


def sanitize_bid_vector(bids: BidVector) -> BidVector:
    """Replace every invalid bid/ask in a vector by its neutral substitute."""
    users = tuple(
        bid if is_valid_user_bid(bid) else neutral_user_bid(bid.user_id) for bid in bids.users
    )
    providers = tuple(
        ask if is_valid_provider_ask(ask) else neutral_provider_ask(ask.provider_id)
        for ask in bids.providers
    )
    return BidVector(users, providers)
