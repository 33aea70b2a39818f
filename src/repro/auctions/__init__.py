"""Auction mechanisms (the allocation algorithms ``A`` of the paper).

The framework treats the allocation algorithm as a black box ``A`` that maps a vector
of bids to an allocation and payments.  This package provides the two mechanisms the
paper evaluates plus baselines:

* :class:`~repro.auctions.double_auction.DoubleAuction` — truthful, budget-balanced
  double auction for divisible bandwidth using ordering + water-filling with McAfee
  trade reduction (Section 5.2.1; Zheng et al. style).  Computationally cheap.
* :class:`~repro.auctions.standard_auction.StandardAuction` — truthful-in-expectation
  approximately-optimal single-provider-per-user auction with VCG (Clarke pivot)
  payments computed by re-solving the allocation per user (Section 5.2.2; Zhang et
  al. style).  Computationally expensive and embarrassingly parallel in the payment
  phase.
* :class:`~repro.auctions.vcg.ExactVCGAuction` — exact welfare maximisation by branch
  and bound with exact VCG payments; exponential, used as ground truth for small
  instances.
* :class:`~repro.auctions.greedy.GreedyStandardAuction` — fast non-truthful baseline.

The standard auction runs as the NumPy-backed
:class:`~repro.auctions.engine.VectorizedStandardAuction` (see
:mod:`repro.auctions.engine` and DESIGN.md); the readable reference above is its
bit-identical test oracle.
"""

from repro.auctions.base import (
    Allocation,
    AllocationAlgorithm,
    AuctionResult,
    BidVector,
    Payments,
    ProviderAsk,
    UserBid,
)
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.engine import VectorizedStandardAuction
from repro.auctions.greedy import GreedyStandardAuction
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.validation import (
    InvalidBidError,
    is_valid_provider_ask,
    is_valid_user_bid,
    neutral_user_bid,
    sanitize_bid_vector,
)
from repro.auctions.vcg import ExactVCGAuction
from repro.auctions.welfare import (
    budget_surplus,
    provider_utilities,
    social_welfare,
    user_utilities,
)

__all__ = [
    "Allocation",
    "AllocationAlgorithm",
    "AuctionResult",
    "BidVector",
    "DoubleAuction",
    "ExactVCGAuction",
    "GreedyStandardAuction",
    "InvalidBidError",
    "Payments",
    "ProviderAsk",
    "StandardAuction",
    "UserBid",
    "VectorizedStandardAuction",
    "budget_surplus",
    "is_valid_provider_ask",
    "is_valid_user_bid",
    "neutral_user_bid",
    "provider_utilities",
    "sanitize_bid_vector",
    "social_welfare",
    "user_utilities",
]
