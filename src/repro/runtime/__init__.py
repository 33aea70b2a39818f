"""End-to-end runtime roles: bidders submitting bids, providers collecting them.

The :mod:`repro.core` package assumes every provider already holds the bids it
received; this package adds the step before (and after) that: bidder nodes that send
their bids to all providers over the simulated network (possibly misbehaving — see
:mod:`repro.adversary`), provider nodes that collect bids until a deadline and
substitute ⊥ for missing ones, and an :class:`~repro.runtime.auction_run.AuctionRun`
orchestrator that wires a full round together, exactly as in Figure 1 of the paper:
bidders submit bids, providers simulate the auctioneer, bidders collect results.
"""

from repro.runtime.auction_run import AuctionRun, AuctionRunResult
from repro.runtime.bidder import BidderNode, BidderStrategy, TruthfulBidder
from repro.runtime.provider import CollectingProviderNode

__all__ = [
    "AuctionRun",
    "AuctionRunResult",
    "BidderNode",
    "BidderStrategy",
    "CollectingProviderNode",
    "TruthfulBidder",
]
