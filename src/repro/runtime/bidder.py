"""Bidder nodes: users (and, in double auctions, providers) that submit bids.

A bidder's behaviour is captured by a :class:`BidderStrategy`, which decides what to
send to each provider.  The honest strategy sends the true valuation everywhere;
adversarial strategies (different bids to different providers, garbage, silence) live
in :mod:`repro.adversary.bidder_behaviors` and implement the same interface.

After submitting, a bidder waits for the result announcements of the providers and
finishes with the outcome it can observe: the (x, p) pair if all providers announced
the same pair, and ⊥ otherwise — mirroring Definition 1 from the bidder's viewpoint.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence

from repro.auctions.base import UserBid
from repro.common import ABORT, is_abort
from repro.core.outcome import combine_outputs
from repro.net.message import Message
from repro.net.node import Node, NodeContext

__all__ = [
    "BidderStrategy", "TruthfulBidder", "BidderNode",
    "BID_TAG", "RESULT_TAG", "bid_messages", "result_messages",
]

#: Tag used for bid submissions from bidders to providers.
BID_TAG = "submit_bid"
#: Tag used by providers to announce their output back to the bidders.
RESULT_TAG = "announce_result"


def bid_messages(n: int, m: int) -> int:
    """Bids of an honest round (§3.2): each of ``n`` bidders to all ``m`` providers."""
    return n * m


def result_messages(n: int, m: int) -> int:
    """Announcements of an honest round (Definition 1): each provider to every bidder."""
    return m * n


class BidderStrategy(abc.ABC):
    """Decides what a bidder sends to each provider."""

    @abc.abstractmethod
    def bid_for_provider(self, true_bid: UserBid, provider_id: str) -> Optional[Any]:
        """The payload to send to ``provider_id`` (None means send nothing)."""


class TruthfulBidder(BidderStrategy):
    """The honest strategy: the same, true bid to every provider."""

    def bid_for_provider(self, true_bid: UserBid, provider_id: str) -> Optional[Any]:
        return true_bid


class BidderNode(Node):
    """A user node that submits its bid to all providers and collects the result.

    Args:
        true_bid: the bidder's true valuation/demand.
        providers: ids of the provider nodes.
        strategy: submission behaviour (defaults to truthful).
    """

    def __init__(
        self,
        true_bid: UserBid,
        providers: Sequence[str],
        strategy: Optional[BidderStrategy] = None,
    ) -> None:
        super().__init__(true_bid.user_id)
        self.true_bid = true_bid
        self.providers = sorted(providers)
        self._provider_set = frozenset(self.providers)
        self.strategy = strategy if strategy is not None else TruthfulBidder()
        self._announcements: Dict[str, Any] = {}

    # -- Node interface ---------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        # Consecutive sends of one object are one fan-out: the same messages in
        # the same order, with the wire size measured once (truthful: one call).
        payload: Any = None
        recipients: List[str] = []
        for provider_id in self.providers:
            bid = self.strategy.bid_for_provider(self.true_bid, provider_id)
            if bid is None:
                continue
            if bid is not payload and recipients:
                ctx.broadcast(recipients, payload, tag=BID_TAG, include_self=True)
                recipients = []
            payload = bid
            recipients.append(provider_id)
        if recipients:
            ctx.broadcast(recipients, payload, tag=BID_TAG, include_self=True)

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        if message.tag != RESULT_TAG or message.sender not in self._provider_set:
            return
        self._announcements[message.sender] = message.payload
        # Announcements are only stored from providers, so equal counts mean
        # equal sets (as in the providers' _maybe_start_early).
        if len(self._announcements) == len(self._provider_set):
            self.finish(combine_outputs(self._announcements))
