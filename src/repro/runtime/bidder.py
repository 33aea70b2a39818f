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
from typing import Any, Dict, Optional, Sequence

from repro.auctions.base import UserBid
from repro.common import ABORT, is_abort
from repro.core.outcome import combine_outputs
from repro.net.message import Message
from repro.net.node import Node, NodeContext

__all__ = ["BidderStrategy", "TruthfulBidder", "BidderNode", "BID_TAG", "RESULT_TAG"]

#: Tag used for bid submissions from bidders to providers.
BID_TAG = "submit_bid"
#: Tag used by providers to announce their output back to the bidders.
RESULT_TAG = "announce_result"


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
        wait_for_result: if False, the bidder finishes right after submitting
            (useful when a scenario only cares about the providers' outputs).
    """

    def __init__(
        self,
        true_bid: UserBid,
        providers: Sequence[str],
        strategy: Optional[BidderStrategy] = None,
        wait_for_result: bool = True,
    ) -> None:
        super().__init__(true_bid.user_id)
        self.true_bid = true_bid
        self.providers = sorted(providers)
        self._provider_set = frozenset(self.providers)
        self.strategy = strategy if strategy is not None else TruthfulBidder()
        self.wait_for_result = wait_for_result
        self._announcements: Dict[str, Any] = {}

    # -- Node interface ---------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        for provider_id in self.providers:
            payload = self.strategy.bid_for_provider(self.true_bid, provider_id)
            if payload is not None:
                ctx.send(provider_id, payload, tag=BID_TAG)
        if not self.wait_for_result:
            self.finish(None)

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        if message.tag != RESULT_TAG or message.sender not in self._provider_set:
            return
        self._announcements[message.sender] = message.payload
        # Announcements are only stored from providers, and the keys view
        # compares as a set: no two sets built per announcement.
        if self._announcements.keys() == self._provider_set:
            self.finish(combine_outputs(self._announcements))
