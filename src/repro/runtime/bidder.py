"""Bidder nodes: users (and, in double auctions, providers) that submit bids.

A bidder's behaviour is captured by a :class:`BidderStrategy`, which decides what to
send to each provider.  The honest strategy sends the true valuation everywhere;
adversarial strategies (different bids to different providers, garbage, silence) live
in :mod:`repro.adversary.bidder_behaviors` and implement the same interface.

After submitting, a bidder waits for the result announcements of the providers and
finishes with the outcome it can observe: the (x, p) pair if all providers announced
the same pair, and ⊥ otherwise — mirroring Definition 1 from the bidder's viewpoint.
Announcements are digest replies (PBFT's read optimisation, Castro & Liskov 1999,
§5.1): the lowest-id provider sends the pair and every other provider its
:class:`~repro.net.serialization.Digest`, so the pair crosses the wire ``n`` times
rather than ``m·n`` (:func:`observed_result` reads them).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.auctions.base import AuctionResult, UserBid
from repro.common import ABORT, AbortType
from repro.net.message import Message
from repro.net.node import Node, NodeContext
from repro.net.serialization import Digest, estimate_size

__all__ = [
    "BidderStrategy", "TruthfulBidder", "BidderNode",
    "BID_TAG", "RESULT_TAG", "bid_bytes", "bid_messages", "observed_result",
    "result_bytes", "result_messages",
]

#: Tag used for bid submissions from bidders to providers.
BID_TAG = "submit_bid"
#: Tag used by providers to announce their output back to the bidders.
RESULT_TAG = "announce_result"


def bid_messages(n: int, m: int) -> int:
    """Bids of an honest round (§3.2): each of ``n`` bidders to all ``m`` providers."""
    return n * m


def bid_bytes(bids: Sequence[UserBid], m: int) -> int:
    """Bytes of :func:`bid_messages`: each bid, with its tag, to all ``m`` providers."""
    return m * sum(estimate_size((BID_TAG, bid)) for bid in bids)


def result_messages(n: int, m: int) -> int:
    """Announcements of an honest round (Definition 1): each provider to every bidder."""
    return m * n


def result_bytes(result: AuctionResult, n: int, m: int) -> int:
    """Bytes of :func:`result_messages`: ``n·|(tag, result)| + (m−1)·n·|(tag, digest)|``.

    One provider announces ``result`` and the other ``m − 1`` its digest; a
    digest announcement is 59 bytes, whatever ``result``.
    """
    value, digest = (estimate_size((RESULT_TAG, v)) for v in (result, Digest(result)))
    return n * (value + (m - 1) * digest)


def observed_result(announcements: Iterable[Any]) -> Union[AuctionResult, AbortType]:
    """What a bidder observes from every provider's announcement (Definition 1).

    The pair ``v`` if every announcement that is not a :class:`Digest` is
    ``v``, every ``Digest`` is ``Digest(v)`` and at least one is not a
    ``Digest``; ⊥ otherwise.  A digest is compared, never opened: one pass,
    and one ``Digest`` built.
    """
    value = digest = None
    for announced in announcements:
        if type(announced) is Digest:
            if digest is None:
                digest = announced
            elif announced != digest:
                return ABORT
        elif not isinstance(announced, AuctionResult):
            return ABORT
        elif value is None:
            value = announced
        elif announced != value:
            return ABORT
    if value is None or (digest is not None and digest != Digest(value)):
        return ABORT
    return value


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
            self.finish(observed_result(self._announcements.values()))
