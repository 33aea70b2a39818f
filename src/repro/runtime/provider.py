"""Provider nodes with on-line bid collection and deadlines.

In a real deployment (and in the paper's prototype), providers wait for bids until a
deadline; bidders that did not submit a valid bid by then are represented by the
special value ⊥, which the bid agreement later turns into a neutral bid.  The
:class:`CollectingProviderNode` implements that behaviour on top of the
:class:`~repro.core.provider_protocol.FrameworkBlock`:

1. announce the provider's own ask to every other provider (providers are bidders in
   double auctions, and their capacity must be common knowledge in standard ones);
2. collect user bids and provider asks until either everything expected arrived or
   the deadline fires;
3. run the framework block (bid agreement + allocator);
4. announce the output to all bidders and finish.  The lowest-id provider
   announces the output itself and every other provider its
   :class:`~repro.net.serialization.Digest` (digest replies): a bidder needs
   the pair once, and from everyone else only the evidence that they agree.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.auctions.base import AllocationAlgorithm, ProviderAsk
from repro.core.config import FrameworkConfig
from repro.core.provider_protocol import FrameworkBlock, ProviderInput
from repro.net.message import Message
from repro.net.node import NodeContext
from repro.net.protocol import ProtocolBlock, ProtocolNode
from repro.net.serialization import digest_or_self, estimate_size
from repro.runtime.bidder import BID_TAG, RESULT_TAG

__all__ = ["CollectingProviderNode", "ASK_TAG", "ask_bytes", "ask_messages"]

#: Tag used by providers to distribute their own asks to their peers.
ASK_TAG = "announce_ask"


def ask_messages(m: int) -> int:
    """Asks of an honest round (§3.1): each of ``m`` providers to its peers."""
    return m * (m - 1)


def ask_bytes(asks: Sequence[ProviderAsk]) -> int:
    """Bytes of :func:`ask_messages`: each ask, with its tag, to the other providers."""
    return (len(asks) - 1) * sum(estimate_size((ASK_TAG, ask)) for ask in asks)


class CollectingProviderNode(ProtocolNode):
    """A provider that collects bids until a deadline, then simulates the auctioneer.

    A :class:`~repro.net.protocol.ProtocolNode` whose root ``framework`` block
    activates once collection ends rather than at start: bids, asks and the
    deadline timer arrive through :meth:`on_other_message`, and protocol
    traffic from a peer that started first is buffered by the host until then.

    Args:
        provider_id: this provider's id.
        own_ask: this provider's ask (unit cost and capacity).
        algorithm: the allocation algorithm to simulate.
        config: framework configuration.
        expected_users: user ids whose bids are expected.
        providers: all provider ids (including this one).
        deadline: virtual-time seconds to wait for bids before starting the
            simulation with whatever arrived.
    """

    def __init__(
        self,
        provider_id: str,
        own_ask: ProviderAsk,
        algorithm: AllocationAlgorithm,
        config: FrameworkConfig,
        expected_users: Sequence[str],
        providers: Sequence[str],
        deadline: float = 1.0,
    ) -> None:
        providers = sorted(providers)
        super().__init__(provider_id, providers, "framework", self._framework_block)
        self.own_ask = own_ask
        self.algorithm = algorithm
        self.config = config
        self.expected_users = sorted(expected_users)
        self.providers = providers
        self._expected_user_set = frozenset(self.expected_users)
        self._provider_set = frozenset(self.providers)
        self.deadline = deadline
        self._received_bids: Dict[str, Any] = {}
        self._received_asks: Dict[str, Any] = {provider_id: own_ask}

    # -- Node interface -------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        self._start_host(ctx)
        ctx.broadcast(self.providers, self.own_ask, tag=ASK_TAG)
        ctx.set_timer(self.deadline, "bid_deadline")

    def on_other_message(self, ctx: NodeContext, message: Message) -> None:
        if message.tag == BID_TAG:
            self._on_bid(message)
        elif message.tag == ASK_TAG:
            self._on_ask(message)
        elif message.is_timer() and message.tag.endswith("bid_deadline"):
            if self._root is None:
                self._activate_root()

    # -- collection -------------------------------------------------------------------
    def _on_bid(self, message: Message) -> None:
        if message.sender in self._received_bids or self._root is not None:
            # Late or duplicate bids are ignored; the agreed vector will carry a
            # neutral bid if nothing usable arrived in time.
            return
        if message.sender not in self._expected_user_set:
            return
        self._received_bids[message.sender] = message.payload
        self._maybe_start_early()

    def _on_ask(self, message: Message) -> None:
        if message.sender not in self._provider_set or self._root is not None:
            return
        self._received_asks.setdefault(message.sender, message.payload)
        self._maybe_start_early()

    def _maybe_start_early(self) -> None:
        """Start as soon as every expected bid and ask has arrived (before the deadline)."""
        # Bids are only ever stored from expected users, so equal counts is
        # equal sets — checked on every bid and ask, where building both sets
        # was quadratic in the number of bidders.
        if (
            len(self._received_bids) == len(self._expected_user_set)
            and self._received_asks.keys() == self._provider_set
        ):
            self._activate_root()

    # -- the framework ------------------------------------------------------------------
    def _framework_block(self) -> FrameworkBlock:
        """The root block, over whatever bids and asks arrived by now."""
        provider_input = ProviderInput(
            provider_id=self.node_id,
            received_user_bids={
                uid: self._received_bids.get(uid) for uid in self.expected_users
            },
            received_provider_asks=dict(self._received_asks),
        )
        return FrameworkBlock(
            "framework",
            provider_input,
            self.algorithm,
            self.config,
            self.expected_users,
            self.providers,
        )

    def _on_root_done(self, block: ProtocolBlock) -> None:
        assert self._current_ctx is not None
        # Digest replies: the lowest-id provider announces the result, every
        # other provider its digest (⊥, smaller than a digest, as itself).  The
        # sender is fixed so that each provider still makes one broadcast.
        # One broadcast (rather than a send loop) so the simulator measures
        # the announcement's wire size once for all users.
        announcement = block.result
        if self.node_id != self.providers[0]:
            announcement = digest_or_self(announcement)
        self._current_ctx.broadcast(self.expected_users, announcement, tag=RESULT_TAG)
        super()._on_root_done(block)
