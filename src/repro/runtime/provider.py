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
4. announce the output to all bidders and finish.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.auctions.base import AllocationAlgorithm, ProviderAsk
from repro.core.config import FrameworkConfig
from repro.core.provider_protocol import FrameworkBlock, ProviderInput
from repro.net.message import Message
from repro.net.node import Node, NodeContext
from repro.net.protocol import BlockHost, ProtocolBlock
from repro.runtime.bidder import BID_TAG, RESULT_TAG

__all__ = ["CollectingProviderNode", "ASK_TAG"]

#: Tag used by providers to distribute their own asks to their peers.
ASK_TAG = "announce_ask"


class CollectingProviderNode(Node):
    """A provider that collects bids until a deadline, then simulates the auctioneer.

    Args:
        provider_id: this provider's id.
        own_ask: this provider's ask (unit cost and capacity).
        algorithm: the allocation algorithm to simulate.
        config: framework configuration.
        expected_users: user ids whose bids are expected.
        providers: all provider ids (including this one).
        deadline: virtual-time seconds to wait for bids before starting the
            simulation with whatever arrived.
        announce_result: if True, send the output to every bidder when finished.
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
        announce_result: bool = True,
    ) -> None:
        super().__init__(provider_id)
        self.own_ask = own_ask
        self.algorithm = algorithm
        self.config = config
        self.expected_users = sorted(expected_users)
        self.providers = sorted(providers)
        self._expected_user_set = frozenset(self.expected_users)
        self._provider_set = frozenset(self.providers)
        self.deadline = deadline
        self.announce_result = announce_result
        self._received_bids: Dict[str, Any] = {}
        self._received_asks: Dict[str, Any] = {provider_id: own_ask}
        self._host: Optional[BlockHost] = None
        self._current_ctx: Optional[NodeContext] = None
        self._protocol_started = False
        #: True when the framework block closed a round by timeout quorum.
        self.degraded = False

    # -- Node interface -------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        self._current_ctx = ctx
        self.degraded = False  # a (re)start begins a fresh, fully-quorate run
        # The host routes from the first delivery on: protocol traffic from a peer
        # that started first is buffered until ``framework`` activates here.
        self._host = BlockHost(lambda: self._current_ctx, self.providers)
        ctx.broadcast(self.providers, self.own_ask, tag=ASK_TAG)
        ctx.set_timer(self.deadline, "bid_deadline")

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        self._current_ctx = ctx
        if self._host is not None and self._host.dispatch(ctx, message):
            return
        if message.tag == BID_TAG:
            self._on_bid(message)
        elif message.tag == ASK_TAG:
            self._on_ask(message)
        elif message.is_timer() and message.tag.endswith("bid_deadline"):
            self._start_protocol()

    # -- collection -------------------------------------------------------------------
    def _on_bid(self, message: Message) -> None:
        if message.sender in self._received_bids or self._protocol_started:
            # Late or duplicate bids are ignored; the agreed vector will carry a
            # neutral bid if nothing usable arrived in time.
            return
        if message.sender not in self._expected_user_set:
            return
        self._received_bids[message.sender] = message.payload
        self._maybe_start_early()

    def _on_ask(self, message: Message) -> None:
        if message.sender not in self._provider_set or self._protocol_started:
            return
        self._received_asks.setdefault(message.sender, message.payload)
        self._maybe_start_early()

    def _maybe_start_early(self) -> None:
        """Start as soon as every expected bid and ask has arrived (before the deadline)."""
        if self._protocol_started:
            return
        # Bids are only ever stored from expected users, so equal counts is
        # equal sets — checked on every bid and ask, where building both sets
        # was quadratic in the number of bidders.
        if (
            len(self._received_bids) == len(self._expected_user_set)
            and self._received_asks.keys() == self._provider_set
        ):
            self._start_protocol()

    # -- the framework ------------------------------------------------------------------
    def _start_protocol(self) -> None:
        if self._protocol_started:
            return
        self._protocol_started = True
        provider_input = ProviderInput(
            provider_id=self.node_id,
            received_user_bids={
                uid: self._received_bids.get(uid) for uid in self.expected_users
            },
            received_provider_asks=dict(self._received_asks),
        )
        assert self._host is not None
        self._host.activate(
            "framework",
            FrameworkBlock(
                "framework",
                provider_input,
                self.algorithm,
                self.config,
                self.expected_users,
                self.providers,
            ),
            self._on_framework_done,
        )

    def _on_framework_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        if self.announce_result and self._current_ctx is not None:
            # One broadcast (rather than a send loop) so the simulator measures
            # the result payload's wire size once for all users.
            self._current_ctx.broadcast(self.expected_users, block.result, tag=RESULT_TAG)
        self.finish(block.result)
