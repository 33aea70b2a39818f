"""The per-provider protocol: bid agreement chained with an allocator (Figure 1).

:class:`FrameworkBlock` is the root protocol block each provider runs: it feeds the
bids the provider received into the bid agreement, hands the agreed vector to the
configured allocator, and outputs the allocator's result — an
:class:`~repro.auctions.base.AuctionResult` or ⊥.  :class:`FrameworkProviderNode`
wraps the block as a ready-to-run :class:`~repro.net.node.Node` for simulations where
bid collection has already happened out of band (the
:mod:`repro.runtime` package provides the fuller version with on-line bid collection
and deadlines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.auctions.base import AllocationAlgorithm, BidVector
from repro.common import ABORT, is_abort
from repro.core.allocator import ParallelAllocatorBlock, SequentialAllocatorBlock
from repro.core.bid_agreement import BidAgreementBlock
from repro.core.config import FrameworkConfig
from repro.core.task_graph import build_standard_auction_graph
from repro.net.protocol import BlockContext, ProtocolBlock, ProtocolNode

__all__ = ["ProviderInput", "FrameworkBlock", "FrameworkProviderNode"]


@dataclass
class ProviderInput:
    """Everything one provider knows when the simulation starts.

    Attributes:
        provider_id: this provider's id.
        received_user_bids: mapping user id -> bid received from that user (``None``
            or garbage for users that sent nothing usable).
        received_provider_asks: mapping provider id -> ask as known to this provider.
            At minimum it contains this provider's own ask; in the double auction it
            also contains the asks the other providers distributed as bidders.
    """

    provider_id: str
    received_user_bids: Dict[str, Any] = field(default_factory=dict)
    received_provider_asks: Dict[str, Any] = field(default_factory=dict)


class FrameworkBlock(ProtocolBlock):
    """Chain the bid agreement and the allocator at one provider."""

    def __init__(
        self,
        name: str,
        provider_input: ProviderInput,
        algorithm: AllocationAlgorithm,
        config: FrameworkConfig,
        expected_users: Sequence[str],
        providers: Sequence[str],
    ) -> None:
        super().__init__(name)
        self.provider_input = provider_input
        self.algorithm = algorithm
        self.config = config
        self.expected_users = sorted(expected_users)
        self.providers = sorted(providers)
        #: True when the bid agreement closed a round on a timeout quorum.
        self.degraded = False
        self._ctx: Optional[BlockContext] = None

    # -- protocol -------------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        self._ctx = ctx
        # The providers *executing* the protocol may be only a subset of the sellers
        # whose asks take part in the auction (the paper's Figure 4 runs the protocol
        # on the minimum 2k+1 providers out of m=8).  Ask labels therefore cover
        # every provider an ask is known for, plus the executors themselves.
        sellers = sorted(
            set(self.providers) | set(self.provider_input.received_provider_asks.keys())
        )
        ctx.spawn(
            "ba",
            BidAgreementBlock(
                "ba",
                expected_users=self.expected_users,
                expected_providers=sellers,
                received_user_bids=self.provider_input.received_user_bids,
                received_provider_asks=self.provider_input.received_provider_asks,
                mode=self.config.agreement_mode,
                round_timeout=self.config.round_timeout,
            ),
            self._on_agreement_done,
        )

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        return None  # all traffic flows through the child blocks

    # -- chaining -------------------------------------------------------------------
    def _on_agreement_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        if is_abort(block.result):
            self.complete(ABORT)
            return
        bids: BidVector = block.result
        assert self._ctx is not None
        if self.config.runs_task_graph(self.algorithm):
            graph = build_standard_auction_graph(
                self.algorithm,
                bids,
                self.providers,
                self.config.k,
                self.config.num_groups,
            )
            allocator: ProtocolBlock = ParallelAllocatorBlock(
                "alloc",
                bids,
                graph,
                use_common_coin=self.config.use_common_coin,
                round_timeout=self.config.round_timeout,
            )
        else:
            allocator = SequentialAllocatorBlock(
                "alloc",
                bids,
                self.algorithm,
                use_common_coin=self.config.use_common_coin,
                round_timeout=self.config.round_timeout,
            )
        self._ctx.spawn("alloc", allocator, self._on_allocator_done)

    def _on_allocator_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        self.complete(block.result)


class FrameworkProviderNode(ProtocolNode):
    """A provider node that runs the framework once, with pre-collected bids."""

    def __init__(
        self,
        provider_input: ProviderInput,
        algorithm: AllocationAlgorithm,
        config: FrameworkConfig,
        expected_users: Sequence[str],
        providers: Sequence[str],
    ) -> None:
        super().__init__(
            node_id=provider_input.provider_id,
            participants=sorted(providers),
            root_name="framework",
            root_factory=lambda: FrameworkBlock(
                "framework",
                provider_input,
                algorithm,
                config,
                expected_users,
                providers,
            ),
        )
