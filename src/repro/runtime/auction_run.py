"""Full auction round orchestration (Figure 1: submit → simulate → collect).

:class:`AuctionRun` wires a complete round on a simulated network: one
:class:`~repro.runtime.bidder.BidderNode` per user (with a pluggable, possibly
adversarial strategy), one :class:`~repro.runtime.provider.CollectingProviderNode` per
provider, a deadline for bid collection, and the distributed simulation of the
auctioneer in between.  The result records both the providers' outcome (Definition 1)
and what each bidder observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.auctions.base import AllocationAlgorithm, BidVector
from repro.core.config import FrameworkConfig
from repro.core.outcome import Outcome
from repro.net.latency import LatencyModel
from repro.net.network import NetworkStats, SimNetwork
from repro.net.scheduler import Scheduler
from repro.runtime.bidder import BidderNode, BidderStrategy
from repro.runtime.provider import CollectingProviderNode

__all__ = ["AuctionRun", "AuctionRunResult"]


@dataclass
class AuctionRunResult:
    """Everything observable at the end of a full round."""

    outcome: Outcome
    bidder_observations: Dict[str, Any] = field(default_factory=dict)
    stats: Optional[NetworkStats] = None

    @property
    def aborted(self) -> bool:
        return self.outcome.aborted


class AuctionRun:
    """Build and run one complete auction round on a simulated network.

    Args:
        bids: the *true* valuations of users and the asks/capacities of providers.
        algorithm: the allocation algorithm the providers simulate.
        config: framework configuration.
        bidder_strategies: optional per-user strategy overrides (defaults: truthful).
        deadline: bid-collection deadline at the providers, in virtual seconds.
        engine: retired; only ``None``.  ``algorithm`` runs exactly as given.
        latency_model / scheduler / seed: simulation parameters,
            passed through to :class:`~repro.net.network.SimNetwork`.
    """

    def __init__(
        self,
        bids: BidVector,
        algorithm: AllocationAlgorithm,
        config: Optional[FrameworkConfig] = None,
        bidder_strategies: Optional[Mapping[str, BidderStrategy]] = None,
        deadline: float = 1.0,
        engine: None = None,
        latency_model: Optional[LatencyModel] = None,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
    ) -> None:
        if engine is not None:
            raise ValueError(
                "engine: retired after commit 1b436d7: one engine; the reference class "
                f"is the test oracle; only None is accepted, got {engine!r}"
            )
        self.bids = bids
        self.algorithm = algorithm
        self.config = config if config is not None else FrameworkConfig()
        self.config.check(len(bids.providers), algorithm)
        self.bidder_strategies = dict(bidder_strategies or {})
        self.deadline = deadline
        self.latency_model = latency_model
        self.scheduler = scheduler
        self.seed = seed

    def execute(self, max_steps: int = 2_000_000) -> AuctionRunResult:
        """Run the round and return the combined outcome plus per-bidder observations."""
        provider_ids = self.bids.provider_ids
        user_ids = self.bids.user_ids
        network = SimNetwork(
            latency_model=self.latency_model,
            scheduler=self.scheduler,
            seed=self.seed,
        )
        try:
            for ask in self.bids.providers:
                network.add_node(
                    CollectingProviderNode(
                        provider_id=ask.provider_id,
                        own_ask=ask,
                        algorithm=self.algorithm,
                        config=self.config,
                        expected_users=user_ids,
                        providers=provider_ids,
                        deadline=self.deadline,
                    )
                )
            for user in self.bids.users:
                network.add_node(
                    BidderNode(
                        true_bid=user,
                        providers=provider_ids,
                        strategy=self.bidder_strategies.get(user.user_id),
                    )
                )
            stats = network.run(max_steps=max_steps)
            observations = {
                uid: network.node(uid).output if network.node(uid).finished else None
                for uid in user_ids
            }
            return AuctionRunResult(
                Outcome.from_network(network, provider_ids), observations, stats
            )
        finally:
            # The round ends here, whether it quiesced or raised (see
            # SimNetwork.close).
            network.close()
