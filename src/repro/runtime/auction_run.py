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
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.auctions.base import AllocationAlgorithm, BidVector
from repro.auctions.engine import DEFAULT_ENGINE, resolve_engine
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
        engine: the execution engine for standard auctions — defaults to the
            library default (:data:`~repro.auctions.engine.DEFAULT_ENGINE`,
            the vectorized engine).  Pass ``"reference"`` to force the
            reference implementation, or ``None`` to run ``algorithm``
            exactly as given (see
            :func:`repro.auctions.engine.resolve_engine`; both engines are
            seed-for-seed bit-identical, so the choice only affects speed).
            A mechanism this run created by re-targeting is closed at the
            end of :meth:`execute`; pre-resolved mechanisms stay untouched.
        latency_model / scheduler / seed / measure_compute: simulation parameters,
            passed through to :class:`~repro.net.network.SimNetwork`.
    """

    def __init__(
        self,
        bids: BidVector,
        algorithm: AllocationAlgorithm,
        config: Optional[FrameworkConfig] = None,
        bidder_strategies: Optional[Mapping[str, BidderStrategy]] = None,
        deadline: float = 1.0,
        engine: Optional[str] = DEFAULT_ENGINE,
        latency_model: Optional[LatencyModel] = None,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        measure_compute: bool = False,
        wait_for_results: bool = True,
    ) -> None:
        self.bids = bids
        self.engine = engine
        self.algorithm = resolve_engine(algorithm, engine) if engine is not None else algorithm
        # If resolving created a fresh mechanism, this run owns whatever resources
        # it holds and releases them after execute().
        self._owns_algorithm = self.algorithm is not algorithm
        self.config = config if config is not None else FrameworkConfig()
        self.config.check_quorum(len(bids.providers))
        self.config.check_groups(len(bids.providers), self.algorithm)
        self.bidder_strategies = dict(bidder_strategies or {})
        self.deadline = deadline
        self.latency_model = latency_model
        self.scheduler = scheduler
        self.seed = seed
        self.measure_compute = measure_compute
        self.wait_for_results = wait_for_results

    def execute(self, max_steps: int = 2_000_000) -> AuctionRunResult:
        """Run the round and return the combined outcome plus per-bidder observations."""
        try:
            return self._execute(max_steps)
        finally:
            # Duck-typed: no stock engine owns resources today.  Pre-resolved
            # mechanisms stay open — their creator closes them.
            if self._owns_algorithm:
                close = getattr(self.algorithm, "close", None)
                if close is not None:
                    close()

    def _execute(self, max_steps: int) -> AuctionRunResult:
        provider_ids = self.bids.provider_ids
        user_ids = self.bids.user_ids
        network = SimNetwork(
            latency_model=self.latency_model,
            scheduler=self.scheduler,
            seed=self.seed,
            measure_compute=self.measure_compute,
        )
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
                    announce_result=self.wait_for_results,
                )
            )
        for user in self.bids.users:
            network.add_node(
                BidderNode(
                    true_bid=user,
                    providers=provider_ids,
                    strategy=self.bidder_strategies.get(user.user_id),
                    wait_for_result=self.wait_for_results,
                )
            )
        stats = network.run(max_steps=max_steps)
        provider_outputs = {
            pid: network.node(pid).output if network.node(pid).finished else None
            for pid in provider_ids
        }
        outcome = Outcome.from_provider_outputs(
            provider_outputs,
            elapsed_time=stats.elapsed_time,
            messages=stats.messages_delivered,
            bytes_transferred=stats.bytes_delivered,
            degraded=any(
                getattr(network.node(pid), "degraded", False) for pid in provider_ids
            ),
        )
        observations = {
            uid: network.node(uid).output if network.node(uid).finished else None
            for uid in user_ids
        }
        return AuctionRunResult(outcome=outcome, bidder_observations=observations, stats=stats)
