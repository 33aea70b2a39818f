"""High-level entry points: distributed and centralised auctioneers.

:class:`DistributedAuctioneer` is the one-call API of the reproduction: give it the
allocation algorithm, the provider identities and a
:class:`~repro.core.config.FrameworkConfig`, then call :meth:`DistributedAuctioneer.run`
with the bids each provider received.  It builds one
:class:`~repro.core.provider_protocol.FrameworkProviderNode` per provider, simulates
the whole protocol on a :class:`~repro.net.network.SimNetwork`, combines the
per-provider outputs into the outcome of Definition 1, and reports timing and traffic
statistics.

:class:`CentralizedAuctioneer` is the baseline of the paper's evaluation: a single
trusted entity that simply runs the algorithm, in no modelled time (ROADMAP item 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.auctions.base import AllocationAlgorithm, AuctionResult, BidVector
from repro.common import stable_hash
from repro.core.config import FrameworkConfig
from repro.core.outcome import Outcome
from repro.core.provider_protocol import FrameworkProviderNode, ProviderInput
from repro.net.latency import LatencyModel
from repro.net.network import NetworkStats, SimNetwork
from repro.net.scheduler import Scheduler

__all__ = ["DistributedAuctioneer", "CentralizedAuctioneer", "SimulationReport"]


@dataclass
class SimulationReport:
    """Outcome of a simulated round plus the network statistics behind it."""

    outcome: Outcome
    stats: Optional[NetworkStats] = None

    @property
    def aborted(self) -> bool:
        return self.outcome.aborted

    @property
    def result(self) -> AuctionResult:
        return self.outcome.auction_result

    @property
    def elapsed_time(self) -> float:
        return self.outcome.elapsed_time


class DistributedAuctioneer:
    """Simulate the auctioneer with a decentralized set of providers.

    Args:
        algorithm: the allocation algorithm ``A`` to simulate.
        providers: ids of the providers that execute the protocol.
        config: framework configuration (k, parallelism, round timeout, ...).
        latency_model: network latency model for the simulation (default: zero).
        scheduler: message scheduler (default: earliest-arrival-first).
        seed: seed of the simulated network (latency jitter, per-node RNGs).
        measure_compute: retired; only ``False`` (what every round now does:
            compute is modelled, never measured) is accepted.
        fault_plan: optional :class:`~repro.net.faults.FaultPlan` armed on the
            simulated network — the chaos audit injects message loss, crashes
            and partitions through it.  ``None`` (the default) is the paper's
            reliable substrate.
    """

    def __init__(
        self,
        algorithm: AllocationAlgorithm,
        providers: Sequence[str],
        config: Optional[FrameworkConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        measure_compute: bool = False,
        fault_plan=None,
    ) -> None:
        if measure_compute is not False:
            raise ValueError(
                "measure_compute: retired after commit e3eec74: compute is modelled "
                "(ROADMAP item 1); only False is accepted"
            )
        if not providers:
            raise ValueError("need at least one provider")
        self.algorithm = algorithm
        self.providers = sorted(providers)
        self.config = config if config is not None else FrameworkConfig()
        self.config.check(len(self.providers), algorithm)
        self.latency_model = latency_model
        self.scheduler = scheduler
        self.seed = seed
        self.fault_plan = fault_plan

    # -- input construction -------------------------------------------------------
    def consistent_inputs(self, bids: BidVector) -> Dict[str, ProviderInput]:
        """Provider inputs for the honest case: every bidder sent the same bid everywhere.

        Every provider gets maps of its own, so a caller may perturb one
        provider's view without touching the others' (how the tests stage a
        bidder that lied to one provider).

        Args:
            bids: the bid vector as submitted by the users and the providers.
                The asks cover *all* its sellers, which may be a superset of
                the providers executing the protocol (the paper runs the
                protocol on the minimum 2k+1 providers out of the m sellers in
                Figure 4).
        """
        user_bids, ask_map = bids.by_id()
        return {
            provider_id: ProviderInput(provider_id, dict(user_bids), dict(ask_map))
            for provider_id in self.providers
        }

    # -- execution ------------------------------------------------------------------
    def run(
        self,
        provider_inputs: Mapping[str, ProviderInput],
        expected_users: Optional[Sequence[str]] = None,
        node_factory=None,
        max_steps: int = 2_000_000,
    ) -> SimulationReport:
        """Simulate one auction round.

        Args:
            provider_inputs: what each provider received (one entry per provider).
            expected_users: the user ids every provider runs agreement over; inferred
                from the union of received bids when omitted.
            node_factory: optional callable ``(provider_input, ...) -> Node`` used to
                substitute deviating provider implementations (the adversary package
                uses this to inject coalition behaviours).
            max_steps: safety cap on delivered messages.
        """
        if set(provider_inputs) != set(self.providers):
            raise ValueError(
                "provider_inputs must contain exactly one entry per configured provider"
            )
        if expected_users is None:
            seen = set()
            for provider_input in provider_inputs.values():
                seen.update(provider_input.received_user_bids.keys())
            expected_users = sorted(seen)

        network = SimNetwork(
            latency_model=self.latency_model,
            scheduler=self.scheduler,
            seed=self.seed,
            fault_plan=self.fault_plan,
        )
        factory = node_factory if node_factory is not None else self._default_node
        try:
            for provider_id in self.providers:
                node = factory(
                    provider_inputs[provider_id],
                    self.algorithm,
                    self.config,
                    expected_users,
                    self.providers,
                )
                network.add_node(node)
            stats = network.run(max_steps=max_steps)
            return SimulationReport(Outcome.from_network(network, self.providers), stats)
        finally:
            # The round ends here, whether it quiesced or raised: nothing of it
            # is left for the cyclic collector (see SimNetwork.close).
            network.close()

    def run_from_bids(self, bids: BidVector, max_steps: int = 2_000_000) -> SimulationReport:
        """Simulate the honest case directly from a bid vector.

        Every provider received the same bids, so all of them hold the same
        two :class:`~repro.common.FrozenMap` objects — and so build one
        agreement batch between them.  The maps are the vector's own index
        (:meth:`~repro.auctions.base.BidVector.by_id`), so every round run from
        the same vector *object* shares the batch, the agreed vector and
        ``A``'s results as well.  The outcome is that of
        ``run(consistent_inputs(bids))``.
        """
        user_bids, ask_map = bids.by_id()
        inputs = {
            provider_id: ProviderInput(provider_id, user_bids, ask_map)
            for provider_id in self.providers
        }
        return self.run(inputs, expected_users=[u.user_id for u in bids.users], max_steps=max_steps)

    @staticmethod
    def _default_node(provider_input, algorithm, config, expected_users, providers):
        return FrameworkProviderNode(provider_input, algorithm, config, expected_users, providers)


class CentralizedAuctioneer:
    """The trusted-auctioneer baseline: run ``A`` directly.

    Its ``elapsed_time`` is 0.0: compute is modelled, and no mechanism
    declares its work yet (ROADMAP item 1).

    Args:
        algorithm: the allocation algorithm.
        seed: seed for the algorithm's internal randomness.
    """

    def __init__(self, algorithm: AllocationAlgorithm, seed: int = 0) -> None:
        self.algorithm = algorithm
        self.seed = seed

    def run(self, bids: BidVector) -> SimulationReport:
        """Execute the auction centrally."""
        result = self.algorithm.run(bids, random.Random(stable_hash(self.seed, "centralized")))
        outcome = Outcome(
            result=result,
            provider_outputs={"auctioneer": result},
            elapsed_time=0.0,
            messages=0,
            bytes_transferred=0,
        )
        return SimulationReport(outcome=outcome, stats=None)
