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
trusted entity that simply runs the algorithm, with (optionally) a modelled round-trip
to the clients added to its elapsed time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.auctions.base import AllocationAlgorithm, AuctionResult, BidVector, ProviderAsk, UserBid
from repro.common import stable_hash
from repro.core.config import FrameworkConfig
from repro.core.outcome import Outcome
from repro.core.provider_protocol import FrameworkProviderNode, ProviderInput
from repro.net.latency import LatencyModel
from repro.net.network import NetworkStats, SimNetwork
from repro.net.scheduler import Scheduler
from repro.net.serialization import FrozenMap

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
        config: framework configuration (k, parallelism, agreement mode, ...).
        latency_model: network latency model for the simulation (default: zero).
        scheduler: message scheduler (default: earliest-arrival-first).
        seed: seed of the simulated network (latency jitter, per-node RNGs).
        measure_compute: charge measured handler wall-time to the providers' virtual
            clocks — enable for benchmarking, disable for deterministic tests.
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
        if not providers:
            raise ValueError("need at least one provider")
        self.algorithm = algorithm
        self.providers = sorted(providers)
        self.config = config if config is not None else FrameworkConfig()
        self.config.check_quorum(len(self.providers))
        self.config.check_groups(len(self.providers), algorithm)
        self.latency_model = latency_model
        self.scheduler = scheduler
        self.seed = seed
        self.measure_compute = measure_compute
        self.fault_plan = fault_plan

    # -- input construction -------------------------------------------------------
    def consistent_inputs(
        self,
        bids: BidVector,
        asks: Optional[Mapping[str, ProviderAsk]] = None,
    ) -> Dict[str, ProviderInput]:
        """Provider inputs for the honest case: every bidder sent the same bid everywhere.

        Every provider gets maps of its own, so a caller may perturb one
        provider's view without touching the others' (how the tests stage a
        bidder that lied to one provider).

        Args:
            bids: the bid vector as submitted by the users; its provider entries are
                used as the asks unless ``asks`` overrides them.
            asks: optional per-provider asks (e.g. capacities for the standard
                auction) if they are not already part of ``bids``.
        """
        user_bids, ask_map = _received_maps(bids, asks)
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
            measure_compute=self.measure_compute,
            fault_plan=self.fault_plan,
        )
        factory = node_factory if node_factory is not None else self._default_node
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
        outputs = {
            provider_id: network.node(provider_id).output
            if network.node(provider_id).finished
            else None
            for provider_id in self.providers
        }
        outcome = Outcome.from_provider_outputs(
            outputs,
            elapsed_time=stats.elapsed_time,
            messages=stats.messages_delivered,
            bytes_transferred=stats.bytes_delivered,
            degraded=any(
                getattr(network.node(provider_id), "degraded", False)
                for provider_id in self.providers
            ),
        )
        return SimulationReport(outcome=outcome, stats=stats)

    def run_from_bids(
        self,
        bids: BidVector,
        asks: Optional[Mapping[str, ProviderAsk]] = None,
        max_steps: int = 2_000_000,
    ) -> SimulationReport:
        """Simulate the honest case directly from a bid vector.

        Every provider received the same bids, so all of them hold the same
        two :class:`~repro.net.serialization.FrozenMap` objects — and so build
        one agreement batch between them (see
        :meth:`~repro.core.bid_agreement.BidAgreementBlock._my_inputs`).  The
        outcome is that of ``run(consistent_inputs(bids, asks))``.
        """
        user_bids, ask_map = (FrozenMap(m) for m in _received_maps(bids, asks))
        inputs = {
            provider_id: ProviderInput(provider_id, user_bids, ask_map)
            for provider_id in self.providers
        }
        return self.run(inputs, expected_users=[u.user_id for u in bids.users], max_steps=max_steps)

    @staticmethod
    def _default_node(provider_input, algorithm, config, expected_users, providers):
        return FrameworkProviderNode(provider_input, algorithm, config, expected_users, providers)


def _received_maps(
    bids: BidVector, asks: Optional[Mapping[str, ProviderAsk]]
) -> Tuple[Dict[str, UserBid], Dict[str, ProviderAsk]]:
    """What every provider receives in the honest case: ``(user bids, asks)``.

    The asks cover *all* sellers, which may be a superset of the providers
    executing the protocol (the paper runs the protocol on the minimum 2k+1
    providers out of the m sellers in Figure 4).
    """
    ask_map: Dict[str, ProviderAsk] = {p.provider_id: p for p in bids.providers}
    if asks is not None:
        ask_map.update(asks)
    return {bid.user_id: bid for bid in bids.users}, ask_map


class CentralizedAuctioneer:
    """The trusted-auctioneer baseline: run ``A`` directly and time it.

    Args:
        algorithm: the allocation algorithm.
        base_latency: modelled client↔auctioneer round-trip added to the elapsed
            time (0 by default).  The paper's centralised measurements include the
            time for the client to ship the bids and read back the result; set this
            to the corresponding round-trip to mirror that accounting.
        seed: seed for the algorithm's internal randomness.
    """

    def __init__(
        self,
        algorithm: AllocationAlgorithm,
        base_latency: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.algorithm = algorithm
        self.base_latency = base_latency
        self.seed = seed

    def run(self, bids: BidVector) -> SimulationReport:
        """Execute the auction centrally, reporting measured compute time."""
        rng = random.Random(stable_hash(self.seed, "centralized"))
        # The centralised counterpart of measure_compute: a real stopwatch until
        # modelled compute replaces both (ROADMAP item 1).
        start = time.perf_counter()  # repro: noqa[RPA001] centralised stopwatch
        result = self.algorithm.run(bids, rng)
        elapsed = time.perf_counter() - start + self.base_latency  # repro: noqa[RPA001] centralised stopwatch
        outcome = Outcome(
            result=result,
            provider_outputs={"auctioneer": result},
            elapsed_time=elapsed,
            messages=0,
            bytes_transferred=0,
        )
        return SimulationReport(outcome=outcome, stats=None)
