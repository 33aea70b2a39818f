"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import random
from typing import Callable, Dict, Optional, Sequence

import pytest
from hypothesis import settings

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.net.network import SimNetwork
from repro.net.protocol import ProtocolBlock, ProtocolNode
from repro.net.scheduler import Scheduler

# Every property test runs without Hypothesis's wall-clock deadline: an
# example that is slow on a loaded host is not a failure.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


def run_block_network(
    node_ids: Sequence[str],
    block_factory: Callable[[str], ProtocolBlock],
    scheduler: Optional[Scheduler] = None,
    seed: int = 0,
    max_steps: int = 500_000,
) -> Dict[str, object]:
    """Run one protocol block per node on a SimNetwork and return the outputs.

    ``block_factory`` receives the node id and returns the root block for that node.
    Nodes that never finish are reported with the value ``None``.
    """
    network = SimNetwork(scheduler=scheduler, seed=seed)
    ids = list(node_ids)
    for node_id in ids:
        network.add_node(
            ProtocolNode(node_id, ids, "root", lambda nid=node_id: block_factory(nid))
        )
    network.run(max_steps=max_steps)
    return {
        node_id: (network.node(node_id).output if network.node(node_id).finished else None)
        for node_id in ids
    }


@pytest.fixture(autouse=True)
def _fresh_oversubscription_warnings():
    """Reset the warn-once oversubscription dedupe between tests.

    ``resolve_workers`` warns once per distinct ``(requested, cpus)``
    resolution per process; without a reset, whichever test triggers a given
    resolution first would swallow the warning every later test asserts on.
    """
    from repro.scenarios.dispatch import reset_oversubscription_warnings

    reset_oversubscription_warnings()
    yield
    reset_oversubscription_warnings()


@pytest.fixture
def reference_standard():
    """``with reference_standard():`` — the ``standard`` kind builds the oracle.

    Inside the block the registry builds the reference
    :class:`~repro.auctions.standard_auction.StandardAuction` instead of the
    vectorized engine, so a spec-level run can be compared with its oracle.
    """
    from repro.auctions.engine import VectorizedStandardAuction
    from repro.auctions.standard_auction import StandardAuction
    from repro.scenarios.registry import MECHANISMS

    @contextlib.contextmanager
    def swap():
        MECHANISMS.unregister("standard")
        MECHANISMS.register("standard", StandardAuction)
        try:
            yield
        finally:
            MECHANISMS.unregister("standard")
            MECHANISMS.register("standard", VectorizedStandardAuction)

    return swap


@pytest.fixture
def provider_ids():
    return [f"p{j}" for j in range(4)]


@pytest.fixture
def small_standard_bids():
    """A small standard-auction instance: 5 users, 3 providers (zero cost)."""
    users = (
        UserBid("u0", 1.0, 0.6),
        UserBid("u1", 0.9, 0.4),
        UserBid("u2", 1.2, 0.5),
        UserBid("u3", 0.8, 0.7),
        UserBid("u4", 1.1, 0.3),
    )
    providers = (
        ProviderAsk("p0", 0.0, 1.0),
        ProviderAsk("p1", 0.0, 0.8),
        ProviderAsk("p2", 0.0, 0.5),
    )
    return BidVector(users, providers)


@pytest.fixture
def small_double_bids():
    """A small double-auction instance: 6 users, 4 providers with costs."""
    users = (
        UserBid("u0", 1.20, 0.5),
        UserBid("u1", 1.10, 0.6),
        UserBid("u2", 1.00, 0.4),
        UserBid("u3", 0.95, 0.7),
        UserBid("u4", 0.85, 0.3),
        UserBid("u5", 0.80, 0.5),
    )
    providers = (
        ProviderAsk("p0", 0.20, 0.8),
        ProviderAsk("p1", 0.40, 0.7),
        ProviderAsk("p2", 0.60, 0.9),
        ProviderAsk("p3", 0.90, 1.0),
    )
    return BidVector(users, providers)


@pytest.fixture
def rng():
    return random.Random(1234)
