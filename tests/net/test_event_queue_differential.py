"""Differential proof: the event-queue core is bit-identical to the seed core.

Every combination of (scheduler, seed, latency model) drives the same node
program through the production :class:`SimNetwork` (heap-based queue protocol)
and through :class:`tests.net.seed_reference.SeedSimNetwork` (faithful port of
the list-based seed core), then compares:

* the full delivery trace — msg_id, endpoints, tag, send/arrival times, wire
  size, and the recipient's virtual clock after delivery, in delivery order;
* the final :class:`NetworkStats` (all fields, exact float equality);
* node outputs, unfinished nodes and leftover in-flight messages.

The workload is deliberately adversarial for the queue rewrite: staggered node
finishes (messages parked for recipients that retire mid-run), a node that
finishes in ``on_start`` (pushes to an already-retired recipient), nodes that
never finish (quiescence drain with drops), timers, node-RNG-driven fan-out
(broadcast amortisation path), and payload sizes that feed a bandwidth latency
model.  Jittered latency models additionally lock the RNG draw order per send.
"""

from __future__ import annotations

import pytest

from repro.net.latency import (
    BandwidthLatencyModel,
    ConstantLatencyModel,
    UniformLatencyModel,
)
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.node import Node, NodeContext
from repro.net.scheduler import (
    AdversarialScheduler,
    FairScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)

from tests.net.seed_reference import (
    SeedAdversarialScheduler,
    SeedFairScheduler,
    SeedRandomScheduler,
    SeedRoundRobinScheduler,
    SeedSimNetwork,
)

NUM_NODES = 10


def _budget(i: int):
    if i == 0:
        return 0  # finishes during on_start: pushes to it hit a retired recipient
    if i % 3 == 1:
        return None  # never finishes: forces the quiescence drain path
    return 4 + i


class ChatterNode(Node):
    """Deterministic random-traffic node; records every delivery it sees."""

    def __init__(self, node_id: str, budget, trace: list) -> None:
        super().__init__(node_id)
        self.budget = budget
        self.trace = trace
        self.timers_left = 2
        self.received = 0

    def _peers(self, ctx: NodeContext):
        return [p for p in ctx.peers if p != self.node_id]

    def on_start(self, ctx: NodeContext) -> None:
        if self.budget == 0:
            self.finish(f"{self.node_id}:instant")
            return
        index = int(self.node_id[1:])
        peers = self._peers(ctx)
        for k in (1, 2):
            target = peers[(index + k) % len(peers)]
            ctx.send(target, "g" * (1 + ctx.rng.randrange(60)), tag="greet")
        ctx.set_timer(0.01 + 0.001 * index, "tick")

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        self.trace.append(
            (
                message.msg_id,
                message.sender,
                message.recipient,
                message.tag,
                message.send_time,
                message.arrival_time,
                message.size_bytes,
                ctx.now(),
            )
        )
        self.received += 1
        rng = ctx.rng
        if message.is_timer():
            if self.timers_left > 0:
                self.timers_left -= 1
                peers = self._peers(ctx)
                target = peers[rng.randrange(len(peers))]
                ctx.send(target, "t" * (1 + rng.randrange(40)), tag="timer-fanout")
                if self.timers_left:
                    ctx.set_timer(0.005 * (1 + rng.random()), "tick")
        else:
            if rng.random() < 0.5:
                ctx.send(
                    message.sender, "r" * (1 + rng.randrange(120)), tag="reply"
                )
            if rng.random() < 0.15:
                ctx.broadcast(self._peers(ctx)[:2], "b" * (1 + rng.randrange(30)), tag="gossip")
            if rng.random() < 0.2:
                ctx.charge(0.0003 * rng.random())
        if self.budget is not None and not self.finished:
            self.budget -= 1
            if self.budget <= 0:
                self.finish((self.node_id, self.received))


SCHEDULERS = {
    "fair": (FairScheduler, SeedFairScheduler),
    "round_robin": (RoundRobinScheduler, SeedRoundRobinScheduler),
    "round_robin_preset": (
        lambda: RoundRobinScheduler(order=["n3", "n1", "n9"]),
        lambda: SeedRoundRobinScheduler(order=["n3", "n1", "n9"]),
    ),
    "random": (RandomScheduler, SeedRandomScheduler),
    "adversarial": (
        lambda: AdversarialScheduler(targets=frozenset({"n1", "n4"}), max_deferrals=3),
        lambda: SeedAdversarialScheduler(targets=frozenset({"n1", "n4"}), max_deferrals=3),
    ),
    "adversarial_tight": (
        lambda: AdversarialScheduler(targets=frozenset({"n2", "n7"}), max_deferrals=1),
        lambda: SeedAdversarialScheduler(targets=frozenset({"n2", "n7"}), max_deferrals=1),
    ),
}

LATENCIES = {
    "constant": lambda: ConstantLatencyModel(0.003),
    "uniform_jitter": lambda: UniformLatencyModel(0.001, 0.01),
    "bandwidth": lambda: BandwidthLatencyModel(
        base=0.001, bandwidth_bytes_per_s=1e5, jitter=0.0005
    ),
}


def _run(network) -> dict:
    trace: list = []
    network.add_nodes(
        [ChatterNode(f"n{i}", _budget(i), trace) for i in range(NUM_NODES)]
    )
    stats = network.run(max_steps=50_000)
    assert len(trace) == stats.messages_delivered
    return {
        "trace": trace,
        "stats": stats,
        "outputs": {nid: network.node(nid).output for nid in network.node_ids},
        "unfinished": network.unfinished_nodes(),
        "in_flight": sorted(m.msg_id for m in network.in_flight),
    }


@pytest.mark.parametrize("latency_name", sorted(LATENCIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_queue_core_bit_identical_to_seed_core(scheduler_name, seed, latency_name):
    new_factory, seed_factory = SCHEDULERS[scheduler_name]
    latency_factory = LATENCIES[latency_name]

    new_result = _run(
        SimNetwork(latency_model=latency_factory(), scheduler=new_factory(), seed=seed)
    )
    seed_result = _run(
        SeedSimNetwork(
            latency_model=latency_factory(), scheduler=seed_factory(), seed=seed
        )
    )

    assert new_result["trace"] == seed_result["trace"]
    assert new_result["stats"] == seed_result["stats"]
    assert new_result["outputs"] == seed_result["outputs"]
    assert new_result["unfinished"] == seed_result["unfinished"]
    assert new_result["in_flight"] == seed_result["in_flight"]


def test_workload_exercises_the_interesting_paths():
    """Guard that the differential scenario actually hits parking and drains."""
    result = _run(
        SimNetwork(latency_model=ConstantLatencyModel(0.003), scheduler=FairScheduler())
    )
    stats = result["stats"]
    assert stats.messages_delivered > 50
    assert stats.messages_dropped > 0  # traffic to finished nodes got drained
    assert result["unfinished"]  # some nodes never finish
    assert result["outputs"]["n0"] == "n0:instant"  # retired before any traffic
