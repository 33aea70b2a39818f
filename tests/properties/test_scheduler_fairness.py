"""Property: every enqueued message is eventually delivered (scheduler fairness).

The paper's execution model only requires *fair* schedules — every message sent
is eventually delivered (§3.3) — and the protocol-level results are proven under
that assumption, so the queue implementations must uphold it structurally.  A
randomized-loop harness (fixed seeds, Hypothesis-style) drives random traffic
through each scheduler's queue and checks conservation:

* while no node finishes, ``delivered == sent`` and nothing is dropped — no
  message is starved forever, not even targeted traffic under the adversarial
  scheduler (the deferral budget forces it through);
* with nodes finishing mid-run, every message is accounted for exactly once:
  ``delivered + dropped == sent``;
* with a loss fault armed, the books still balance — every send (including
  recovery retransmissions) is delivered exactly once, dropped at quiescence
  or lost to the fault: ``delivered + dropped + lost == sent`` — for every
  scheduler.
"""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan, LossFault, RecoveryPolicy
from repro.net.latency import UniformLatencyModel
from repro.net.network import SimNetwork
from repro.net.node import Node, NodeContext
from repro.net.scheduler import (
    AdversarialScheduler,
    FairScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)

SCHEDULERS = {
    "fair": FairScheduler,
    "round_robin": RoundRobinScheduler,
    "random": RandomScheduler,
    "adversarial": lambda: AdversarialScheduler(
        targets=frozenset({"p1", "p5"}), max_deferrals=4
    ),
}


class RandomTraffic(Node):
    """Forwards hop-counted tokens to random peers; optionally finishes."""

    def __init__(self, node_id: str, ledger, finish_after=None) -> None:
        super().__init__(node_id)
        self.ledger = ledger  # {"sent": int, "delivered_ids": set}
        self.finish_after = finish_after
        self.received = 0

    def _send_token(self, ctx: NodeContext, hops: int) -> None:
        peers = [p for p in ctx.peers if p != self.node_id]
        target = peers[ctx.rng.randrange(len(peers))]
        self.ledger["sent"] += 1
        ctx.send(target, hops, tag="token")

    def on_start(self, ctx: NodeContext) -> None:
        for _ in range(3):
            self._send_token(ctx, hops=6)

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        assert message.msg_id not in self.ledger["delivered_ids"]
        self.ledger["delivered_ids"].add(message.msg_id)
        self.received += 1
        if message.payload > 0:
            self._send_token(ctx, hops=message.payload - 1)
        if self.finish_after is not None and self.received >= self.finish_after:
            self.finish(self.received)


def _run(scheduler_factory, seed: int, finishing: bool):
    ledger = {"sent": 0, "delivered_ids": set()}
    net = SimNetwork(
        latency_model=UniformLatencyModel(0.001, 0.02),
        scheduler=scheduler_factory(),
        seed=seed,
    )
    net.add_nodes(
        [
            RandomTraffic(
                f"p{i}",
                ledger,
                finish_after=(5 + i if finishing and i % 2 else None),
            )
            for i in range(8)
        ]
    )
    stats = net.run(max_steps=100_000)
    return ledger, stats, net


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_enqueued_message_is_delivered(name, seed):
    ledger, stats, net = _run(SCHEDULERS[name], seed, finishing=False)
    assert ledger["sent"] > 20
    assert stats.messages_delivered == ledger["sent"]
    assert len(ledger["delivered_ids"]) == ledger["sent"]
    assert stats.messages_dropped == 0
    assert net.in_flight_count == 0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_conservation_with_finishing_nodes(name, seed):
    """With recipients retiring mid-run every message is still accounted for:
    delivered exactly once, or dropped at quiescence — never lost, never
    duplicated."""
    ledger, stats, net = _run(SCHEDULERS[name], seed, finishing=True)
    assert stats.messages_delivered == len(ledger["delivered_ids"])
    assert stats.messages_delivered + stats.messages_dropped == ledger["sent"]
    assert net.in_flight_count == 0


def _run_lossy(scheduler_factory, seed: int):
    ledger = {"sent": 0, "delivered_ids": set()}
    net = SimNetwork(
        latency_model=UniformLatencyModel(0.001, 0.02),
        scheduler=scheduler_factory(),
        seed=seed,
        fault_plan=FaultPlan(
            [LossFault(rate=0.15)],
            seed=seed,
            recovery=RecoveryPolicy(max_retries=2),
        ),
    )
    net.add_nodes(
        [RandomTraffic(f"p{i}", ledger, finish_after=None) for i in range(8)]
    )
    stats = net.run(max_steps=100_000)
    return ledger, stats, net


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_conservation_under_injected_loss(name, seed):
    """Armed loss fault + bounded retransmission: the runtime-level books
    balance exactly — ``sent == delivered + dropped + lost`` — where ``sent``
    includes the recovery layer's retransmissions, and nothing is delivered
    twice."""
    ledger, stats, net = _run_lossy(SCHEDULERS[name], seed)
    assert stats.messages_lost > 0  # the fault really fired
    assert stats.retransmissions > 0  # and the recovery layer answered
    assert stats.messages_sent >= ledger["sent"]  # retransmits are extra sends
    assert (
        stats.messages_sent
        == stats.messages_delivered + stats.messages_dropped + stats.messages_lost
    )
    assert stats.messages_delivered == len(ledger["delivered_ids"])
    assert net.in_flight_count == 0
