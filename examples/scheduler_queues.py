"""The event-queue scheduler protocol: four built-in queues plus a custom one.

Runs the same gossip workload under every built-in scheduler and under a
custom one written against the queue protocol (``push`` / ``pop`` /
``retire_recipient`` / ``reset``), showing that:

* protocol outputs are schedule-independent (the paper's "ex post" notion);
* every scheduler is fair — all traffic to live nodes is delivered;
* the simulator core's throughput, since delivery is O(log M) per message.

Run:  PYTHONPATH=src python examples/scheduler_queues.py
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from repro.net.latency import BandwidthLatencyModel
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.node import Node, NodeContext
from repro.net.scheduler import (
    AdversarialScheduler,
    FairScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)

NUM_NODES = 12
TOKENS_PER_NODE = 5
HOPS = 8


class GossipNode(Node):
    """Forwards hop-counted tokens to the next peer; finishes when told."""

    def on_start(self, ctx: NodeContext) -> None:
        peers = [p for p in ctx.peers if p != self.node_id]
        for t in range(TOKENS_PER_NODE):
            target = peers[(t + int(self.node_id[1:])) % len(peers)]
            ctx.send(target, HOPS, tag="token")
        ctx.set_timer(5.0, "deadline")

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        if message.is_timer():
            self.finish(ctx.now())
            return
        if message.payload > 0:
            peers = [p for p in ctx.peers if p != self.node_id]
            target = peers[ctx.rng.randrange(len(peers))]
            ctx.send(target, message.payload - 1, tag="token")


class EarliestSendScheduler(Scheduler):
    """A custom scheduler: deliver in *send* order, whatever the latency.

    The four methods below are the whole protocol.  Messages to a finished
    recipient are skipped lazily, when a pop walks past them, which keeps
    every operation O(log M).
    """

    def __init__(self) -> None:
        self.reset()

    def push(self, message):
        heappush(self._heap, (message.send_time, message.msg_id, message))

    def pop(self, rng):
        while self._heap:
            message = heappop(self._heap)[2]
            if message.recipient not in self._retired:
                return message
        return None

    def retire_recipient(self, node_id):
        self._retired.add(node_id)

    def reset(self):
        self._heap = []
        self._retired = set()


def run_under(name: str, scheduler: Scheduler) -> None:
    net = SimNetwork(
        latency_model=BandwidthLatencyModel(base=0.002, bandwidth_bytes_per_s=1e6),
        scheduler=scheduler,
        seed=7,
    )
    net.add_nodes([GossipNode(f"n{i}") for i in range(NUM_NODES)])
    start = time.perf_counter()
    stats = net.run()
    wall = time.perf_counter() - start
    rate = stats.messages_delivered / wall if wall > 0 else float("inf")
    print(
        f"{name:<22} delivered={stats.messages_delivered:>4}  "
        f"dropped={stats.messages_dropped:>3}  "
        f"virtual={stats.elapsed_time:7.3f}s  {rate:>9,.0f} msgs/sec"
    )


def main() -> None:
    print(f"gossip mesh: {NUM_NODES} nodes x {TOKENS_PER_NODE} tokens, {HOPS} hops\n")
    run_under("fair (heap)", FairScheduler())
    run_under("round-robin", RoundRobinScheduler())
    run_under("random", RandomScheduler())
    run_under(
        "adversarial",
        AdversarialScheduler(targets=frozenset({"n0", "n1"}), max_deferrals=8),
    )
    run_under("custom (send order)", EarliestSendScheduler())
    print(
        "\nSame workload, five schedules, one outcome space — delivery order\n"
        "varies, but fairness guarantees every live node's traffic arrives."
    )


if __name__ == "__main__":
    main()
