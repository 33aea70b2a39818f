"""Simulated asynchronous message-passing runtime.

The runtime follows the game-theoretic execution model of the paper (Section 3.3):
time is divided into turns; in each turn one node is scheduled to move — it first
receives messages previously sent to it, performs some computation, and sends
messages.  Channels are reliable and schedules are *fair* (every node moves
infinitely often), which the simulator enforces by construction.

Two execution backends share the same :class:`~repro.net.node.Node` interface:

* :class:`~repro.net.network.SimNetwork` — deterministic discrete-event simulation
  with pluggable :class:`~repro.net.scheduler.Scheduler` and
  :class:`~repro.net.latency.LatencyModel`; tracks per-node virtual clocks so the
  benchmark harness can report critical-path elapsed time.
* :class:`~repro.net.transport.ThreadedNetwork` — a thread-per-node in-process
  transport with real queues, used to exercise the protocols under real concurrency.
"""

from repro.net.channel import ReliableChannel
from repro.net.clock import VirtualClock
from repro.net.latency import (
    BandwidthLatencyModel,
    ConstantLatencyModel,
    LanWanLatencyModel,
    LatencyModel,
    UniformLatencyModel,
    ZeroLatencyModel,
)
from repro.net.message import Message
from repro.net.network import NetworkStats, SimNetwork
from repro.net.node import Node, NodeContext
from repro.net.protocol import BlockContext, BlockHost, ProtocolBlock, ProtocolNode
from repro.net.scheduler import (
    AdversarialScheduler,
    FairScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.net.serialization import canonical_encode, estimate_size
from repro.net.transport import ThreadedNetwork

__all__ = [
    "AdversarialScheduler",
    "BandwidthLatencyModel",
    "BlockContext",
    "BlockHost",
    "ConstantLatencyModel",
    "FairScheduler",
    "LanWanLatencyModel",
    "LatencyModel",
    "Message",
    "NetworkStats",
    "Node",
    "NodeContext",
    "ProtocolBlock",
    "ProtocolNode",
    "RandomScheduler",
    "ReliableChannel",
    "RoundRobinScheduler",
    "Scheduler",
    "SimNetwork",
    "ThreadedNetwork",
    "UniformLatencyModel",
    "VirtualClock",
    "ZeroLatencyModel",
    "canonical_encode",
    "estimate_size",
]
