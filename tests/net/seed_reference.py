"""Faithful port of the seed list-based simulator core — the differential oracle.

``SeedSimNetwork`` and the ``Seed*Scheduler`` classes reproduce the pre-event-queue
implementation operation for operation: the per-step deliverable-list rebuild, the
``select(in_flight, rng)`` scheduler protocol, the O(M) ``list.remove`` delivery,
the quiescence drain, and — crucially — the exact RNG draw order (including the
discarded size-0 latency probe per send).  The differential test runs identical
node programs through this oracle and through the production :class:`SimNetwork`
and asserts bit-identical delivery traces and :class:`NetworkStats`.

Two deliberate deviations from the seed, both matching satellite fixes that
changed the contract on purpose:

* message ids are allocated per network (seed: process-global counter), so the
  two cores produce comparable ids; relative order — and therefore every
  tie-break — is unchanged;
* ``SeedRoundRobinScheduler`` discovers recipients in first-occurrence order of
  the deliverable list instead of iterating a ``set`` — the seed's rotation
  depended on ``PYTHONHASHSEED``, which is the bug, not the contract.

The seed's explicit per-link channel (:class:`Channel` / :class:`ReliableChannel`:
``push`` / ``pop`` / ``pending`` / ``earliest_undelivered`` and the delivered
counters) lives here too: this core is its last caller — production keeps one
in-flight dict and no per-link object on the delivery path.
"""

from __future__ import annotations

import abc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.common import stable_hash
from repro.net.clock import VirtualClock
from repro.net.latency import LatencyModel, ZeroLatencyModel
from repro.net.message import Message
from repro.net.network import NetworkStats
from repro.net.node import Node, NodeContext
from repro.net.serialization import estimate_size


class Channel(abc.ABC):
    """A unidirectional channel between two nodes."""

    @abc.abstractmethod
    def push(self, message: Message) -> None:
        """Enqueue a message for delivery."""

    @abc.abstractmethod
    def pop(self, msg_id: int) -> Message:
        """Remove and return the in-flight message with the given id."""

    @abc.abstractmethod
    def pending(self) -> List[Message]:
        """Messages sent but not yet delivered."""

    def __len__(self) -> int:
        return len(self.pending())

    def __iter__(self) -> Iterator[Message]:
        return iter(self.pending())


@dataclass
class ReliableChannel(Channel):
    """FIFO-ordered reliable channel.

    Delivery order between two given endpoints is FIFO by send time (the simulator's
    schedulers may interleave messages from *different* senders arbitrarily, which is
    where the asynchrony of the model lives), and no message is ever lost.
    """

    sender: str
    recipient: str
    # Keyed by msg_id (insertion-ordered, so FIFO semantics are preserved).
    _in_flight: Dict[int, Message] = field(default_factory=dict)
    delivered_count: int = 0
    delivered_bytes: int = 0

    def push(self, message: Message) -> None:
        if message.sender != self.sender or message.recipient != self.recipient:
            raise ValueError(
                f"message {message!r} does not belong to channel "
                f"{self.sender}->{self.recipient}"
            )
        self._in_flight[message.msg_id] = message

    def pop(self, msg_id: int) -> Message:
        message = self._in_flight.pop(msg_id, None)
        if message is None:
            raise KeyError(
                f"message id {msg_id} not in flight on {self.sender}->{self.recipient}"
            )
        self.delivered_count += 1
        self.delivered_bytes += message.size_bytes
        return message

    def pending(self) -> List[Message]:
        return list(self._in_flight.values())

    def earliest_undelivered(self) -> Message | None:
        """The in-flight message with the smallest send time (FIFO head), if any."""
        if not self._in_flight:
            return None
        return min(self._in_flight.values(), key=lambda m: (m.send_time, m.msg_id))


class SeedFairScheduler:
    def select(self, in_flight: Sequence[Message], rng: random.Random) -> Message:
        return min(in_flight, key=lambda m: (m.arrival_time, m.msg_id))

    def reset(self) -> None:
        pass


class SeedRoundRobinScheduler:
    def __init__(self, order=None) -> None:
        self._order: List[str] = list(order) if order is not None else []
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def select(self, in_flight: Sequence[Message], rng: random.Random) -> Message:
        # Seed used ``{m.recipient for m in in_flight}`` here (hash order).
        for known in dict.fromkeys(m.recipient for m in in_flight):
            if known not in self._order:
                self._order.append(known)
        for _ in range(len(self._order)):
            candidate = self._order[self._cursor % len(self._order)]
            self._cursor += 1
            pending = [m for m in in_flight if m.recipient == candidate]
            if pending:
                return min(pending, key=lambda m: (m.arrival_time, m.msg_id))
        return min(in_flight, key=lambda m: (m.arrival_time, m.msg_id))


class SeedRandomScheduler:
    def select(self, in_flight: Sequence[Message], rng: random.Random) -> Message:
        return in_flight[rng.randrange(len(in_flight))]

    def reset(self) -> None:
        pass


class SeedAdversarialScheduler:
    def __init__(self, targets=frozenset(), max_deferrals: int = 16) -> None:
        self.targets = targets
        self.max_deferrals = max_deferrals
        self._deferrals: Dict[int, int] = {}

    def reset(self) -> None:
        self._deferrals.clear()

    def _is_targeted(self, message: Message) -> bool:
        return message.sender in self.targets or message.recipient in self.targets

    def select(self, in_flight: Sequence[Message], rng: random.Random) -> Message:
        ordered = sorted(in_flight, key=lambda m: (m.arrival_time, m.msg_id))
        for message in ordered:
            if self._deferrals.get(message.msg_id, 0) >= self.max_deferrals:
                return message
        for message in ordered:
            if not self._is_targeted(message):
                for other in ordered:
                    if self._is_targeted(other):
                        self._deferrals[other.msg_id] = (
                            self._deferrals.get(other.msg_id, 0) + 1
                        )
                return message
        return ordered[0]


class _SeedContext(NodeContext):
    """Per-delivery context, exactly as the seed allocated it."""

    def __init__(self, network: "SeedSimNetwork", node_id: str) -> None:
        self._network = network
        self._node_id = node_id

    @property
    def node_id(self) -> str:
        return self._node_id

    @property
    def peers(self) -> Sequence[str]:
        return self._network.node_ids

    @property
    def rng(self) -> random.Random:
        return self._network._node_rngs[self._node_id]

    def now(self) -> float:
        return self._network.clock_of(self._node_id).now

    def send(self, recipient: str, payload: Any, tag: str = "") -> None:
        self._network._enqueue(self._node_id, recipient, payload, tag)

    def set_timer(self, delay: float, tag: str) -> None:
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        self._network._enqueue_timer(self._node_id, delay, tag)

    def charge(self, seconds: float) -> None:
        self._network.clock_of(self._node_id).charge(seconds)


class SeedSimNetwork:
    """The seed list-based discrete-event core (see module docstring)."""

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        scheduler=None,
        seed: int = 0,
        measure_compute: bool = False,
        compute_scale: float = 1.0,
    ) -> None:
        self.latency_model = latency_model if latency_model is not None else ZeroLatencyModel()
        self.scheduler = scheduler if scheduler is not None else SeedFairScheduler()
        self.measure_compute = measure_compute
        self._rng = random.Random(seed)
        self._seed = seed
        self._nodes: Dict[str, Node] = {}
        self._clocks: Dict[str, VirtualClock] = {}
        self._node_rngs: Dict[str, random.Random] = {}
        self._channels: Dict[tuple, ReliableChannel] = {}
        self._in_flight: List[Message] = []
        self._next_msg_id = 0
        self._compute_scale = compute_scale
        self.stats = NetworkStats()
        self._started = False

    def add_node(self, node: Node) -> None:
        if self._started:
            raise RuntimeError("cannot add nodes after the network has started")
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._clocks[node.node_id] = VirtualClock(compute_scale=self._compute_scale)
        self._node_rngs[node.node_id] = random.Random(
            stable_hash(self._seed, node.node_id)
        )

    def add_nodes(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    @property
    def node_ids(self) -> List[str]:
        return list(self._nodes.keys())

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def clock_of(self, node_id: str) -> VirtualClock:
        return self._clocks[node_id]

    def _channel(self, sender: str, recipient: str) -> ReliableChannel:
        key = (sender, recipient)
        channel = self._channels.get(key)
        if channel is None:
            channel = ReliableChannel(sender=sender, recipient=recipient)
            self._channels[key] = channel
        return channel

    def _enqueue(self, sender: str, recipient: str, payload: Any, tag: str) -> None:
        if recipient not in self._nodes:
            raise KeyError(f"unknown recipient {recipient!r}")
        send_time = self._clocks[sender].now
        # Seed draw order: size-0 probe (discarded), then the sized call.
        if sender != recipient:
            self.latency_model.delay(sender, recipient, 0, self._rng)
        size = estimate_size((tag, payload))
        delay = (
            self.latency_model.delay(sender, recipient, size, self._rng)
            if sender != recipient
            else self.latency_model.local_delay()
        )
        message = Message(
            sender=sender,
            recipient=recipient,
            payload=payload,
            tag=tag,
            send_time=send_time,
            arrival_time=send_time + delay,
            size_bytes=size,
            msg_id=self._next_msg_id,
        )
        self._next_msg_id += 1
        self.stats.messages_sent += 1
        self._channel(sender, recipient).push(message)
        self._in_flight.append(message)

    def _enqueue_timer(self, node_id: str, delay: float, tag: str) -> None:
        now = self._clocks[node_id].now
        message = Message(
            sender=node_id,
            recipient=node_id,
            payload=None,
            tag=f"__timer__/{tag}",
            send_time=now,
            arrival_time=now + delay,
            size_bytes=0,
            msg_id=self._next_msg_id,
        )
        self._next_msg_id += 1
        self.stats.messages_sent += 1
        self._channel(node_id, node_id).push(message)
        self._in_flight.append(message)

    def _dispatch(self, node: Node, handler, *args) -> None:
        clock = self._clocks[node.node_id]
        if self.measure_compute:
            start = time.perf_counter()
            handler(*args)
            clock.charge(time.perf_counter() - start)
        else:
            handler(*args)

    def _deliver(self, message: Message) -> None:
        self._in_flight.remove(message)
        self._channel(message.sender, message.recipient).pop(message.msg_id)
        node = self._nodes[message.recipient]
        if node.finished:
            self.stats.messages_dropped += 1
            return
        clock = self._clocks[message.recipient]
        clock.advance_to(message.arrival_time)
        ctx = _SeedContext(self, message.recipient)
        self._dispatch(node, node.on_message, ctx, message)
        self.stats.record_delivery(message)
        if node.finished:
            self.stats.node_finish_time[node.node_id] = clock.now

    def start(self) -> None:
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        self.scheduler.reset()
        for node_id, node in self._nodes.items():
            ctx = _SeedContext(self, node_id)
            self._dispatch(node, node.on_start, ctx)
            if node.finished:
                self.stats.node_finish_time[node_id] = self._clocks[node_id].now

    def step(self) -> bool:
        deliverable = [
            m for m in self._in_flight if not self._nodes[m.recipient].finished
        ]
        if not deliverable:
            for message in list(self._in_flight):
                self._in_flight.remove(message)
                self._channel(message.sender, message.recipient).pop(message.msg_id)
                self.stats.messages_dropped += 1
            return False
        message = self.scheduler.select(deliverable, self._rng)
        self._deliver(message)
        self.stats.steps += 1
        return True

    def run(self, max_steps: int = 2_000_000) -> NetworkStats:
        if not self._started:
            self.start()
        steps = 0
        while True:
            if all(node.finished for node in self._nodes.values()):
                break
            progressed = self.step()
            if not progressed:
                break
            steps += 1
            if steps > max_steps:
                raise RuntimeError(
                    f"network did not quiesce within {max_steps} deliveries"
                )
        self.stats.elapsed_time = max(
            (clock.now for clock in self._clocks.values()), default=0.0
        )
        self.stats.node_busy = {nid: clock.busy for nid, clock in self._clocks.items()}
        return self.stats

    @property
    def in_flight(self) -> List[Message]:
        return list(self._in_flight)

    def unfinished_nodes(self) -> List[str]:
        return [nid for nid, node in self._nodes.items() if not node.finished]
