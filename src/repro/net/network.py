"""Discrete-event simulator for asynchronous message passing.

:class:`SimNetwork` executes a set of :class:`~repro.net.node.Node` state machines
under the execution model of the paper: reliable channels, fair (but otherwise
arbitrary) schedules, and per-node virtual clocks.  The simulator is deterministic
given (nodes, seed, scheduler, latency model, and — if enabled — measured compute
time), which makes protocol behaviour reproducible in tests.

The event-queue core
--------------------

Delivery runs through the scheduler's queue protocol
(:meth:`~repro.net.scheduler.Scheduler.push` /
:meth:`~repro.net.scheduler.Scheduler.pop` /
:meth:`~repro.net.scheduler.Scheduler.retire_recipient`): on the default fair
queue a delivered message costs O(log M) in the number of in-flight messages, where
the seed core paid O(M) three times over (deliverable-list rebuild, ``min`` scan, ``list.remove``).
:meth:`SimNetwork.run` is the delivery loop, with what it reads bound once per run.
The network keeps the authoritative in-flight set as an insertion-ordered dict —
the one membership structure: a message is one tuple, one entry in that dict
and one entry in the scheduler's queue, and nothing else records it.  Traffic
addressed to finished recipients stays in the dict (lazily skipped by the
queues) until quiescence, at which point it is drained and counted as dropped —
exactly the seed semantics, including the final :class:`NetworkStats`.
Schedules are bit-identical to the seed implementation; the differential test
``tests/net/test_event_queue_differential.py`` locks the full delivery trace.

A round's lifetime
------------------

The owner of a round calls :meth:`SimNetwork.close` once it has read what it
needs (``DistributedAuctioneer.run`` and ``AuctionRun`` do, in a ``finally``).
The cached contexts lose their network, the handler tables are cleared and
every node's :meth:`~repro.net.node.Node.close` hook runs, so nothing in the
round's object graph points back into it: reference counting frees the whole
round, and the cyclic collector finds nothing.  ``stats``, the nodes, the
clocks and the in-flight set stay readable.

Time accounting
---------------

Each node owns a :class:`~repro.net.clock.VirtualClock`.  Sending stamps the message
with the sender's current time; the latency model assigns an arrival time; processing
a message advances the recipient's clock to at least the arrival time and then charges
compute time.  Compute time can be *measured* (wall-clock of the handler, used by the
benchmark harness) or purely *modelled* (only explicit ``ctx.charge`` calls count,
used by deterministic tests).  The run's ``elapsed_time`` is the maximum clock value —
the critical path of the distributed execution.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common import stable_hash
from repro.net.channel import ReliableChannel
from repro.obs.context import current_observation
from repro.net.clock import VirtualClock
from repro.net.latency import LatencyModel, ZeroLatencyModel
from repro.net.message import Message
from repro.net.node import Node, NodeContext
from repro.net.scheduler import FairScheduler, Scheduler
from repro.net.serialization import estimate_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> scenarios)
    from repro.net.faults import FaultPlan

__all__ = ["SimNetwork", "NetworkStats", "QuiescenceError"]


class QuiescenceError(RuntimeError):
    """Raised when the step budget is exhausted before the network quiesces."""


@dataclass
class NetworkStats:
    """Aggregate statistics of one simulated run."""

    elapsed_time: float = 0.0
    steps: int = 0
    messages_delivered: int = 0
    bytes_delivered: int = 0
    messages_dropped: int = 0
    # Fault-plane counters (see repro.net.faults).  On a fault-free run only
    # messages_sent moves.  The conservation invariant that holds at the end
    # of every ``run()`` is ``messages_sent == messages_delivered +
    # messages_dropped + messages_lost + SimNetwork.in_flight_count``: a
    # fault-free run that ends because every node finished leaves its
    # leftovers in flight by design (a provider's unexpired bid-deadline
    # timer, say).  The in-flight term is zero — the three-term special case —
    # whenever the run drained: quiescent runs drain stale traffic in
    # ``run()``, and armed runs additionally settle copies still in flight
    # when every node finished (a retransmission racing its original).
    messages_sent: int = 0
    messages_lost: int = 0
    faults_injected: int = 0
    retransmissions: int = 0
    duplicates_suppressed: int = 0
    node_busy: Dict[str, float] = field(default_factory=dict)
    node_finish_time: Dict[str, float] = field(default_factory=dict)
    messages_by_tag: Dict[str, int] = field(default_factory=dict)


def _charged(clock: VirtualClock, handler: Callable[..., None]) -> Callable[..., None]:
    """``handler``, with the wall-clock duration of every call charged to ``clock``.

    Opt-in wall-clock timing field: measure_compute deliberately charges
    *real* handler time to the model clock, so elapsed results are
    nondeterministic by construction when it is on.
    """

    def timed(*args) -> None:
        start = time.perf_counter()  # repro: noqa[RPA001] measure_compute timing field
        handler(*args)
        clock.charge(time.perf_counter() - start)  # repro: noqa[RPA001] measure_compute timing field

    return timed


class _SimContext(NodeContext):
    """NodeContext bound to one node of a :class:`SimNetwork`.

    One context is cached per node for the lifetime of the network (contexts are
    stateless views, and allocating one per delivery showed up in profiles).
    """

    __slots__ = ("_network", "_node_id")

    def __init__(self, network: "SimNetwork", node_id: str) -> None:
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
        # Built on first use: node seeds are independent of one another, so
        # the stream is the same whenever it starts, and most nodes of a round
        # (every bidder) never draw.
        rngs = self._network._node_rngs
        rng = rngs.get(self._node_id)
        if rng is None:
            rng = rngs[self._node_id] = random.Random(
                stable_hash(self._network._seed, self._node_id)
            )
        return rng

    def now(self) -> float:
        return self._network.clock_of(self._node_id).now

    def send(self, recipient: str, payload: Any, tag: str = "") -> None:
        self._network._enqueue(self._node_id, (recipient,), payload, tag, True)

    def broadcast(
        self,
        recipients,
        payload: Any,
        tag: str = "",
        include_self: bool = False,
    ) -> None:
        # Same observable behaviour as the default per-recipient send loop, but
        # the payload's wire size is measured once for the whole fan-out.
        self._network._enqueue(self._node_id, recipients, payload, tag, include_self)

    def set_timer(self, delay: float, tag: str) -> None:
        # The latency models' rule: a NaN arrival breaks the earliest-first order.
        if not 0 <= delay < math.inf:
            raise ValueError(f"timer delay must be finite and non-negative, got {delay!r}")
        self._network._enqueue_timer(self._node_id, delay, tag)

    def charge(self, seconds: float) -> None:
        self._network.clock_of(self._node_id).charge(seconds)


class SimNetwork:
    """Deterministic discrete-event network of :class:`Node` state machines.

    Args:
        latency_model: one-way delay model; defaults to zero latency.
        scheduler: delivery-order strategy; defaults to earliest-arrival-first.
            Anything implementing the queue protocol of
            :class:`~repro.net.scheduler.Scheduler`; an object without ``pop``
            is a ``TypeError`` here, not a failure mid-run.
        seed: seed for the network-level RNG (latency jitter, random scheduler) and
            for deriving per-node RNGs.
        measure_compute: if True, the wall-clock duration of every handler invocation
            is charged to the node's virtual clock in addition to explicit
            ``ctx.charge`` calls.  Leave False for deterministic tests.  Read when a
            node is added: that is where its handlers get wrapped, or not.
        fault_plan: optional :class:`~repro.net.faults.FaultPlan` injecting
            seeded failures on the enqueue/pop path (and driving the bounded
            retransmission recovery).  ``None`` — or a plan with no
            network-level models — leaves every hot path exactly as before:
            the hooks are behavioural no-ops when unarmed.
    """

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        measure_compute: bool = False,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        self.latency_model = latency_model if latency_model is not None else ZeroLatencyModel()
        if scheduler is None:
            scheduler = FairScheduler()
        elif not hasattr(scheduler, "pop"):
            raise TypeError(
                f"{type(scheduler).__name__} does not implement the scheduler queue "
                "protocol (push / pop / retire_recipient / reset) of "
                "repro.net.scheduler.Scheduler"
            )
        self.scheduler = scheduler
        self.measure_compute = measure_compute
        self._rng = random.Random(seed)
        self._seed = seed
        self._nodes: Dict[str, Node] = {}
        self._clocks: Dict[str, VirtualClock] = {}
        self._node_rngs: Dict[str, random.Random] = {}
        self._contexts: Dict[str, _SimContext] = {}
        # Each node's two entry points as the network calls them: the bound
        # methods themselves, or their timed wrappers under measure_compute —
        # decided once per node, so a delivery is a plain call.
        self._on_start: Dict[str, Callable[..., None]] = {}
        self._on_message: Dict[str, Callable[..., None]] = {}
        # Recovery records per (sender, recipient) link; armed runs only.
        self._channels: Dict[Tuple[str, str], ReliableChannel] = {}
        # Authoritative in-flight set, keyed by msg_id and insertion-ordered —
        # the scheduler queues hold the *delivery order*, this dict holds the
        # *membership*.
        self._in_flight: Dict[int, Message] = {}
        # msg_ids are allocated per network so schedules never depend on how
        # many networks ran earlier in the process.
        self._next_msg_id = 0
        # Finished nodes are tracked incrementally (and retired from the
        # scheduler queues) instead of scanning every node per run() iteration.
        self._finished_nodes: Set[str] = set()
        self.stats = NetworkStats()
        self._started = False
        self._closed = False
        # The public attribute keeps the whole plan (chaos audits read its
        # journal); the private one is None unless the plan is *armed*, so an
        # empty plan takes the exact fault-free code path.
        self.fault_plan = fault_plan
        self._fault_plan = (
            fault_plan if fault_plan is not None and fault_plan.armed else None
        )
        # Same armed-plan idiom for the observability plane: captured once at
        # construction, None when disabled, so the per-delivery hook is a
        # single is-None check on the hot path.  Delivery timestamps are the
        # message's modelled send/arrival times — never the wall clock — so
        # observed runs stay bit-identical (see repro.obs).
        self._obs = current_observation()
        obs = self._obs
        self._obs_latency = (
            obs.metrics.histogram("net.delivery_latency")
            if obs is not None and obs.metrics is not None
            else None
        )

    # -- topology ------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Register a node; ids must be unique and registration happens before run()."""
        if self._started:
            raise RuntimeError("cannot add nodes after the network has started")
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node_id = node.node_id
        self._nodes[node_id] = node
        self._clocks[node_id] = clock = VirtualClock()
        self._contexts[node_id] = _SimContext(self, node_id)
        on_start, on_message = node.on_start, node.on_message
        if self.measure_compute:
            on_start, on_message = _charged(clock, on_start), _charged(clock, on_message)
        self._on_start[node_id] = on_start
        self._on_message[node_id] = on_message

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

    def outputs(self) -> Dict[str, Any]:
        """Mapping node id -> output value for finished nodes."""
        return {nid: node.output for nid, node in self._nodes.items() if node.finished}

    # -- message plumbing ------------------------------------------------------
    def _channel(self, sender: str, recipient: str) -> ReliableChannel:
        key = (sender, recipient)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = ReliableChannel()
        return channel

    def _enqueue(
        self, sender: str, recipients: Iterable[str], payload: Any, tag: str, include_self: bool
    ) -> None:
        """Send ``payload`` to each of ``recipients``: one message per recipient.

        The wire size is measured once for the whole fan-out (the object cannot
        change between the sends); the per-message work is the recipient check,
        the latency draws, the record, and one slot each in the in-flight dict
        and the scheduler's queue.
        """
        nodes = self._nodes
        latency = self.latency_model
        probe, draw = latency.probe, latency.delay
        push = self.scheduler.push
        in_flight = self._in_flight
        rng = self._rng
        stats = self.stats
        plan = self._fault_plan
        send_time = self._clocks[sender].now
        size = None
        for recipient in recipients:
            if recipient == sender and not include_self:
                continue
            if size is None:
                size = estimate_size((tag, payload))
            if recipient not in nodes:
                raise KeyError(f"unknown recipient {recipient!r}")
            if sender != recipient:
                # Historical draw order: the seed core asked the latency model
                # twice (a size-0 probe, then the real call).  The probe's value
                # was always discarded, but jittered models consume RNG in it —
                # keep its draws so every schedule stays bit-identical to the seed.
                probe(sender, recipient, rng)
                delay = draw(sender, recipient, size, rng)
            else:
                delay = latency.local_delay()
            msg_id = self._next_msg_id
            self._next_msg_id = msg_id + 1
            stats.messages_sent += 1
            # All nine fields in order: skip the keyword constructor (see Message).
            message = tuple.__new__(
                Message,
                (sender, recipient, payload, tag, send_time, send_time + delay, size, msg_id, None),
            )
            if plan is not None and sender != recipient:
                self._send_through_faults(message)
            else:  # _push_message, without the call
                in_flight[msg_id] = message
                push(message)

    def _enqueue_timer(self, node_id: str, delay: float, tag: str) -> None:
        now = self._clocks[node_id].now
        self._push_message(
            Message(
                node_id, node_id, None, f"__timer__/{tag}", now, now + delay, 0, self._next_msg_id
            )
        )
        self._next_msg_id += 1
        self.stats.messages_sent += 1

    def _push_message(self, message: Message) -> None:
        self._in_flight[message.msg_id] = message
        self.scheduler.push(message)

    # -- fault plane (every method below only runs when a plan is armed) -------
    def _send_through_faults(self, message: Message) -> None:
        """Run one outgoing message through the fault gauntlet, then enqueue.

        A dropped message is counted lost and handed to the recovery layer;
        extra delay shifts the arrival time; injected duplicates are enqueued
        as copies carrying the logical origin so the recipient-side
        suppression processes the payload exactly once.
        """
        plan = self._fault_plan
        effect = plan.apply_send(message)
        stats = self.stats
        stats.faults_injected += effect.injected
        if effect.drop:
            stats.messages_lost += 1
            self._maybe_retransmit(message)
            return
        if effect.extra_delay:
            message = message._replace(
                arrival_time=message.arrival_time + effect.extra_delay
            )
        self._push_message(message)
        origin = message.origin if message.origin is not None else message.msg_id
        for _ in range(effect.duplicates):
            duplicate = message._replace(msg_id=self._next_msg_id, origin=origin)
            self._next_msg_id += 1
            stats.messages_sent += 1
            self._push_message(duplicate)

    def _maybe_retransmit(self, lost: Message) -> None:
        """Schedule a bounded, backed-off retransmission of a lost message.

        Event-driven recursion, not a loop: each retransmission re-enters the
        fault gauntlet and — if lost again — recurses with the next attempt
        number, bounded by the policy's literal ``max_retries``.
        """
        plan = self._fault_plan
        policy = plan.recovery
        if not policy.enabled:
            return
        origin = lost.origin if lost.origin is not None else lost.msg_id
        attempt = self._channel(lost.sender, lost.recipient).next_attempt(origin)
        if attempt > policy.max_retries:
            plan.record(
                "retransmit_exhausted",
                origin=origin,
                sender=lost.sender,
                recipient=lost.recipient,
                tag=lost.tag,
                attempts=policy.max_retries,
            )
            return
        retry = lost._replace(
            msg_id=self._next_msg_id,
            origin=origin,
            arrival_time=lost.arrival_time + policy.backoff(attempt),
        )
        self._next_msg_id += 1
        self.stats.messages_sent += 1
        self.stats.retransmissions += 1
        plan.record(
            "retransmit",
            origin=origin,
            msg_id=retry.msg_id,
            attempt=attempt,
            sender=retry.sender,
            recipient=retry.recipient,
            tag=retry.tag,
            at=retry.arrival_time,
        )
        self._send_through_faults(retry)

    def _start_node(self, node: Node) -> None:
        """Run ``on_start``: once at ``start()``, and again after an injected crash.

        The re-run is a restart with full state loss: protocol nodes rebuild a
        fresh block host in ``on_start``, so every in-progress round is
        forgotten — exactly the semantics the ``crash`` fault models.
        """
        node_id = node.node_id
        self._on_start[node_id](self._contexts[node_id])
        if node.finished:
            self._note_finished(node_id)

    # -- execution -------------------------------------------------------------
    def _note_finished(self, node_id: str) -> None:
        """Record a node's termination once: finish time, count, retirement."""
        if node_id in self._finished_nodes:
            return
        self._finished_nodes.add(node_id)
        self.stats.node_finish_time[node_id] = self._clocks[node_id].now
        self.scheduler.retire_recipient(node_id)

    # -- observability hooks ---------------------------------------------------------
    def _observe_delivery(self, message: Message, suppressed: bool) -> None:
        """Emit the per-delivery span + latency observation (observed runs only)."""
        obs = self._obs
        latency = message.arrival_time - message.send_time
        if self._obs_latency is not None:
            self._obs_latency.observe(latency)
        tracer = obs.tracer
        if tracer is not None and tracer.active:
            tracer.emit(
                "deliver",
                "net",
                ts=message.send_time,
                dur=latency,
                tag=message.tag,
                sender=message.sender,
                recipient=message.recipient,
                msg_id=message.msg_id,
                suppressed=suppressed,
            )

    def _observe_run_end(self) -> None:
        """Fold the run's NetworkStats into the metrics hub (one call per run)."""
        metrics = self._obs.metrics
        if metrics is None:
            return
        stats = self.stats
        metrics.counter("net.runs").inc()
        metrics.counter("net.messages_sent").inc(stats.messages_sent)
        metrics.counter("net.messages_delivered").inc(stats.messages_delivered)
        metrics.counter("net.messages_dropped").inc(stats.messages_dropped)
        metrics.counter("net.messages_lost").inc(stats.messages_lost)
        metrics.counter("net.retransmissions").inc(stats.retransmissions)
        metrics.counter("net.duplicates_suppressed").inc(stats.duplicates_suppressed)
        metrics.counter("net.faults_injected").inc(stats.faults_injected)
        metrics.histogram("net.run_elapsed").observe(stats.elapsed_time)

    def start(self) -> None:
        """Invoke ``on_start`` on every node (in registration order)."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        self.scheduler.reset()
        for node in self._nodes.values():
            self._start_node(node)

    def _drop_in_flight(self) -> None:
        """Count everything still in flight as dropped and forget it."""
        self.stats.messages_dropped += len(self._in_flight)
        self._in_flight.clear()

    def run(self, max_steps: int = 2_000_000) -> NetworkStats:
        """Run until quiescence (no deliverable messages) or all nodes finished.

        The delivery loop: what a delivery reads is bound once per run, and
        its counters live in locals that ``finally`` writes back to ``stats``.

        Raises:
            QuiescenceError: if ``max_steps`` deliveries happen without quiescence,
                which almost always indicates a protocol that livelocks.
        """
        if self._closed:
            raise RuntimeError("network is closed")
        if not self._started:
            self.start()
        pop, rng, stats = self.scheduler.pop, self._rng, self.stats
        nodes, clocks, in_flight = self._nodes, self._clocks, self._in_flight
        handlers, contexts = self._on_message, self._contexts
        finished_nodes, plan, obs = self._finished_nodes, self._fault_plan, self._obs
        total = len(nodes)
        steps = delivered_bytes = 0  # steps == this run's messages_delivered
        tag_counts: Dict[str, int] = {}
        # Re-tested after a delivery only: a skipped message is followed by the
        # next pop, even when the skip finished the last node.
        done = len(finished_nodes) >= total
        try:
            while not done:
                # -- choose: the scheduler's next message its recipient can take --
                message = pop(rng)
                if message is None:
                    # Quiescence: everything still in flight is addressed to
                    # finished nodes — drain it so the run can end.
                    self._drop_in_flight()
                    break
                sender, recipient, _, tag, _, arrival_time, size, msg_id, origin = message
                node = nodes[recipient]
                if node.finished:
                    # Finished from outside a handler (finish() is public):
                    # retire it now; the message drops at quiescence.  The seed
                    # core retired it a step earlier, so stateful schedulers may
                    # order the rest differently (the runtime never does this).
                    self._note_finished(recipient)
                    continue
                armed = plan is not None and sender != recipient
                if armed:
                    lost, restart = plan.apply_deliver(message)
                    if restart:
                        stats.faults_injected += 1
                        self._start_node(node)
                        if node.finished:
                            # Restart finished the node immediately; the message
                            # is undeliverable and drains at quiescence.
                            continue
                    if lost:
                        # The recipient is down (crash window).  Recovery may
                        # retransmit, backed off to land after the restart.
                        stats.faults_injected += 1
                        stats.messages_lost += 1
                        del in_flight[msg_id]
                        self._maybe_retransmit(message)
                        continue
                # -- deliver: out of flight, clock forward, handler, counters -----
                del in_flight[msg_id]
                clock = clocks[recipient]
                if arrival_time > clock.now:
                    clock.now = arrival_time
                # A copy of an already-processed send (injected duplicate or a
                # retransmission racing its original) is counted as a delivery
                # but skips the handler — exactly-once processing.
                suppressed = armed and self._channel(sender, recipient).suppress_duplicate(
                    origin if origin is not None else msg_id
                )
                if suppressed:
                    stats.duplicates_suppressed += 1
                else:
                    handlers[recipient](contexts[recipient], message)
                steps += 1
                delivered_bytes += size
                tag_counts[tag] = tag_counts.get(tag, 0) + 1
                if obs is not None:
                    self._observe_delivery(message, suppressed)
                if node.finished:
                    self._note_finished(recipient)
                if steps > max_steps:
                    raise QuiescenceError(
                        f"network did not quiesce within {max_steps} deliveries"
                    )
                done = len(finished_nodes) >= total
        finally:
            stats.steps += steps
            stats.messages_delivered += steps
            stats.bytes_delivered += delivered_bytes
            # Traffic by protocol block path (the part of the tag before "|"),
            # folded in first-seen order so the dict keeps delivery order.
            by_tag = stats.messages_by_tag
            for tag, count in tag_counts.items():
                path = tag.split("|", 1)[0]
                by_tag[path] = by_tag.get(path, 0) + count
        if plan is not None:
            # Armed runs settle the books: copies still in flight when every
            # node finished (e.g. a retransmission racing its original) are
            # drained as dropped, so the conservation invariant holds in its
            # three-term form, sent == delivered + dropped + lost.  Fault-free
            # runs keep the historical behaviour (leftovers stay in flight).
            self._drop_in_flight()
        stats.elapsed_time = max((clock.now for clock in clocks.values()), default=0.0)
        stats.node_busy = {nid: clock.busy for nid, clock in clocks.items()}
        if obs is not None:
            self._observe_run_end()
        return stats

    def close(self) -> None:
        """End the round: drop every reference that points back into the network.

        The cached contexts lose their network, the handler tables are
        cleared and every node runs its :meth:`~repro.net.node.Node.close`
        hook, so the round's object graph holds no cycle and reference
        counting frees it when its owner lets go.  The results stay readable:
        :attr:`stats`, the nodes and their outputs, the clocks and the
        in-flight set.  :meth:`run` on a closed network raises.
        """
        self._closed = True
        for context in self._contexts.values():
            context._network = None
        self._contexts.clear()
        self._on_start.clear()
        self._on_message.clear()
        for node in self._nodes.values():
            node.close()

    # -- introspection -----------------------------------------------------------
    @property
    def in_flight(self) -> List[Message]:
        """Messages sent but not yet delivered, in send order.

        Builds a fresh O(M) list on every access — fine for tests and debugging,
        but hot paths that only need the size should use :attr:`in_flight_count`.
        """
        return list(self._in_flight.values())

    @property
    def in_flight_count(self) -> int:
        """Number of undelivered messages (O(1), unlike :attr:`in_flight`)."""
        return len(self._in_flight)

    def unfinished_nodes(self) -> List[str]:
        return [nid for nid, node in self._nodes.items() if not node.finished]
