"""Schedulers: who moves next, and which message do they receive.

The paper models asynchrony through *schedules*: an adversarially chosen but fair
order in which providers move and receive messages (Section 3.3).  The simulator
externalises that choice into a :class:`Scheduler` strategy so tests can run the same
protocol under round-robin, random, and adversarial (but fair) schedules and check
that outputs are unaffected — which is exactly the "ex post" part of the paper's
equilibrium notion.

All schedulers must be *fair*: every in-flight message is eventually selected.  The
:class:`AdversarialScheduler` enforces this with a deferral budget per message.

The queue-strategy protocol
---------------------------

A scheduler is an event queue, not a function over a flat sequence: the network
pushes every message once (:meth:`Scheduler.push`), pops the next one to deliver
(:meth:`Scheduler.pop`; ``None`` means nothing deliverable remains, and the
network drains the rest) and retires recipients as they finish
(:meth:`Scheduler.retire_recipient`).

:class:`FairScheduler`, the default and the only queue a benchmark workload
runs, is the hot path: a lazy-deletion heap, O(log M) per operation.  The other
three share one send-ordered list of the deliverable messages and apply the seed
core's selection rule to it, O(M) per pop on purpose: no workload times them.

Every queue is **bit-identical** to the seed core's ``select(in_flight, rng)``
over a flat list: same delivered message per step, same RNG consumption, same
tie-breaks.  That core and its schedulers live on as the test oracle
(``tests/net/seed_reference.py``); ``tests/net/test_event_queue_differential.py``
locks the full delivery trace against it.

A scheduler instance serves one network run at a time (sequential reuse across
runs is fine: the network calls ``reset`` before the first push of each run).
"""

from __future__ import annotations

import abc
import numbers
import random
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.net.message import Message

__all__ = [
    "Scheduler",
    "FairScheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "AdversarialScheduler",
]


class Scheduler(abc.ABC):
    """The queue protocol that decides the next in-flight message to deliver."""

    @abc.abstractmethod
    def push(self, message: Message) -> None:
        """Enqueue a freshly sent message."""

    @abc.abstractmethod
    def pop(self, rng: random.Random) -> Optional[Message]:
        """Remove and return the next deliverable message, or ``None`` if there
        is none (every queued message is addressed to a retired recipient)."""

    @abc.abstractmethod
    def retire_recipient(self, node_id: str) -> None:
        """The recipient finished: its queued messages are no longer deliverable."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all per-run state; the network calls this once before each run."""


class FairScheduler(Scheduler):
    """Deliver the message with the earliest arrival time (deterministic).

    Ties are broken by message id, so two runs with identical seeds and latencies are
    bit-for-bit reproducible.  This is the scheduler used by the benchmark harness
    because earliest-arrival order is what a real network with those latencies would
    do.

    Implementation: a lazy-deletion binary heap keyed on ``(arrival_time,
    msg_id)`` — push and pop are O(log M); traffic to retired recipients is
    skipped (and permanently discarded) as the pops walk past it.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Message]] = []
        self._retired: Set[str] = set()

    def push(self, message: Message) -> None:
        if message.recipient in self._retired:
            return  # never deliverable; the network drops it at quiescence
        heappush(self._heap, (message.arrival_time, message.msg_id, message))

    def pop(self, rng: random.Random) -> Optional[Message]:
        heap = self._heap
        retired = self._retired
        while heap:
            message = heappop(heap)[2]
            if message.recipient in retired:
                continue  # lazy deletion
            return message
        return None

    def retire_recipient(self, node_id: str) -> None:
        self._retired.add(node_id)

    def reset(self) -> None:
        self._heap.clear()
        self._retired.clear()


#: Earliest-arrival order, ties by message id: the seed's ``min`` / ``sorted`` key.
_arrival_order = attrgetter("arrival_time", "msg_id")


class _SendOrderScheduler(Scheduler):
    """The non-fair schedules' queue: the deliverable messages in send order —
    the seed core's deliverable list, which each ``pop`` applies the seed's rule to."""

    def __init__(self) -> None:
        self.reset()

    def push(self, message: Message) -> None:
        if message.recipient not in self._retired:
            self._queue.append(message)

    def retire_recipient(self, node_id: str) -> None:
        self._retired.add(node_id)
        self._queue = [m for m in self._queue if m.recipient != node_id]

    def reset(self) -> None:
        self._queue: List[Message] = []
        self._retired: Set[str] = set()


class RoundRobinScheduler(_SendOrderScheduler):
    """Rotate over recipients, delivering each one's earliest pending message.

    This matches the turn-based presentation of the execution model: node 1 moves,
    then node 2, and so on, with every node scheduled infinitely often.

    Recipients join the rotation in first-message order, which makes it
    independent of ``PYTHONHASHSEED`` — the seed implementation iterated a
    ``set`` here and silently depended on string hashing.  The rotation
    persists across runs; ``reset`` only rewinds the cursor, as in the seed.
    """

    def __init__(self, order: Optional[Iterable[str]] = None) -> None:
        if isinstance(order, str):
            raise TypeError(f"order must be a list of node ids, got the string {order!r}")
        self._order: List[str] = list(order) if order is not None else []
        super().__init__()

    def reset(self) -> None:
        super().reset()
        self._cursor = 0

    def pop(self, rng: random.Random) -> Optional[Message]:
        queue, order = self._queue, self._order
        if not queue:
            return None
        earliest: Dict[str, int] = {}  # recipient -> queue index, in first-message order
        for index, message in enumerate(queue):
            best = earliest.get(message.recipient)
            if best is None or _arrival_order(message) < _arrival_order(queue[best]):
                earliest[message.recipient] = index
        known = set(order)
        order += [recipient for recipient in earliest if recipient not in known]
        for _ in range(len(order)):
            candidate = order[self._cursor % len(order)]
            self._cursor += 1
            if candidate in earliest:
                return queue.pop(earliest[candidate])
        return None


class RandomScheduler(_SendOrderScheduler):
    """Deliver a uniformly random in-flight message.

    Because the set of in-flight messages is finite and every step removes the
    selected one, every message is eventually delivered — the schedule is fair with
    probability 1.  The draw indexes the deliverable messages in send order, so
    the ``randrange`` bound and the index→message mapping match the seed's.
    """

    def pop(self, rng: random.Random) -> Optional[Message]:
        queue = self._queue
        return queue.pop(rng.randrange(len(queue))) if queue else None


@dataclass
class AdversarialScheduler(_SendOrderScheduler):
    """Delay messages to/from targeted nodes as much as fairness allows.

    Each message may be passed over at most ``max_deferrals`` times; after that it is
    delivered even if it involves a targeted node.  This models a worst-case (but
    fair) asynchronous adversary and is used by the resilience tests to confirm that
    protocol outputs do not depend on scheduling.

    A pop takes the earliest message whose budget is spent, else the earliest
    non-targeted one (which defers every targeted message by one), else the
    earliest of all.  A budget ``<= 0`` is spent from the start.
    """

    targets: frozenset = frozenset()
    max_deferrals: int = 16

    def __post_init__(self) -> None:
        budget = self.max_deferrals
        if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
            raise TypeError(f"max_deferrals must be an integer, got {budget!r}")
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._deferrals: Counter = Counter()  # msg_id -> times passed over

    def pop(self, rng: random.Random) -> Optional[Message]:
        queue, deferrals, targets = self._queue, self._deferrals, self.targets
        if not queue:
            return None
        indices = range(len(queue))
        choice = [i for i in indices if deferrals[queue[i].msg_id] >= self.max_deferrals]
        if not choice:
            targeted = [m.sender in targets or m.recipient in targets for m in queue]
            choice = [i for i in indices if not targeted[i]]
            if choice:
                deferrals.update(queue[i].msg_id for i in indices if targeted[i])
        message = queue.pop(min(choice or indices, key=lambda i: _arrival_order(queue[i])))
        del deferrals[message.msg_id]
        return message
