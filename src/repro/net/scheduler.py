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

A scheduler is an *indexed event queue*, not a function over a flat sequence: the
network pushes every message exactly once (:meth:`Scheduler.push`), pops the next
message to deliver (:meth:`Scheduler.pop`) and retires recipients as they finish
(:meth:`Scheduler.retire_recipient`).  Messages addressed to retired recipients are
*lazily* discarded — they stay inside the queue structures until a pop walks past
them, which is what keeps every operation O(log M) instead of the former O(M)
rebuild-filter-scan per delivered message.  ``pop`` returning ``None`` means no
deliverable message remains (the network then drains and drops the rest).

Every queue implementation is **bit-identical** to the seed core's
``select(in_flight, rng)`` over a flat list: same delivered message per step,
same RNG consumption, same tie-breaks.  That list-based core and its four
schedulers live on as the test oracle (``tests/net/seed_reference.py``), and the
differential test (``tests/net/test_event_queue_differential.py``) locks the
full delivery trace against it.

A scheduler instance serves one network run at a time (sequential reuse across
runs is fine: the network calls ``reset`` before the first push of each run).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from heapq import heappop, heappush
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


class RoundRobinScheduler(Scheduler):
    """Rotate over recipients, delivering each one's earliest pending message.

    This matches the turn-based presentation of the execution model: node 1 moves,
    then node 2, and so on, with every node scheduled infinitely often.

    Implementation: one binary heap per recipient plus a rotation cursor.
    Recipients are discovered in message-arrival order (the order their first
    in-flight message was sent), which makes the rotation independent of
    ``PYTHONHASHSEED`` — the seed implementation iterated a ``set`` here and
    silently depended on string hashing.
    """

    def __init__(self, order: Optional[Iterable[str]] = None) -> None:
        self._order: List[str] = list(order) if order is not None else []
        self._known: Set[str] = set(self._order)
        self._cursor = 0
        self._heaps: Dict[str, List[Tuple[float, int, Message]]] = {}
        self._undiscovered: List[str] = []
        self._retired: Set[str] = set()

    def push(self, message: Message) -> None:
        recipient = message.recipient
        if recipient in self._retired:
            return
        heap = self._heaps.get(recipient)
        if heap is None:
            heap = self._heaps[recipient] = []
        heappush(heap, (message.arrival_time, message.msg_id, message))
        if recipient not in self._known:
            self._known.add(recipient)
            self._undiscovered.append(recipient)

    def pop(self, rng: random.Random) -> Optional[Message]:
        # Discovery happens at pop time (as it did at select time in the seed
        # core): recipients whose first message arrived since the last pop join
        # the rotation now, unless they already retired — a recipient that never
        # had a deliverable message never gets a turn.
        if self._undiscovered:
            for recipient in self._undiscovered:
                if recipient not in self._retired:
                    self._order.append(recipient)
            self._undiscovered.clear()
        order = self._order
        if not order:
            return None
        for _ in range(len(order)):
            candidate = order[self._cursor % len(order)]
            self._cursor += 1
            if candidate in self._retired:
                continue
            heap = self._heaps.get(candidate)
            if heap:
                return heappop(heap)[2]
        return None

    def retire_recipient(self, node_id: str) -> None:
        self._retired.add(node_id)

    def reset(self) -> None:
        # The seed implementation kept discovered recipients across runs and
        # only rewound the cursor; preserve that.
        self._cursor = 0
        self._heaps.clear()
        self._undiscovered.clear()
        self._known = set(self._order)
        self._retired.clear()


class _IndexedLiveList:
    """Insertion-ordered list with O(log n) k-th-live selection and lazy removal.

    Backs :class:`RandomScheduler`.  A Fenwick tree over alive flags supports
    "give me the k-th live element in insertion order" without materialising the
    live list, which is what keeps the random schedule *bit-identical* to the
    seed implementation: the seed drew ``rng.randrange(len(deliverable))`` and
    indexed the deliverable list in insertion order, so both the draw bound and
    the index→message mapping must be preserved exactly.  (A plain index-swap
    array would be O(1) but permutes the order after every removal, silently
    changing every random schedule.)

    Dead slots are reclaimed by compaction — which preserves insertion order —
    once they outnumber the live ones.
    """

    __slots__ = ("_cap", "_tree", "_items", "_alive", "_size", "_live", "_by_key")

    def __init__(self, capacity: int = 64) -> None:
        self._cap = capacity
        self._tree = [0] * (capacity + 1)  # 1-indexed Fenwick tree of alive counts
        self._items: List[Optional[Message]] = [None] * capacity
        self._alive = [False] * capacity
        self._size = 0  # next free slot
        self._live = 0
        self._by_key: Dict[str, List[int]] = {}

    def __len__(self) -> int:
        return self._live

    def append(self, item: Message) -> None:
        if self._size == self._cap:
            self._rebuild()
        index = self._size
        self._size = index + 1
        self._items[index] = item
        self._alive[index] = True
        self._live += 1
        self._tree_add(index + 1, 1)
        self._by_key.setdefault(item.recipient, []).append(index)

    def pop_kth(self, k: int) -> Message:
        """Remove and return the k-th (0-based) live element in insertion order."""
        index = self._kth(k)
        item = self._items[index]
        assert item is not None
        self._kill(index)
        return item

    def kill_key(self, key: str) -> None:
        """Lazily remove every live element appended under ``key``."""
        for index in self._by_key.pop(key, ()):
            if self._alive[index]:
                self._kill(index)

    def _kill(self, index: int) -> None:
        self._alive[index] = False
        self._items[index] = None
        self._live -= 1
        self._tree_add(index + 1, -1)

    def _tree_add(self, pos: int, delta: int) -> None:
        tree = self._tree
        cap = self._cap
        while pos <= cap:
            tree[pos] += delta
            pos += pos & -pos

    def _kth(self, k: int) -> int:
        """Smallest 0-based index whose prefix holds k+1 live elements."""
        remaining = k + 1
        pos = 0
        bit = 1 << (self._cap.bit_length() - 1)
        tree = self._tree
        cap = self._cap
        while bit:
            nxt = pos + bit
            if nxt <= cap and tree[nxt] < remaining:
                remaining -= tree[nxt]
                pos = nxt
            bit >>= 1
        return pos  # pos is 1-indexed position - 1 == 0-based index

    def _rebuild(self) -> None:
        # Compact in place if at least half the slots are dead, else double.
        capacity = self._cap if self._live * 2 <= self._cap else self._cap * 2
        survivors = [item for item in self._items[: self._size] if item is not None]
        self._cap = capacity
        self._tree = [0] * (capacity + 1)
        self._items = survivors + [None] * (capacity - len(survivors))
        self._alive = [True] * len(survivors) + [False] * (capacity - len(survivors))
        self._size = len(survivors)
        self._live = len(survivors)
        self._by_key = {}
        for index, item in enumerate(survivors):
            self._tree_add(index + 1, 1)
            self._by_key.setdefault(item.recipient, []).append(index)

    def clear(self) -> None:
        self.__init__()


class RandomScheduler(Scheduler):
    """Deliver a uniformly random in-flight message.

    Because the set of in-flight messages is finite and every step removes the
    selected one, every message is eventually delivered — the schedule is fair with
    probability 1.

    Implementation: an :class:`_IndexedLiveList`; retiring a recipient kills its
    queued messages immediately so the ``randrange`` bound (and therefore the
    RNG stream) matches the seed deliverable-list semantics draw for draw.
    """

    def __init__(self) -> None:
        self._queue = _IndexedLiveList()
        self._retired: Set[str] = set()

    def push(self, message: Message) -> None:
        if message.recipient in self._retired:
            return
        self._queue.append(message)

    def pop(self, rng: random.Random) -> Optional[Message]:
        live = len(self._queue)
        if live == 0:
            return None
        return self._queue.pop_kth(rng.randrange(live))

    def retire_recipient(self, node_id: str) -> None:
        self._retired.add(node_id)
        self._queue.kill_key(node_id)

    def reset(self) -> None:
        self._queue.clear()
        self._retired.clear()


@dataclass
class AdversarialScheduler(Scheduler):
    """Delay messages to/from targeted nodes as much as fairness allows.

    Each message may be passed over at most ``max_deferrals`` times; after that it is
    delivered even if it involves a targeted node.  This models a worst-case (but
    fair) asynchronous adversary and is used by the resilience tests to confirm that
    protocol outputs do not depend on scheduling.

    Implementation: separate targeted / non-targeted heaps keyed on
    ``(arrival_time, msg_id)``.  The per-message deferral count of the seed
    implementation is equivalent to "number of non-targeted deliveries since
    this message was pushed" (every such delivery deferred every deliverable
    targeted message by one), so it is tracked *incrementally*: an era counter
    increments per non-targeted delivery, targeted messages are bucketed by
    their entry era, and the bucket whose budget just expired is promoted into
    a third "forced" heap — no per-step re-sort, no per-message dict updates.
    """

    targets: frozenset = frozenset()
    max_deferrals: int = 16

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._targeted: List[Tuple[float, int, Message]] = []
        self._clean: List[Tuple[float, int, Message]] = []
        self._forced: List[Tuple[float, int, Message]] = []
        self._era = 0
        self._buckets: Dict[int, List[Message]] = {}
        # msg_ids delivered from one heap while a twin entry remains in another
        # (targeted messages live in ``_targeted`` plus a bucket or ``_forced``).
        self._delivered: Set[int] = set()
        self._retired: Set[str] = set()
        # With a non-positive budget every message is immediately "forced": the
        # seed semantics degenerate to earliest-arrival-first over everything.
        self._all_forced = self.max_deferrals <= 0

    def _is_targeted(self, message: Message) -> bool:
        return message.sender in self.targets or message.recipient in self.targets

    def push(self, message: Message) -> None:
        if message.recipient in self._retired:
            return
        entry = (message.arrival_time, message.msg_id, message)
        if self._all_forced:
            heappush(self._forced, entry)
        elif self._is_targeted(message):
            heappush(self._targeted, entry)
            self._buckets.setdefault(self._era, []).append(message)
        else:
            heappush(self._clean, entry)

    def pop(self, rng: random.Random) -> Optional[Message]:
        retired = self._retired
        delivered = self._delivered
        # 1. Forced deliveries first: messages whose deferral budget expired
        #    (earliest-arrival order, exactly like the seed's ordered scan).
        forced = self._forced
        while forced:
            message = heappop(forced)[2]
            if message.msg_id in delivered:
                delivered.discard(message.msg_id)  # twin already delivered
                continue
            if message.recipient in retired:
                continue
            if not self._all_forced:
                delivered.add(message.msg_id)  # twin remains in _targeted
            return message
        # 2. Prefer non-targeted traffic; its delivery defers every deliverable
        #    targeted message by one (tracked via the era counter).
        clean = self._clean
        while clean:
            message = heappop(clean)[2]
            if message.recipient in retired:
                continue
            self._era += 1
            expired = self._buckets.pop(self._era - self.max_deferrals, None)
            if expired:
                for victim in expired:
                    if victim.msg_id in delivered:
                        delivered.discard(victim.msg_id)
                    elif victim.recipient not in retired:
                        heappush(
                            self._forced,
                            (victim.arrival_time, victim.msg_id, victim),
                        )
            return message
        # 3. Only targeted traffic left — fairness forces a delivery.
        targeted = self._targeted
        while targeted:
            message = heappop(targeted)[2]
            if message.msg_id in delivered:
                delivered.discard(message.msg_id)
                continue
            if message.recipient in retired:
                continue
            delivered.add(message.msg_id)  # twin remains in a bucket / _forced
            return message
        return None

    def retire_recipient(self, node_id: str) -> None:
        self._retired.add(node_id)
