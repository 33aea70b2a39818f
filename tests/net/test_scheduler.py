"""Tests for message schedulers (fairness and ordering).

Every case drives a scheduler by hand through the push/pop/retire queue
protocol the simulator itself uses; the list-based ``select`` schedulers of
the seed core survive only as the oracle in ``tests/net/seed_reference.py``.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.net.latency import ZeroLatencyModel
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.scheduler import (
    AdversarialScheduler,
    FairScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    _IndexedLiveList,
)
from tests.net.seed_reference import SeedRandomScheduler


def make_messages():
    return [
        Message.create("a", "b", 1, send_time=0.0, arrival_time=0.3),
        Message.create("b", "c", 2, send_time=0.0, arrival_time=0.1),
        Message.create("c", "a", 3, send_time=0.0, arrival_time=0.2),
    ]


@pytest.fixture
def rng():
    return random.Random(0)


def drain_queue(scheduler, rng):
    delivered = []
    while True:
        message = scheduler.pop(rng)
        if message is None:
            return delivered
        delivered.append(message)


def filled(scheduler, messages):
    for message in messages:
        scheduler.push(message)
    return scheduler


class TestQueueProtocolFair:
    def test_pops_in_arrival_order(self, rng):
        scheduler = filled(FairScheduler(), make_messages())
        assert [m.payload for m in drain_queue(scheduler, rng)] == [2, 3, 1]

    def test_ties_broken_by_message_id(self, rng):
        first = Message.create("a", "b", "x", arrival_time=0.5)
        second = Message.create("a", "c", "y", arrival_time=0.5)
        assert filled(FairScheduler(), [second, first]).pop(rng) is first

    def test_retired_recipients_are_lazily_skipped(self, rng):
        scheduler = FairScheduler()
        for message in make_messages():
            scheduler.push(message)
        scheduler.retire_recipient("c")  # drops the earliest message (b->c)
        assert [m.payload for m in drain_queue(scheduler, rng)] == [3, 1]

    def test_push_to_retired_recipient_is_ignored(self, rng):
        scheduler = FairScheduler()
        scheduler.retire_recipient("b")
        scheduler.push(Message.create("a", "b", 1, arrival_time=0.1))
        assert scheduler.pop(rng) is None


class TestQueueProtocolRoundRobin:
    def test_rotates_over_recipients(self, rng):
        scheduler = RoundRobinScheduler(order=["a", "b", "c"])
        for message in make_messages():
            scheduler.push(message)
        assert [m.recipient for m in drain_queue(scheduler, rng)] == ["a", "b", "c"]

    def test_skips_recipients_without_traffic(self, rng):
        scheduler = RoundRobinScheduler(order=["z", "b"])
        scheduler.push(Message.create("a", "b", 1, arrival_time=0.1))
        assert scheduler.pop(rng).recipient == "b"

    def test_discovery_follows_first_message_order(self, rng):
        scheduler = RoundRobinScheduler()
        scheduler.push(Message.create("x", "b", 1, arrival_time=0.9))
        scheduler.push(Message.create("x", "a", 2, arrival_time=0.1))
        scheduler.push(Message.create("x", "b", 3, arrival_time=0.2))
        # b was pushed first, so the rotation starts with b despite a's earlier
        # arrival time.
        assert [m.payload for m in drain_queue(scheduler, rng)] == [3, 2, 1]

    def test_retired_recipient_loses_its_turn(self, rng):
        scheduler = RoundRobinScheduler(order=["a", "b"])
        scheduler.push(Message.create("x", "a", "to-a", arrival_time=0.1))
        scheduler.push(Message.create("x", "b", "to-b", arrival_time=0.2))
        scheduler.retire_recipient("a")
        assert scheduler.pop(rng).payload == "to-b"
        assert scheduler.pop(rng) is None


class TestQueueProtocolRandom:
    def test_all_messages_eventually_delivered(self, rng):
        delivered = drain_queue(filled(RandomScheduler(), make_messages()), rng)
        assert len({m.msg_id for m in delivered}) == 3

    def test_matches_the_oracle_select_draw_for_draw(self):
        """The queue consumes the RNG exactly like the seed core's list path."""
        def batch(i):
            return [
                Message.create("s", f"r{j}", (i, j), arrival_time=0.1 * j, msg_id=i * 10 + j)
                for j in range(4)
            ]

        queue_rng, legacy_rng = random.Random(7), random.Random(7)
        scheduler, oracle = RandomScheduler(), SeedRandomScheduler()
        pool = []
        queue_picks, legacy_picks = [], []
        for i in range(6):
            for message in batch(i):
                scheduler.push(message)
            pool.extend(batch(i))
            for _ in range(3):
                queue_picks.append(scheduler.pop(queue_rng).payload)
                chosen = oracle.select(pool, legacy_rng)
                legacy_picks.append(chosen.payload)
                pool.remove(chosen)
        assert queue_picks == legacy_picks

    def test_retire_removes_messages_from_the_draw(self, rng):
        scheduler = RandomScheduler()
        for j in range(20):
            scheduler.push(Message.create("s", "dead" if j % 2 else "live", j))
        scheduler.retire_recipient("dead")
        delivered = drain_queue(scheduler, rng)
        assert len(delivered) == 10
        assert all(m.recipient == "live" for m in delivered)


class TestQueueProtocolAdversarial:
    def test_defers_targeted_traffic(self, rng):
        scheduler = AdversarialScheduler(targets=frozenset({"a"}))
        targeted = Message.create("a", "b", "t", arrival_time=0.0)
        clean = Message.create("b", "c", "c", arrival_time=1.0)
        scheduler.push(targeted)
        scheduler.push(clean)
        assert scheduler.pop(rng) is clean
        assert scheduler.pop(rng) is targeted

    def test_fairness_budget_forces_delivery(self, rng):
        scheduler = AdversarialScheduler(targets=frozenset({"a"}), max_deferrals=3)
        targeted = Message.create("a", "b", "t", arrival_time=0.0)
        scheduler.push(targeted)
        for i in range(10):
            scheduler.push(Message.create("b", "c", i, arrival_time=1.0 + i))
        delivered = drain_queue(scheduler, rng)
        assert targeted in delivered[: scheduler.max_deferrals + 1]

    def test_only_targeted_traffic_left_is_delivered(self, rng):
        scheduler = AdversarialScheduler(targets=frozenset({"a"}))
        targeted = Message.create("a", "b", "t", arrival_time=0.0)
        scheduler.push(targeted)
        assert scheduler.pop(rng) is targeted

    def test_zero_budget_degenerates_to_earliest_first(self, rng):
        scheduler = AdversarialScheduler(targets=frozenset({"a"}), max_deferrals=0)
        targeted = Message.create("a", "b", "t", arrival_time=0.0)
        clean = Message.create("b", "c", "c", arrival_time=1.0)
        scheduler.push(targeted)
        scheduler.push(clean)
        assert scheduler.pop(rng) is targeted

    def test_retired_targeted_traffic_never_surfaces(self, rng):
        scheduler = AdversarialScheduler(targets=frozenset({"a"}), max_deferrals=1)
        doomed = Message.create("a", "b", "doomed", arrival_time=0.0)
        scheduler.push(doomed)
        scheduler.push(Message.create("b", "c", 1, arrival_time=1.0))
        scheduler.push(Message.create("b", "c", 2, arrival_time=2.0))
        scheduler.retire_recipient("b")
        assert [m.payload for m in drain_queue(scheduler, rng)] == [1, 2]


class TestQueueProtocolIsRequired:
    def test_base_class_is_abstract(self):
        class PushOnly(Scheduler):
            def push(self, message):
                pass

        with pytest.raises(TypeError, match=r"abstract"):
            PushOnly()

    def test_select_only_object_is_rejected_at_construction(self):
        class SelectOnly:
            def select(self, in_flight, rng):
                return in_flight[0]

            def reset(self):
                pass

        with pytest.raises(TypeError, match=r"SelectOnly .*push / pop / retire_recipient / reset"):
            SimNetwork(latency_model=ZeroLatencyModel(), scheduler=SelectOnly())


class TestIndexedLiveList:
    """The order-statistics structure behind RandomScheduler."""

    def test_matches_naive_list_through_churn_and_compaction(self):
        rng = random.Random(13)
        live = _IndexedLiveList(capacity=8)  # tiny capacity: forces rebuilds
        naive = []
        counter = 0
        for _ in range(2000):
            action = rng.random()
            if action < 0.55 or not naive:
                message = Message.create(
                    "s", f"r{rng.randrange(5)}", counter, msg_id=counter
                )
                counter += 1
                live.append(message)
                naive.append(message)
            elif action < 0.9:
                k = rng.randrange(len(naive))
                assert live.pop_kth(k) is naive.pop(k)
            else:
                key = f"r{rng.randrange(5)}"
                live.kill_key(key)
                naive = [m for m in naive if m.recipient != key]
            assert len(live) == len(naive)
        while naive:
            assert live.pop_kth(0) is naive.pop(0)


class TestRoundRobinHashSeedRegression:
    def test_trace_is_independent_of_pythonhashseed(self):
        """Seed bug: recipient discovery iterated a set, so the rotation (and the
        whole trace) changed with string hash randomisation.  Two interpreter
        runs with different hash seeds must now produce identical traces."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.net.latency import ConstantLatencyModel\n"
            "from repro.net.network import SimNetwork\n"
            "from repro.net.node import Node\n"
            "from repro.net.scheduler import RoundRobinScheduler\n"
            "class Gossip(Node):\n"
            "    def on_start(self, ctx):\n"
            "        ctx.broadcast(list(ctx.peers), 'hello', tag='hi')\n"
            "    def on_message(self, ctx, message):\n"
            "        if message.payload == 'hello':\n"
            "            ctx.send(message.sender, 'ack')\n"
            "        elif not self.finished:\n"
            "            self.acks = getattr(self, 'acks', 0) + 1\n"
            "            if self.acks >= 3:\n"
            "                self.finish(self.acks)\n"
            "net = SimNetwork(latency_model=ConstantLatencyModel(0.01),\n"
            "                 scheduler=RoundRobinScheduler(), seed=0)\n"
            "trace = []\n"
            "names = ['alpha', 'beta', 'gamma', 'delta', 'epsilon', 'zeta']\n"
            "for name in names:\n"
            "    node = Gossip(name)\n"
            "    original = node.on_message\n"
            "    def wrap(ctx, message, _orig=original):\n"
            "        trace.append(message.msg_id)\n"
            "        _orig(ctx, message)\n"
            "    node.on_message = wrap\n"
            "    net.add_node(node)\n"
            "net.run()\n"
            "print(','.join(map(str, trace)))\n"
        )

        def run_with_hash_seed(value):
            env = dict(os.environ, PYTHONHASHSEED=value)
            result = subprocess.run(
                [sys.executable, "-c", script, src],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            return result.stdout.strip()

        first = run_with_hash_seed("1")
        second = run_with_hash_seed("4242")
        assert first  # the scenario actually delivered something
        assert first == second
