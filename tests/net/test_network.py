"""Tests for the discrete-event network simulator."""

import random

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.common import stable_hash
from repro.community.workload import DoubleAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.net.faults import (
    CrashFault,
    DuplicateFault,
    FaultPlan,
    LatencySpikeFault,
    LossFault,
    PartitionFault,
    RecoveryPolicy,
    ReorderFault,
)
from repro.net.latency import BandwidthLatencyModel, ConstantLatencyModel, UniformLatencyModel
from repro.net.message import Message
from repro.net.network import QuiescenceError, SimNetwork
from repro.net.node import Node, NodeContext
from repro.runtime.auction_run import AuctionRun


class Echo(Node):
    """Replies to every "ping" with a "pong" and finishes after one exchange."""

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        if message.payload == "ping":
            ctx.send(message.sender, "pong")
        elif message.payload == "pong":
            self.finish("done")


class Starter(Echo):
    def __init__(self, node_id: str, target: str) -> None:
        super().__init__(node_id)
        self.target = target

    def on_start(self, ctx: NodeContext) -> None:
        ctx.send(self.target, "ping")


class TimerNode(Node):
    def on_start(self, ctx: NodeContext) -> None:
        ctx.set_timer(0.5, "wake")

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        if message.is_timer():
            self.finish(ctx.now())


class Charger(Node):
    def on_start(self, ctx: NodeContext) -> None:
        ctx.charge(0.25)
        self.finish("charged")

    def on_message(self, ctx, message):  # pragma: no cover - never called
        pass


class LoopForever(Node):
    def on_start(self, ctx: NodeContext) -> None:
        ctx.send(self.node_id if False else ctx.peers[1], 0)

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        ctx.send(message.sender, message.payload + 1)


class TestBasicExecution:
    def test_ping_pong_completes(self):
        net = SimNetwork()
        net.add_node(Starter("a", target="b"))
        net.add_node(Echo("b"))
        stats = net.run()
        assert net.node("a").finished
        assert net.node("a").output == "done"
        assert stats.messages_delivered == 2

    def test_duplicate_node_ids_rejected(self):
        net = SimNetwork()
        net.add_node(Echo("a"))
        with pytest.raises(ValueError):
            net.add_node(Echo("a"))

    def test_unknown_recipient_raises(self):
        class Bad(Node):
            def on_start(self, ctx):
                ctx.send("ghost", "boo")

            def on_message(self, ctx, message):
                pass

        net = SimNetwork()
        net.add_node(Bad("a"))
        with pytest.raises(KeyError):
            net.run()

    def test_add_node_after_start_rejected(self):
        net = SimNetwork()
        net.add_node(Echo("a"))
        net.start()
        with pytest.raises(RuntimeError):
            net.add_node(Echo("b"))

    def test_quiescence_error_on_livelock(self):
        net = SimNetwork()
        net.add_node(LoopForever("a"))
        net.add_node(LoopForever("b"))
        with pytest.raises(QuiescenceError):
            net.run(max_steps=50)


class TestVirtualTime:
    def test_latency_advances_clocks(self):
        net = SimNetwork(latency_model=ConstantLatencyModel(0.1))
        net.add_node(Starter("a", target="b"))
        net.add_node(Echo("b"))
        stats = net.run()
        # Two hops of 0.1 s each on the critical path.
        assert stats.elapsed_time == pytest.approx(0.2)

    def test_timer_fires_at_virtual_time(self):
        net = SimNetwork()
        net.add_node(TimerNode("t"))
        net.run()
        assert net.node("t").output == pytest.approx(0.5)

    def test_explicit_charge_counts_as_busy_time(self):
        net = SimNetwork()
        net.add_node(Charger("c"))
        stats = net.run()
        assert stats.elapsed_time == pytest.approx(0.25)
        assert stats.node_busy["c"] == pytest.approx(0.25)

    def test_messages_to_finished_nodes_are_dropped(self):
        class Sender(Node):
            def on_start(self, ctx):
                ctx.send("sink", 1)
                ctx.send("sink", 2)

            def on_message(self, ctx, message):
                pass

        class Sink(Node):
            def on_message(self, ctx, message):
                self.finish(message.payload)

        net = SimNetwork()
        net.add_node(Sender("src"))
        net.add_node(Sink("sink"))
        stats = net.run()
        assert net.node("sink").output in (1, 2)
        assert stats.messages_dropped >= 1

    def test_stats_group_traffic_by_block_path(self):
        class Tagged(Node):
            def on_start(self, ctx):
                ctx.send("b", 1, tag="blk|x")

            def on_message(self, ctx, message):
                self.finish(None)

        class Receiver(Node):
            def on_message(self, ctx, message):
                self.finish(None)

        net = SimNetwork()
        net.add_node(Tagged("a"))
        net.add_node(Receiver("b"))
        stats = net.run()
        assert stats.messages_by_tag.get("blk") == 1

    def test_deterministic_given_seed(self):
        def run_once():
            net = SimNetwork(latency_model=ConstantLatencyModel(0.01), seed=3)
            net.add_node(Starter("a", target="b"))
            net.add_node(Echo("b"))
            stats = net.run()
            return stats.elapsed_time, stats.messages_delivered

        assert run_once() == run_once()


class Recorder(Node):
    """Echo node that records the msg_id of every delivery it sees."""

    def __init__(self, node_id: str, trace, target: str = "") -> None:
        super().__init__(node_id)
        self.trace = trace
        self.target = target

    def on_start(self, ctx):
        if self.target:
            ctx.send(self.target, "ping")

    def on_message(self, ctx, message):
        self.trace.append(message.msg_id)
        if message.payload == "ping":
            ctx.send(message.sender, "pong")
        elif message.payload == "pong":
            self.finish("done")


class TestPerNetworkMessageIds:
    def _trace_one_run(self):
        trace = []
        net = SimNetwork(latency_model=ConstantLatencyModel(0.01), seed=3)
        net.add_node(Recorder("a", trace, target="b"))
        net.add_node(Recorder("b", trace))
        net.run()
        return trace

    def test_ids_do_not_depend_on_earlier_networks(self):
        """Seed bug-by-design: ids came from a process-global counter, so traces
        depended on how many networks ran earlier in the process."""
        first = self._trace_one_run()
        Message.create("x", "y", "unrelated traffic elsewhere in the process")
        second = self._trace_one_run()
        assert first == second
        assert min(first) == 0  # allocation starts at zero for every network

    def test_messages_outside_a_network_use_the_global_counter(self):
        first = Message.create("a", "b", 1)
        self._trace_one_run()  # network ids stay out of the global sequence
        second = Message.create("a", "b", 2)
        assert second.msg_id > first.msg_id


class TestInFlightIntrospection:
    def test_in_flight_count_matches_list_without_copying(self):
        net = SimNetwork(latency_model=ConstantLatencyModel(0.5))
        net.add_node(Starter("a", target="b"))
        net.add_node(Echo("b"))
        net.start()
        assert net.in_flight_count == 1
        assert len(net.in_flight) == net.in_flight_count
        net.run()
        assert net.in_flight_count == 0
        assert net.in_flight == []


def auction_round(monkeypatch, users=40, providers=8, seed=1):
    """One full ``AuctionRun`` round (bidder nodes + providers, k=2, jittered WAN
    latency); returns ``(network, result, bids)`` — the run's own network."""
    networks = []

    class Captured(SimNetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            networks.append(self)

    monkeypatch.setattr("repro.runtime.auction_run.SimNetwork", Captured)
    bids = DoubleAuctionWorkload(seed=seed).generate(users, providers)
    result = AuctionRun(
        bids,
        DoubleAuction(),
        config=FrameworkConfig(k=2),
        latency_model=BandwidthLatencyModel(
            base=0.003, bandwidth_bytes_per_s=12.5e6, jitter=0.001
        ),
        seed=seed,
    ).execute()
    (network,) = networks
    return network, result, bids


class Gossip(Node):
    """Greets every peer, answers the first ``replies`` messages it gets, and
    finishes after ``budget`` deliveries (``None``: never)."""

    def __init__(self, node_id, peers, budget, replies=3):
        super().__init__(node_id)
        self._peers = [p for p in peers if p != node_id]
        self._budget = budget
        self._replies = replies

    def on_start(self, ctx):
        self._seen = 0  # a crash restart loses state
        ctx.broadcast(self._peers, ("hello", self.node_id), tag="gossip|hello")

    def on_message(self, ctx, message):
        self._seen += 1
        if self._seen <= self._replies:
            ctx.send(message.sender, ("re", self.node_id), tag="gossip|re")
        if self._budget is not None and self._seen >= self._budget:
            self.finish(self._seen)


GOSSIPERS = ["g0", "g1", "g2", "g3"]


def run_gossip(plan=None, budgets=(3, 4, 5, 6), seed=2):
    network = SimNetwork(
        latency_model=UniformLatencyModel(0.001, 0.01), seed=seed, fault_plan=plan
    )
    network.add_nodes(
        [Gossip(nid, GOSSIPERS, budget) for nid, budget in zip(GOSSIPERS, budgets)]
    )
    return network, network.run()


def accounted(network):
    stats = network.stats
    return (
        stats.messages_delivered
        + stats.messages_dropped
        + stats.messages_lost
        + network.in_flight_count
    )


class TestConservation:
    """``sent == delivered + dropped + lost + in flight`` at the end of every run
    — with one in-flight structure left, the guard that it is the right one."""

    def test_full_auction_round_leaves_its_leftovers_in_flight(self, monkeypatch):
        network, result, bids = auction_round(monkeypatch)
        stats = network.stats
        assert not result.aborted
        assert stats.messages_sent == accounted(network)
        assert stats.messages_dropped == stats.messages_lost == 0
        # Every node finished, so nothing was drained: the bid-deadline timers
        # of providers that started early are still in flight, and the
        # three-term form does not hold on this run.
        leftovers = network.in_flight
        assert leftovers and all(m.is_timer() for m in leftovers)
        assert sorted(m.recipient for m in leftovers) == sorted(bids.provider_ids)
        assert stats.messages_sent == stats.messages_delivered + len(leftovers)

    def test_quiescent_run_drains_to_the_three_term_form(self):
        # One node never finishes: the run ends by quiescence and drains.
        network, stats = run_gossip(budgets=(3, 4, 5, None))
        assert network.unfinished_nodes() == ["g3"]
        assert network.in_flight_count == 0
        assert stats.messages_dropped > 0
        assert stats.messages_sent == accounted(network)
        assert stats.messages_sent == stats.messages_delivered + stats.messages_dropped

    @pytest.mark.parametrize(
        "make_fault",
        [
            lambda: LossFault(rate=0.3),
            lambda: DuplicateFault(rate=0.5, copies=2),
            lambda: ReorderFault(rate=0.5, magnitude=0.02),
            lambda: LatencySpikeFault(at=0.0, duration=0.005, extra=0.03),
            lambda: PartitionFault(nodes=["g0"], at=0.0, duration=0.008),
            lambda: CrashFault(node="g1", at=0.002, duration=0.004),
        ],
        ids=["loss", "duplicate", "reorder", "latency_spike", "partition", "crash"],
    )
    def test_armed_run_settles_to_the_three_term_form(self, make_fault):
        # Every node finishes, so it is the run-end settlement that drains here.
        plan = FaultPlan([make_fault()], seed=5)
        network, stats = run_gossip(plan=plan)
        assert network.unfinished_nodes() == []
        assert stats.faults_injected > 0 and stats.messages_dropped > 0
        assert network.in_flight_count == 0
        assert stats.messages_sent == accounted(network)
        assert (
            stats.messages_sent
            == stats.messages_delivered + stats.messages_dropped + stats.messages_lost
        )


class OneShot(Node):
    def on_start(self, ctx):
        ctx.send("sink", ("payload", 1), tag="blk|x")

    def on_message(self, ctx, message):  # pragma: no cover - never addressed
        pass


class Sink(Node):
    def on_message(self, ctx, message):
        self.finish(message.payload)


def changed_fields(original: Message, copy: Message):
    return {
        name
        for name in Message._fields
        if getattr(original, name) != getattr(copy, name)
    }


class TestFaultPlaneCopies:
    """The copies the fault plane makes differ from the send in the named fields only."""

    def _in_flight_after_start(self, plan=None):
        network = SimNetwork(
            latency_model=ConstantLatencyModel(0.01), seed=0, fault_plan=plan
        )
        network.add_nodes([OneShot("src"), Sink("sink")])
        network.start()
        return network.in_flight

    def test_extra_delay_moves_the_arrival_time_only(self):
        (original,) = self._in_flight_after_start()
        plan = FaultPlan([LatencySpikeFault(at=0.0, duration=1.0, extra=0.25)])
        (delayed,) = self._in_flight_after_start(plan)
        assert changed_fields(original, delayed) == {"arrival_time"}
        assert delayed.arrival_time == original.arrival_time + 0.25

    def test_duplicate_gets_a_fresh_id_and_the_origin(self):
        plan = FaultPlan([DuplicateFault(rate=1.0, copies=2)])
        original, first, second = self._in_flight_after_start(plan)
        assert original.origin is None
        for expected_id, duplicate in ((1, first), (2, second)):
            assert changed_fields(original, duplicate) == {"msg_id", "origin"}
            assert duplicate.msg_id == expected_id
            assert duplicate.origin == original.msg_id

    def test_retransmission_gets_a_fresh_id_the_origin_and_a_backoff(self):
        (original,) = self._in_flight_after_start()
        policy = RecoveryPolicy(base_backoff=0.02)
        # The partition heals between the send's arrival and the retry's.
        plan = FaultPlan(
            [PartitionFault(nodes=["sink"], at=0.0, duration=0.015)], recovery=policy
        )
        (retry,) = self._in_flight_after_start(plan)
        assert changed_fields(original, retry) == {"msg_id", "origin", "arrival_time"}
        assert (retry.msg_id, retry.origin) == (1, original.msg_id)
        assert retry.arrival_time == original.arrival_time + policy.backoff(1)


class Drawer(Node):
    """Ping-pongs with its peer and draws from ``ctx.rng`` on every handler
    call from delivery number ``first_draw_at`` on (0: from ``on_start``)."""

    def __init__(self, node_id, peer, first_draw_at, deliveries=60):
        super().__init__(node_id)
        self.peer = peer
        self.first_draw_at = first_draw_at
        self.deliveries = deliveries
        self.draws = []
        self.seen = 0

    def _maybe_draw(self, ctx):
        if self.seen >= self.first_draw_at:
            self.draws.append(ctx.rng.random())

    def on_start(self, ctx):
        self._maybe_draw(ctx)
        ctx.send(self.peer, "ball")

    def on_message(self, ctx, message):
        self.seen += 1
        self._maybe_draw(ctx)
        if self.seen >= self.deliveries:
            self.finish(self.seen)
        else:
            ctx.send(self.peer, "ball")


def reference_stream(seed, node_id, count):
    rng = random.Random(stable_hash(seed, node_id))
    return [rng.random() for _ in range(count)]


class TestLazyNodeGenerators:
    @pytest.mark.parametrize("first_draw_at", [0, 50])
    def test_stream_does_not_depend_on_when_it_is_first_touched(self, first_draw_at):
        network = SimNetwork(latency_model=ConstantLatencyModel(0.001), seed=9)
        network.add_nodes(
            [Drawer("a", "b", first_draw_at), Drawer("b", "a", first_draw_at=10**9)]
        )
        network.run()
        drawer = network.node("a")
        assert len(drawer.draws) >= 10
        assert drawer.draws == reference_stream(9, "a", len(drawer.draws))
        assert list(network._node_rngs) == ["a"]  # "b" never drew, so never built one

    def test_stream_continues_across_a_crash_restart(self):
        plan = FaultPlan([CrashFault(node="a", at=0.01, duration=0.01)], seed=1)
        network = SimNetwork(
            latency_model=ConstantLatencyModel(0.001), seed=9, fault_plan=plan
        )
        network.add_nodes(
            [Drawer("a", "b", 0, deliveries=30), Drawer("b", "a", 10**9, deliveries=30)]
        )
        network.run()
        assert "restart" in [event["event"] for event in plan.events]
        drawer = network.node("a")
        # on_start ran twice and kept drawing from the one generator: the
        # restart loses the node's state, not its randomness.
        assert drawer.draws == reference_stream(9, "a", len(drawer.draws))

    def test_round_builds_a_generator_only_for_the_nodes_that_draw(self, monkeypatch):
        network, _result, bids = auction_round(monkeypatch)
        assert len(network.node_ids) == 48
        assert sorted(network._node_rngs) == sorted(bids.provider_ids)
