"""A simulated round ends when its owner closes the network.

After :meth:`SimNetwork.close` nothing in the round's object graph points back
into it, so reference counting frees the whole round and the cyclic
collector finds nothing.  Every round kind is checked the same way: collect,
disable the collector, run one round and let go of its result, then
``gc.collect()`` must find zero unreachable objects.
"""

import gc

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.engine import VectorizedStandardAuction
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.core.provider_protocol import FrameworkProviderNode
from repro.adversary.coalition import Coalition
from repro.net.faults import CrashFault, FaultPlan, RecoveryPolicy
from repro.net.latency import ConstantLatencyModel
from repro.net.network import SimNetwork
from repro.net.protocol import ProtocolBlock, ProtocolNode
from repro.runtime.auction_run import AuctionRun
from repro.scenarios import ChaosSpec, run_chaos, spec_from_dict
from repro.scenarios.registry import ADVERSARIES, FAULTS
from repro.scenarios.spec import ComponentSpec

PROVIDERS = ["p0", "p1", "p2", "p3"]


def unreachable_after(round_fn):
    """Objects the cyclic collector finds once ``round_fn()``'s result is dropped."""
    gc.collect()
    gc.disable()
    try:
        round_fn()
        return gc.collect()
    finally:
        gc.enable()


def double_bids(users=8, providers=PROVIDERS):
    return DoubleAuctionWorkload(seed=3).generate(users, len(providers), provider_ids=providers)


def auctioneer(algorithm=None, **kwargs):
    return DistributedAuctioneer(
        algorithm if algorithm is not None else DoubleAuction(),
        providers=PROVIDERS,
        config=FrameworkConfig(k=1),
        **kwargs,
    )


# ------------------------------------------------------------------ rounds --
class TestEveryRoundEndsAcyclic:
    def test_honest_double_auction_round(self):
        bids = double_bids()
        assert unreachable_after(lambda: auctioneer().run_from_bids(bids)) == 0

    def test_honest_vectorized_standard_round(self):
        bids = StandardAuctionWorkload(seed=3).generate(8, 4, provider_ids=PROVIDERS)
        algorithm = VectorizedStandardAuction(epsilon=0.5)
        assert unreachable_after(lambda: auctioneer(algorithm).run_from_bids(bids)) == 0

    def test_auction_run_round(self):
        bids = double_bids(users=6)
        round_fn = lambda: AuctionRun(bids, DoubleAuction(), FrameworkConfig(k=1)).execute()
        assert unreachable_after(round_fn) == 0

    @pytest.mark.parametrize("kind", ADVERSARIES.available())
    def test_deviant_provider_round(self, kind):
        bids = double_bids()
        coalition = Coalition.of(["p1"], ADVERSARIES.create(ComponentSpec(kind), "adversaries[0]"))
        distributed = auctioneer()

        def round_fn():
            return distributed.run(
                distributed.consistent_inputs(bids),
                expected_users=[u.user_id for u in bids.users],
                node_factory=coalition.factory(),
            )

        assert unreachable_after(round_fn) == 0

    @pytest.mark.parametrize("kind", FAULTS.available())
    def test_chaos_cell(self, kind):
        fault = {
            "crash": {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002},
            "latency_spike": {"kind": "latency_spike", "at": 0.001, "duration": 0.002},
            "partition": {"kind": "partition", "nodes": ["p01"], "at": 0.001, "duration": 0.01},
        }.get(kind, kind)
        spec = spec_from_dict(
            {
                "name": "lifetime",
                "base": {
                    "mechanism": "double",
                    "users": 6,
                    "providers": 3,
                    "config": {"k": 1},
                    "latency": "constant",
                },
                "faults": [fault],
                "seeds": [0],
                "recovery": {"max_retries": 3},
            },
            ChaosSpec,
        )
        assert unreachable_after(lambda: run_chaos(spec)) == 0


# ----------------------------------------------------------- close() itself --
class _Hello(ProtocolBlock):
    def on_start(self, ctx):
        ctx.broadcast("hi", subtag="hi")

    def on_message(self, ctx, sender, subtag, payload):
        pass


class _Ticker(ProtocolBlock):
    """Arms one timer; when it fires, logs it and broadcasts once more."""

    def __init__(self, name, delay, fired):
        super().__init__(name)
        self.delay, self.fired = delay, fired

    def on_start(self, ctx):
        ctx.set_timer(self.delay, "tick")

    def on_message(self, ctx, sender, subtag, payload):
        pass

    def on_timer(self, ctx, subtag):
        self.fired.append((ctx.node_id, ctx.path))
        ctx.broadcast("late", subtag="late")


class _Root(ProtocolBlock):
    """Never completes.  Spawns ``c<incarnation>``, a ticker, and — on every
    node but ``b`` — ``extra``, whose traffic ``b`` can only buffer."""

    def __init__(self, incarnation, fired):
        super().__init__("root")
        self.incarnation, self.fired = incarnation, fired

    def on_start(self, ctx):
        delay = 0.006 if ctx.node_id == "b" else 0.003
        ticker = _Ticker("c", delay, self.fired)
        ctx.spawn(f"c{self.incarnation}", ticker, lambda block: None)
        if ctx.node_id != "b":
            ctx.spawn("extra", _Hello("extra"), lambda block: None)

    def on_message(self, ctx, sender, subtag, payload):
        pass


def ticking_network(plan, fired):
    network = SimNetwork(latency_model=ConstantLatencyModel(0.001), seed=1, fault_plan=plan)
    ids = ["a", "b", "c"]
    starts = {node_id: 0 for node_id in ids}

    def root(node_id):
        starts[node_id] += 1
        return _Root(starts[node_id] - 1, fired)

    for node_id in ids:
        network.add_node(ProtocolNode(node_id, ids, "root", lambda n=node_id: root(n)))
    return network


def provider_network():
    bids = double_bids()
    inputs = auctioneer().consistent_inputs(bids)
    network = SimNetwork(seed=2)
    for provider_id in PROVIDERS:
        network.add_node(
            FrameworkProviderNode(
                inputs[provider_id],
                DoubleAuction(),
                FrameworkConfig(k=1),
                [u.user_id for u in bids.users],
                PROVIDERS,
            )
        )
    return network


class TestClose:
    def test_a_closed_network_does_not_run(self):
        network = provider_network()
        network.run()
        network.close()
        with pytest.raises(RuntimeError, match="closed"):
            network.run()

    def test_results_read_the_same_after_close(self):
        network = provider_network()
        stats = network.run()

        def readings():
            return (
                network.outputs(),
                dict(network.stats.messages_by_tag),
                network.stats.messages_sent,
                network.stats.messages_delivered,
                network.in_flight_count,
                network.stats.elapsed_time,
                [network.node(p).degraded for p in PROVIDERS],
            )

        before = readings()
        network.close()
        assert network.stats is stats
        assert readings() == before
        assert len(before[0]) == len(PROVIDERS)
        assert all(not network.node(p)._host.active_paths for p in PROVIDERS)

    def test_a_crash_restart_closes_the_old_host_and_drops_its_stale_timer(self):
        # b is down for [0.0015, 0.0035): the peers' "late" broadcasts land at
        # 0.004 and restart it.  Its first incarnation had buffered the peers'
        # "extra" traffic and armed a timer for 0.006.
        plan = FaultPlan(
            [CrashFault(node="b", at=0.0015, duration=0.002)], seed=1, recovery=RecoveryPolicy()
        )
        fired = []
        network = ticking_network(plan, fired)
        node = network.node("b")
        hosts, buffered = [], []
        start_host = node._start_host

        def recording_start_host(ctx):
            if node._host is not None:
                buffered.append(sorted(node._host._buffered))
            start_host(ctx)
            hosts.append(node._host)

        node._start_host = recording_start_host
        network.run()
        assert [event["event"] for event in plan.events].count("restart") == 1
        first, second = hosts
        assert buffered == [["root/extra"]]
        # The restart closed the first host: no active block, nothing buffered.
        assert first.active_paths == [] and not first._buffered
        # The first incarnation's timer reached the second host and was
        # dropped as stale; only the second incarnation's ticker fired.
        assert [path for node_id, path in fired if node_id == "b"] == ["root/c1"]
        assert second.active_paths == ["root", "root/c1"]
        network.close()
        assert second.active_paths == []
