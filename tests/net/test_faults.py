"""Tests for the fault-injection plane and the recovery layer.

Covers the FAULTS registry surface, each shipped fault model's predicate, the
FaultPlan determinism contract (own RNG stream, journal digest stability), and
the SimNetwork wiring: conservation, retransmission with bounded backoff,
duplicate suppression, crash/restart with state loss, and the guarantee that an
unarmed plan is a behavioural no-op.
"""

import random

import pytest

from repro.net.faults import (
    CrashFault,
    DuplicateFault,
    FaultPlan,
    LatencySpikeFault,
    LossFault,
    PartitionFault,
    RecoveryPolicy,
    ReorderFault,
    SendEffect,
    TornAppendFault,
    make_fault,
)
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.node import Node, NodeContext
from repro.scenarios.registry import FAULTS


def msg(sender="a", recipient="b", tag="t", send_time=0.0, arrival_time=0.01, msg_id=0):
    return Message(
        sender=sender,
        recipient=recipient,
        payload="x",
        tag=tag,
        send_time=send_time,
        arrival_time=arrival_time,
        size_bytes=8,
        msg_id=msg_id,
    )


# ---------------------------------------------------------------- registry ---
class TestRegistry:
    def test_all_kinds_registered(self):
        assert FAULTS.available() == [
            "crash",
            "duplicate",
            "latency_spike",
            "loss",
            "partition",
            "reorder",
            "torn_append",
        ]

    def test_make_fault_builds_each_kind(self):
        assert isinstance(make_fault("loss", {"rate": 0.5}), LossFault)
        assert isinstance(make_fault("duplicate"), DuplicateFault)
        assert isinstance(make_fault("reorder"), ReorderFault)
        assert isinstance(make_fault("latency_spike"), LatencySpikeFault)
        assert isinstance(make_fault("partition", {"nodes": ["a"]}), PartitionFault)
        assert isinstance(make_fault("crash", {"node": "a"}), CrashFault)
        assert isinstance(make_fault("torn_append"), TornAppendFault)

    def test_unknown_kind_is_a_spec_error(self):
        from repro.scenarios.spec import SpecError

        with pytest.raises(SpecError):
            make_fault("meteor_strike")

    def test_bad_params_are_spec_errors_with_path(self):
        from repro.scenarios.spec import SpecError

        with pytest.raises(SpecError, match="faults"):
            make_fault("loss", {"rate": 2.0})
        with pytest.raises(SpecError):
            make_fault("crash", {})  # node is required
        with pytest.raises(SpecError):
            make_fault("partition", {"nodes": []})


# ------------------------------------------------------------- fault models --
class TestFaultModels:
    def test_loss_is_probabilistic_and_tag_scoped(self):
        fault = LossFault(rate=1.0, tag_substring="ping")
        rng = random.Random(0)
        assert fault.on_send(msg(tag="ping"), rng) == {"drop": True, "cause": "loss"}
        assert fault.on_send(msg(tag="other"), rng) is None
        assert LossFault(rate=0.0).on_send(msg(), rng) is None

    def test_duplicate_reports_copy_count(self):
        fault = DuplicateFault(rate=1.0, copies=3)
        effect = fault.on_send(msg(), random.Random(0))
        assert effect == {"duplicates": 3, "cause": "duplicate"}

    def test_reorder_delay_is_bounded_by_magnitude(self):
        fault = ReorderFault(rate=1.0, magnitude=0.02)
        rng = random.Random(7)
        for _ in range(50):
            effect = fault.on_send(msg(), rng)
            assert 0.0 <= effect["extra_delay"] <= 0.02

    def test_latency_spike_windows_on_send_time(self):
        fault = LatencySpikeFault(at=1.0, duration=0.5, extra=0.1)
        rng = random.Random(0)
        assert fault.on_send(msg(send_time=0.9), rng) is None
        assert fault.on_send(msg(send_time=1.2), rng)["extra_delay"] == 0.1
        assert fault.on_send(msg(send_time=1.5), rng) is None

    def test_partition_drops_only_boundary_crossings_in_window(self):
        fault = PartitionFault(nodes=["a"], at=0.0, duration=1.0)
        rng = random.Random(0)
        assert fault.on_send(msg(sender="a", recipient="b", arrival_time=0.5), rng)[
            "drop"
        ]
        # Same side of the partition: no effect.
        assert fault.on_send(msg(sender="b", recipient="c", arrival_time=0.5), rng) is None
        # Healed (arrival after the window): delivered.
        assert fault.on_send(msg(sender="a", recipient="b", arrival_time=1.5), rng) is None

    def test_crash_drops_in_window_then_restarts_once(self):
        fault = CrashFault(node="n1", at=1.0, duration=1.0)
        rng = random.Random(0)
        assert fault.on_deliver(msg(recipient="n1", arrival_time=1.5), rng)["drop"]
        assert fault.on_deliver(msg(recipient="other", arrival_time=1.5), rng) is None
        first = fault.on_deliver(msg(recipient="n1", arrival_time=2.5), rng)
        assert first == {"restart": True, "cause": "restart"}
        # Restart fires exactly once...
        assert fault.on_deliver(msg(recipient="n1", arrival_time=2.6), rng) is None
        # ...until reset rewinds the run.
        fault.reset()
        assert fault.on_deliver(msg(recipient="n1", arrival_time=2.5), rng)["restart"]

    def test_torn_append_is_not_network_level(self):
        fault = TornAppendFault(drop_bytes=5)
        assert fault.network_level is False
        assert FaultPlan([fault]).armed is False
        assert FaultPlan([fault]).torn_appends() == [fault]


# ------------------------------------------------------------ recovery policy --
class TestRecoveryPolicy:
    def test_backoff_is_exponential_in_virtual_time(self):
        policy = RecoveryPolicy(base_backoff=0.05, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.05)
        assert policy.backoff(2) == pytest.approx(0.10)
        assert policy.backoff(3) == pytest.approx(0.20)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(base_backoff=-0.1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="base_backoff"):
                RecoveryPolicy(base_backoff=value)
            with pytest.raises(ValueError, match="backoff_factor"):
                RecoveryPolicy(backoff_factor=value)


# ----------------------------------------------------------------- the plan --
class TestFaultPlan:
    def test_unarmed_plan_has_no_network_models(self):
        assert FaultPlan().armed is False
        assert FaultPlan([TornAppendFault()]).armed is False
        assert FaultPlan([LossFault(rate=0.5)]).armed is True

    def test_first_drop_wins_and_stops_the_gauntlet(self):
        plan = FaultPlan([LossFault(rate=1.0), DuplicateFault(rate=1.0)], seed=0)
        effect = plan.apply_send(msg())
        assert effect.drop is True
        assert effect.duplicates == 0  # duplicate model never consulted
        assert [e["event"] for e in plan.events] == ["loss"]

    def test_effects_accumulate_across_models(self):
        plan = FaultPlan(
            [DuplicateFault(rate=1.0, copies=2), ReorderFault(rate=1.0, magnitude=0.01)],
            seed=0,
        )
        effect = plan.apply_send(msg())
        assert effect.drop is False
        assert effect.duplicates == 2
        assert effect.extra_delay > 0.0
        assert effect.injected == 2

    def test_clean_pass_returns_shared_noop_effect(self):
        plan = FaultPlan([LossFault(rate=0.0)], seed=0)
        assert plan.apply_send(msg()) == SendEffect()
        assert plan.events == []

    def test_journal_digest_is_stable_across_replays(self):
        def run():
            plan = FaultPlan(
                [LossFault(rate=0.5), ReorderFault(rate=0.5)], seed=11
            )
            for i in range(40):
                plan.apply_send(msg(msg_id=i, arrival_time=0.001 * i))
            return plan.digest()

        assert run() == run()

    def test_reset_rewinds_rng_and_journal(self):
        plan = FaultPlan([LossFault(rate=0.5)], seed=3)
        for i in range(20):
            plan.apply_send(msg(msg_id=i))
        first = plan.digest()
        plan.reset()
        assert plan.events == []
        for i in range(20):
            plan.apply_send(msg(msg_id=i))
        assert plan.digest() == first

    def test_plan_rng_is_independent_of_network_rng(self):
        # Two plans with the same seed draw identically regardless of what any
        # other RNG in the process does in between.
        plan_a = FaultPlan([LossFault(rate=0.5)], seed=5)
        random.Random(99).random()
        plan_b = FaultPlan([LossFault(rate=0.5)], seed=5)
        for i in range(30):
            plan_a.apply_send(msg(msg_id=i))
            plan_b.apply_send(msg(msg_id=i))
        assert plan_a.digest() == plan_b.digest()


# ------------------------------------------------------------ network wiring --
class Ping(Node):
    """Each node greets every peer once and finishes on a full set of greetings."""

    def __init__(self, node_id, peers):
        super().__init__(node_id)
        self._peers = peers
        self._got = set()

    def on_start(self, ctx: NodeContext) -> None:
        self._got = set()  # restart loses state
        for peer in self._peers:
            if peer != self.node_id:
                ctx.send(peer, ("hello", self.node_id), tag="ping")

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        self._got.add(message.payload[1])
        if len(self._got) >= len(self._peers) - 1:
            self.finish(output=sorted(self._got))


PEERS = ["n0", "n1", "n2"]


def run_ping(plan=None, seed=0):
    network = SimNetwork(
        latency_model=UniformLatencyModel(0.001, 0.01), seed=seed, fault_plan=plan
    )
    network.add_nodes([Ping(peer, PEERS) for peer in PEERS])
    stats = network.run()
    return network, stats


class TestNetworkWiring:
    def test_unarmed_plan_matches_no_plan_bit_for_bit(self):
        _, baseline = run_ping(plan=None, seed=42)
        _, with_empty = run_ping(plan=FaultPlan(), seed=42)
        _, with_store_only = run_ping(plan=FaultPlan([TornAppendFault()]), seed=42)
        assert with_empty == baseline
        assert with_store_only == baseline

    def test_arming_does_not_perturb_latency_or_schedule(self):
        # A plan whose models never fire still burns zero draws from the
        # network RNG, so delivery stats are identical to the fault-free run.
        _, baseline = run_ping(plan=None, seed=7)
        plan = FaultPlan([LossFault(rate=0.0)], seed=7)
        _, armed = run_ping(plan=plan, seed=7)
        assert armed.messages_delivered == baseline.messages_delivered
        assert armed.elapsed_time == baseline.elapsed_time

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conservation_under_loss(self, seed):
        plan = FaultPlan([LossFault(rate=0.3)], seed=seed)
        network, stats = run_ping(plan=plan, seed=seed)
        assert (
            stats.messages_sent
            == stats.messages_delivered + stats.messages_dropped + stats.messages_lost
        )
        assert network.in_flight_count == 0
        assert stats.messages_lost > 0
        assert stats.retransmissions > 0

    def test_retransmission_recovers_lost_messages(self):
        plan = FaultPlan([LossFault(rate=0.4)], seed=1, recovery=RecoveryPolicy())
        network, stats = run_ping(plan=plan, seed=1)
        assert network.unfinished_nodes() == []
        assert stats.retransmissions >= stats.messages_lost > 0
        retx = [e for e in plan.events if e["event"] == "retransmit"]
        assert retx and all(e["attempt"] >= 1 for e in retx)

    def test_retransmission_respects_literal_bound(self):
        plan = FaultPlan(
            [LossFault(rate=1.0)],
            seed=0,
            recovery=RecoveryPolicy(max_retries=2),
        )
        network, stats = run_ping(plan=plan, seed=0)
        # Every original plus exactly max_retries copies per origin was sent
        # and lost; the journal records the exhaustion.
        assert stats.messages_delivered == 0
        assert stats.retransmissions == 2 * 6  # 6 origins, 2 bounded retries each
        exhausted = [e for e in plan.events if e["event"] == "retransmit_exhausted"]
        assert len(exhausted) == 6
        assert all(e["attempts"] == 2 for e in exhausted)
        assert (
            stats.messages_sent
            == stats.messages_delivered + stats.messages_dropped + stats.messages_lost
        )

    def test_recovery_can_be_disabled(self):
        plan = FaultPlan(
            [LossFault(rate=1.0)],
            seed=0,
            recovery=RecoveryPolicy(enabled=False),
        )
        _, stats = run_ping(plan=plan, seed=0)
        assert stats.retransmissions == 0
        assert stats.messages_lost == stats.messages_sent

    def test_duplicates_are_delivered_but_suppressed(self):
        plan = FaultPlan([DuplicateFault(rate=1.0, copies=1)], seed=0)
        network, stats = run_ping(plan=plan, seed=0)
        assert stats.duplicates_suppressed > 0
        # Suppressed copies count as delivered (at-least-once transport)...
        assert stats.messages_delivered > 6
        # ...but each node processed each greeting exactly once.
        for peer in PEERS:
            node = network.node(peer)
            assert node.output == sorted(p for p in PEERS if p != peer)

    def test_crash_restart_loses_state_and_journal_records_it(self):
        plan = FaultPlan(
            [CrashFault(node="n1", at=0.003, duration=0.004)],
            seed=3,
            recovery=RecoveryPolicy(),
        )
        network, stats = run_ping(plan=plan, seed=3)
        events = [e["event"] for e in plan.events]
        assert "crash" in events and "restart" in events
        assert (
            stats.messages_sent
            == stats.messages_delivered + stats.messages_dropped + stats.messages_lost
        )
        assert network.in_flight_count == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_armed_run_replays_bit_identically(self, seed):
        def once():
            plan = FaultPlan(
                [
                    LossFault(rate=0.2),
                    DuplicateFault(rate=0.3),
                    ReorderFault(rate=0.5, magnitude=0.01),
                ],
                seed=seed,
            )
            network, stats = run_ping(plan=plan, seed=seed)
            outputs = {p: network.node(p).output for p in PEERS}
            return stats, plan.digest(), outputs

        assert once() == once()
