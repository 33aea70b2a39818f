"""Tests for the timeout-quorum recovery mode (FrameworkConfig.round_timeout).

With a round timeout, protocol rounds that cannot fill their quorum — because a
peer is crashed, partitioned, or silenced — close with the traffic received so
far instead of waiting forever.  The run is then flagged *degraded* end to end:
block → provider node → Outcome → RunRecord.  Without a timeout (the default),
behaviour is byte-identical to the historical reliable-substrate protocol.
"""

import pytest

from repro.adversary.provider_behaviors import OutputTamperingProviderNode
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.community.workload import (
    DoubleAuctionWorkload,
    StandardAuctionWorkload,
    default_provider_ids,
)
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.core.provider_protocol import FrameworkProviderNode
from repro.net.faults import FaultPlan, RecoveryPolicy, make_fault
from repro.net.latency import UniformLatencyModel
from repro.scenarios.registry import LATENCIES
from repro.scenarios.runner import RunRecord, run_scenario
from repro.scenarios.spec import (
    ComponentSpec,
    ConfigSpec,
    ScenarioSpec,
    SpecError,
    spec_from_dict,
    spec_to_dict,
)

PROVIDERS = default_provider_ids(3)


def make_bids(users=8, seed=0):
    return StandardAuctionWorkload(seed=seed).generate(
        users, len(PROVIDERS), provider_ids=PROVIDERS
    )


def run_auction(round_timeout=None, plan=None, use_coin=True, seed=0, agreement_mode="batched"):
    auctioneer = DistributedAuctioneer(
        StandardAuction(),
        providers=PROVIDERS,
        config=FrameworkConfig(
            k=1,
            round_timeout=round_timeout,
            use_common_coin=use_coin,
            agreement_mode=agreement_mode,
        ),
        latency_model=UniformLatencyModel(0.001, 0.01),
        seed=seed,
        fault_plan=plan,
    )
    return auctioneer.run_from_bids(make_bids(seed=seed))


def eternal_partition(node, seed=0):
    plan = FaultPlan(
        [make_fault("partition", {"nodes": [node], "at": 0.0, "duration": 1e9})],
        seed=seed,
        recovery=RecoveryPolicy(max_retries=1),
    )
    plan.reset()
    return plan


class TestConfig:
    def test_round_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            FrameworkConfig(round_timeout=0.0)
        with pytest.raises(ValueError):
            FrameworkConfig(round_timeout=-1.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FrameworkConfig(round_timeout=value)
        assert FrameworkConfig(round_timeout=0.5).round_timeout == 0.5
        assert FrameworkConfig().round_timeout is None

    def test_config_spec_round_trips_round_timeout(self):
        spec = ScenarioSpec(
            name="t", runner="distributed", config=ConfigSpec(round_timeout=0.25)
        )
        data = spec_to_dict(spec)
        assert data["config"]["round_timeout"] == 0.25
        assert spec_from_dict(data).config.round_timeout == 0.25

    def test_round_timeout_absent_from_plain_spec_dict(self):
        # Fingerprint stability: specs without a timeout serialize exactly as
        # they did before the field existed.
        data = spec_to_dict(ScenarioSpec(name="t", runner="distributed"))
        assert "round_timeout" not in data["config"]

    def test_config_spec_validates_round_timeout(self):
        with pytest.raises(SpecError):
            ConfigSpec(round_timeout=-0.5)


class TestDegradedRuns:
    def test_partition_without_timeout_aborts_silently(self):
        report = run_auction(plan=eternal_partition(PROVIDERS[2]))
        assert report.outcome.aborted
        assert not report.outcome.degraded

    @pytest.mark.parametrize("agreement_mode", ["batched", "per_label", "per_bit"])
    def test_partition_with_timeout_terminates_degraded(self, agreement_mode):
        # The coin cannot agree across the partition, so the outcome is still
        # ⊥ — but every provider terminates with an explicit output and the
        # run is flagged degraded instead of silently hanging to quiescence.
        # Every agreement mode runs the one consensus block, so the faithful
        # modes honour the timeout as the batched mode does.
        report = run_auction(
            round_timeout=0.05,
            plan=eternal_partition(PROVIDERS[2]),
            agreement_mode=agreement_mode,
        )
        assert report.outcome.degraded
        assert all(
            output is not None for output in report.outcome.provider_outputs.values()
        )

    def test_deterministic_algorithm_degrades_to_the_baseline_result(self):
        # Without the coin the degraded majority side — and the partitioned
        # minority, which holds the same consistent inputs — all compute the
        # baseline allocation: graceful degradation with a usable outcome.
        baseline = run_auction(use_coin=False)
        degraded = run_auction(
            round_timeout=0.05, plan=eternal_partition(PROVIDERS[2]), use_coin=False
        )
        assert not baseline.outcome.degraded
        assert degraded.outcome.degraded
        assert not degraded.outcome.aborted
        assert degraded.outcome.result == baseline.outcome.result

    def test_timeout_with_healthy_network_is_not_degraded(self):
        baseline = run_auction()
        timed = run_auction(round_timeout=0.5)
        assert not timed.outcome.degraded
        assert timed.outcome.result == baseline.outcome.result

    def test_degraded_run_is_deterministic(self):
        def once():
            report = run_auction(
                round_timeout=0.05,
                plan=eternal_partition(PROVIDERS[2]),
                use_coin=False,
            )
            return (
                report.outcome.aborted,
                report.outcome.degraded,
                report.outcome.result,
                report.stats,
            )

        assert once() == once()

    def test_conservation_holds_on_degraded_runs(self):
        report = run_auction(
            round_timeout=0.05, plan=eternal_partition(PROVIDERS[2]), use_coin=False
        )
        stats = report.stats
        assert (
            stats.messages_sent
            == stats.messages_delivered + stats.messages_dropped + stats.messages_lost
        )


class TestRunnersReportDegraded:
    @pytest.mark.parametrize("runner", ["distributed", "auction_run"])
    def test_a_wan_round_under_a_tight_timeout_is_degraded(self, runner):
        # 4 ms is about one WAN hop (3 ms base, jitter, transfer): rounds close
        # on a partial view and the round aborts.  Both runners flag it.
        spec = spec_from_dict(
            {
                "runner": runner,
                "users": 10,
                "providers": 5,
                "latency": "wan",
                "config": {"k": 1, "round_timeout": 0.004},
                "measure_compute": False,
                "seed": 1,
            }
        )
        record = run_scenario(spec)
        assert record.aborted
        assert record.degraded


class TestDeviantProvidersReportDegraded:
    """A provider's flag is its root block's: no subclass can drop it."""

    def wan_round(self, deviant=None):
        """The degraded WAN round of ``TestRunnersReportDegraded``, with ``p00``
        built by ``deviant`` (honest when ``None``); returns ``p00`` and the report."""
        providers = default_provider_ids(5)
        bids = DoubleAuctionWorkload(seed=1).generate(10, 5, provider_ids=providers)
        nodes = {}

        def factory(provider_input, *args):
            build = FrameworkProviderNode
            if provider_input.provider_id == "p00" and deviant is not None:
                build = deviant
            node = nodes[provider_input.provider_id] = build(provider_input, *args)
            return node

        auctioneer = DistributedAuctioneer(
            DoubleAuction(),
            providers,
            FrameworkConfig(k=1, round_timeout=0.004),
            latency_model=LATENCIES.create(ComponentSpec("wan"), "latency"),
            seed=1,
        )
        report = auctioneer.run(
            auctioneer.consistent_inputs(bids),
            expected_users=bids.user_ids,
            node_factory=factory,
        )
        return nodes["p00"], report

    def test_an_output_tampering_provider_still_reports_a_degraded_round(self):
        honest, honest_report = self.wan_round()
        tampering, tampered_report = self.wan_round(
            lambda *args: OutputTamperingProviderNode(*args, bonus=5.0)
        )
        assert honest.degraded
        assert tampered_report.stats.messages_delivered == honest_report.stats.messages_delivered
        assert tampered_report.stats.bytes_delivered == honest_report.stats.bytes_delivered
        assert tampering.degraded


class TestRunRecordDegraded:
    def _record(self, degraded):
        return RunRecord(
            name="t",
            series="s",
            runner="distributed",
            mechanism="standard",
            engine="vectorized",
            users=4,
            providers=3,
            executors=3,
            k=1,
            parallel=False,
            instance=0,
            seed=0,
            elapsed_seconds=0.1,
            messages=10,
            bytes_transferred=100,
            aborted=False,
            winners=2,
            total_paid=1.0,
            total_received=1.0,
            degraded=degraded,
        )

    def test_degraded_serialized_only_when_set(self):
        assert "degraded" not in self._record(False).to_dict()
        assert self._record(True).to_dict()["degraded"] is True

    def test_round_trip(self):
        for flag in (False, True):
            record = self._record(flag)
            assert RunRecord.from_dict(record.to_dict()) == record

    def test_legacy_journals_rehydrate_without_the_field(self):
        data = self._record(False).to_dict()
        data.pop("degraded", None)
        assert RunRecord.from_dict(data).degraded is False
