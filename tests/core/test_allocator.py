"""Tests for the sequential and parallel allocator blocks (Property 2)."""

import functools
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import run_block_network

from repro.adversary.coalition import Coalition
from repro.adversary.provider_behaviors import (
    EquivocatingProviderNode,
    MessageDroppingProviderNode,
)
from repro.auctions.base import AuctionResult
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.common import is_abort
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.allocator import (
    ParallelAllocatorBlock,
    SequentialAllocatorBlock,
    assign_provider_groups,
)
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.net.scheduler import RandomScheduler
from repro.scenarios import SweepSpec, load_spec, run_scenario

PROVIDERS = ["p0", "p1", "p2", "p3"]
FIG5 = pathlib.Path(__file__).resolve().parents[2] / "examples" / "specs" / "fig5.toml"


def double_bids():
    return DoubleAuctionWorkload(seed=7).generate(10, len(PROVIDERS), provider_ids=PROVIDERS)


def standard_bids(num_users=8):
    return StandardAuctionWorkload(seed=7).generate(
        num_users, len(PROVIDERS), provider_ids=PROVIDERS
    )


class RecordingMechanism:
    """Delegates to a decomposable mechanism and records each step it is asked for."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls
        self.randomized = inner.randomized

    def solve_allocation(self, bids, seed):
        self.calls.append(("allocation",))
        return self.inner.solve_allocation(bids, seed)

    def payments_for_users(self, bids, user_ids, allocation, welfare, seed):
        self.calls.append(("payments", tuple(user_ids)))
        return self.inner.payments_for_users(bids, user_ids, allocation, welfare, seed)

    def assemble(self, bids, allocation, payments):
        self.calls.append(("assemble", tuple(sorted(payments))))
        return self.inner.assemble(bids, allocation, payments)


class SpawnOrderBlock(ParallelAllocatorBlock):
    """Records the group index of every ``dt:pay/<g>`` transfer the block spawns."""

    def __init__(self, *args, spawned, **kwargs):
        super().__init__(*args, **kwargs)
        self.spawned = spawned

    def _spawn_transfer(self, g, **my_value):
        self.spawned.append(g)
        super()._spawn_transfer(g, **my_value)


class TestSequentialAllocator:
    def test_all_providers_output_same_valid_result(self):
        bids = double_bids()
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: SequentialAllocatorBlock("alloc", bids, DoubleAuction()),
        )
        results = list(outputs.values())
        assert all(isinstance(r, AuctionResult) for r in results)
        assert all(r == results[0] for r in results)
        results[0].allocation.check_feasible(bids)

    def test_differing_inputs_abort(self):
        good = double_bids()
        forged = good.replace_user(good.users[0].with_unit_value(99.0))

        def factory(nid):
            bids = forged if nid == "p3" else good
            return SequentialAllocatorBlock("alloc", bids, DoubleAuction())

        outputs = run_block_network(PROVIDERS, factory)
        assert is_abort(outputs["p0"])
        assert is_abort(outputs["p3"])

    def test_without_common_coin_still_agrees(self):
        bids = double_bids()
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: SequentialAllocatorBlock("alloc", bids, DoubleAuction()),
        )
        results = list(outputs.values())
        assert all(r == results[0] for r in results)

    def test_randomised_algorithm_agrees_thanks_to_coin(self):
        bids = standard_bids()
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: SequentialAllocatorBlock(
                "alloc", bids, StandardAuction(epsilon=0.5)
            ),
        )
        results = list(outputs.values())
        assert all(isinstance(r, AuctionResult) for r in results)
        assert all(r == results[0] for r in results)


class TestParallelAllocator:
    def test_parallel_execution_matches_sequential(self):
        bids = standard_bids()
        mechanism = StandardAuction(epsilon=0.5)
        groups = assign_provider_groups(PROVIDERS, k=1)
        parallel = run_block_network(
            PROVIDERS,
            lambda nid: ParallelAllocatorBlock("alloc", bids, mechanism, groups),
            seed=3,
        )
        sequential = run_block_network(
            PROVIDERS,
            lambda nid: SequentialAllocatorBlock("alloc", bids, mechanism),
            seed=3,
        )
        assert parallel["p0"] == sequential["p0"]
        assert all(v == parallel["p0"] for v in parallel.values())

    def test_group_counts_do_not_change_the_result(self):
        bids = standard_bids()
        mechanism = StandardAuction(epsilon=0.5)
        results = []
        for num_groups in (1, 2, 4):
            groups = assign_provider_groups(PROVIDERS, k=0, num_groups=num_groups)
            outputs = run_block_network(
                PROVIDERS,
                lambda nid, groups=groups: ParallelAllocatorBlock(
                    "alloc", bids, mechanism, groups
                ),
                seed=9,
            )
            assert all(v == outputs["p0"] for v in outputs.values())
            results.append(outputs["p0"])
        assert results[0] == results[1] == results[2]

    def test_result_is_feasible_and_well_formed(self):
        bids = standard_bids(num_users=10)
        mechanism = StandardAuction(epsilon=0.5)
        groups = assign_provider_groups(PROVIDERS, k=1)
        outputs = run_block_network(
            PROVIDERS, lambda nid: ParallelAllocatorBlock("alloc", bids, mechanism, groups)
        )
        result = outputs["p0"]
        assert isinstance(result, AuctionResult)
        result.allocation.check_feasible(bids, single_provider=True)
        assert result.payments.total_paid == pytest.approx(result.payments.total_received)

    def test_agreement_under_random_schedule(self):
        bids = standard_bids()
        mechanism = StandardAuction(epsilon=0.5)
        groups = assign_provider_groups(PROVIDERS, k=1)
        for seed in range(3):
            outputs = run_block_network(
                PROVIDERS,
                lambda nid: ParallelAllocatorBlock("alloc", bids, mechanism, groups),
                scheduler=RandomScheduler(),
                seed=seed,
            )
            assert all(v == outputs["p0"] for v in outputs.values())
            assert not is_abort(outputs["p0"])

    def test_differing_inputs_abort(self):
        good = standard_bids()
        forged = good.replace_user(good.users[0].with_unit_value(50.0))
        mechanism = StandardAuction(epsilon=0.5)
        groups = assign_provider_groups(PROVIDERS, k=1)

        def factory(nid):
            bids = forged if nid == "p0" else good
            return ParallelAllocatorBlock("alloc", bids, mechanism, groups)

        outputs = run_block_network(PROVIDERS, factory)
        assert is_abort(outputs["p1"])

    @pytest.mark.parametrize(
        "k, num_groups",
        [(1, None), (0, 4), (0, 3), (3, None)],
        ids=["two-pairs", "four-singletons", "uneven-three", "one-group-of-everyone"],
    )
    def test_every_provider_runs_each_step_of_algorithm_1_once(self, k, num_groups):
        """Allocation once, its own group's share of the winners once, assembly once.

        ``_progress`` is re-entered by every transfer that completes, so this also
        checks that a re-entry repeats no step.  The assembled map holds the
        winners alone: ``assemble`` fills in the losers.
        """
        bids = standard_bids(num_users=10)
        mechanism = StandardAuction(epsilon=0.5)
        groups = assign_provider_groups(PROVIDERS, k, num_groups)
        calls = {nid: [] for nid in PROVIDERS}
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: ParallelAllocatorBlock(
                "alloc", bids, RecordingMechanism(mechanism, calls[nid]), groups
            ),
        )
        assert not is_abort(outputs["p0"])
        assert all(v == outputs["p0"] for v in outputs.values())
        winners = outputs["p0"].allocation.winners()
        assert winners and len(winners) < len(bids.user_ids)
        for g, group in enumerate(groups):
            for nid in group:
                assert calls[nid] == [
                    ("allocation",),
                    ("payments", tuple(winners[g :: len(groups)])),
                    ("assemble", tuple(winners)),
                ]
        payments = dict(outputs["p0"].payments.user_payments)
        assert sorted(payments) == sorted(bids.user_ids)
        assert all(payments[uid] == 0.0 for uid in bids.user_ids if uid not in winners)

    def test_receiving_transfers_are_spawned_in_group_order(self):
        """Every other group's transfer in group-index order, then the provider's own.

        With twelve singleton groups the order is by index (``pay/2`` before
        ``pay/10``), not by the text of the transfer's name.
        """
        providers = [f"p{i}" for i in range(12)]
        bids = StandardAuctionWorkload(seed=7).generate(8, 12, provider_ids=providers)
        groups = assign_provider_groups(providers, k=0)
        assert len(groups) == 12
        spawned = {nid: [] for nid in providers}
        outputs = run_block_network(
            providers,
            lambda nid: SpawnOrderBlock(
                "alloc", bids, StandardAuction(epsilon=0.5), groups, spawned=spawned[nid]
            ),
        )
        assert not is_abort(outputs["p0"])
        assert all(v == outputs["p0"] for v in outputs.values())
        for g, group in enumerate(groups):
            (nid,) = group
            assert spawned[nid] == [h for h in range(12) if h != g] + [g]

    def test_an_equivocating_sender_aborts_its_receivers(self):
        """Without ``round_timeout`` a transfer whose senders disagree outputs ⊥.

        ``p1`` sends a corrupted ``pay/0`` to the first half of its peers, so the
        receivers among them (``p2``, ``p3``) hear two different payment maps for
        group 0 = {p0, p1}: their allocator aborts and so does the round.
        """
        providers = [f"p{i}" for i in range(8)]
        bids = StandardAuctionWorkload(seed=5).generate(12, 8, provider_ids=providers)
        auctioneer = DistributedAuctioneer(
            StandardAuction(epsilon=0.5),
            providers=providers,
            config=FrameworkConfig(k=1, parallel=True),
            seed=2,
        )
        assert not auctioneer.run_from_bids(bids).aborted
        equivocator = Coalition.of(
            ["p1"], functools.partial(EquivocatingProviderNode, tag_substring="dt:pay")
        )
        report = auctioneer.run(
            auctioneer.consistent_inputs(bids),
            expected_users=bids.user_ids,
            node_factory=equivocator.factory(),
        )
        assert report.aborted
        outputs = report.outcome.provider_outputs
        assert is_abort(outputs["p2"]) and is_abort(outputs["p3"])

    def test_a_silent_sender_degrades_its_transfer_onto_its_peer(self):
        """Under ``round_timeout`` a transfer closes on the senders it heard from.

        ``p1`` drops every data-transfer message it sends, so the six providers
        outside group 0 = {p0, p1} hear ``pay/0`` from ``p0`` alone and accept it
        when their transfer timer fires: the round is degraded, not aborted, and
        every provider outputs the honest pair.
        """
        providers = [f"p{i}" for i in range(8)]
        bids = StandardAuctionWorkload(seed=5).generate(12, 8, provider_ids=providers)
        auctioneer = DistributedAuctioneer(
            StandardAuction(epsilon=0.5),
            providers=providers,
            config=FrameworkConfig(k=1, parallel=True, round_timeout=0.5),
            seed=2,
        )
        honest = auctioneer.run_from_bids(bids)
        assert not honest.aborted and not honest.outcome.degraded
        silent = Coalition.of(
            ["p1"], functools.partial(MessageDroppingProviderNode, tag_substring="dt:pay")
        )
        report = auctioneer.run(
            auctioneer.consistent_inputs(bids),
            expected_users=bids.user_ids,
            node_factory=silent.factory(),
        )
        outputs = report.outcome.provider_outputs
        assert sorted(outputs) == providers
        assert all(output == honest.outcome.result for output in outputs.values())
        assert report.outcome.degraded and not report.aborted
        by_tag = report.stats.messages_by_tag
        assert by_tag["framework/alloc/dt:pay/0"] == 6
        assert by_tag["__timer__/framework/alloc/dt:pay/0"] == 6


class TestGrouping:
    def test_max_parallelism_grouping(self):
        groups = assign_provider_groups([f"p{i}" for i in range(8)], k=1)
        assert len(groups) == 4
        assert all(len(g) == 2 for g in groups)

    def test_remainder_spread(self):
        groups = assign_provider_groups([f"p{i}" for i in range(8)], k=2)
        assert len(groups) == 2
        assert sorted(len(g) for g in groups) == [4, 4]
        groups = assign_provider_groups([f"p{i}" for i in range(7)], k=1)
        assert len(groups) == 3
        assert sorted(len(g) for g in groups) == [2, 2, 3]

    def test_explicit_group_count(self):
        groups = assign_provider_groups([f"p{i}" for i in range(8)], k=1, num_groups=2)
        assert len(groups) == 2
        with pytest.raises(ValueError):
            assign_provider_groups([f"p{i}" for i in range(8)], k=1, num_groups=5)

    def test_too_few_providers(self):
        with pytest.raises(ValueError):
            assign_provider_groups(["p0"], k=1)


class DealRecordingBlock(ParallelAllocatorBlock):
    """A parallel allocator that records, per block, what its mechanism is asked.

    ``blocks`` collects every instance (a test resets it before a round), so
    the test reads each provider's group, its calls and its output after it.
    """

    blocks = []

    def on_start(self, ctx):
        self.calls = []
        self.algorithm = RecordingMechanism(self.algorithm, self.calls)
        DealRecordingBlock.blocks.append(self)
        super().on_start(ctx)


def assert_task_2_deals_the_winners(blocks):
    """One round's blocks: the groups partition the winners, at most ⌈W/p⌉ each."""
    results = [block.result for block in blocks]
    assert all(isinstance(r, AuctionResult) and r == results[0] for r in results)
    winners = results[0].allocation.winners()
    groups = blocks[0].groups
    asked = {}
    for block in blocks:
        (payments,) = [call[1] for call in block.calls if call[0] == "payments"]
        # Every member of a group is asked for the same winners.
        assert asked.setdefault(block._mine, payments) == payments
    assert sorted(asked) == list(range(len(groups)))
    dealt = [uid for g in sorted(asked) for uid in asked[g]]
    assert sorted(dealt) == winners  # a partition: each winner once, no loser
    bound = math.ceil(len(winners) / len(groups))
    assert max(len(share) for share in asked.values()) <= bound
    return winners


class TestTask2DealsWinners:
    """Task 2 is one re-solve per winner, so its groups split the winners
    (ROADMAP item 15): each winner is paid for by exactly one group, no loser
    by any, and no group holds more than ⌈W/p⌉ of the W winners."""

    def test_every_distributed_figure_5_point(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.provider_protocol.ParallelAllocatorBlock", DealRecordingBlock
        )
        sweep = load_spec(FIG5, SweepSpec)
        points = [spec for spec in sweep.scenarios() if spec.config.parallel]
        assert {(spec.users, spec.config.k) for spec in points} == {
            (n, k) for n in (25, 50, 75, 100, 125) for k in (1, 3)
        }
        for spec in points:
            DealRecordingBlock.blocks = []
            record = run_scenario(spec)
            assert len(DealRecordingBlock.blocks) == spec.providers
            winners = assert_task_2_deals_the_winners(DealRecordingBlock.blocks)
            assert record.winners == len(winners)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 14),
        m=st.integers(1, 6),
        k=st.integers(0, 2),
        data=st.data(),
    )
    def test_a_grid_of_users_providers_and_groups(self, n, m, k, data):
        if m < k + 1:
            k = m - 1
        p = data.draw(st.integers(1, m // (k + 1)), label="p")
        providers = [f"p{i}" for i in range(m)]
        bids = StandardAuctionWorkload(seed=n * 7 + m).generate(n, m, provider_ids=providers)
        groups = assign_provider_groups(providers, k, p)
        DealRecordingBlock.blocks = []
        outputs = run_block_network(
            providers,
            lambda nid: DealRecordingBlock("alloc", bids, StandardAuction(epsilon=0.5), groups),
            seed=n + m,
        )
        assert all(not is_abort(v) for v in outputs.values())
        assert len(DealRecordingBlock.blocks) == m
        assert_task_2_deals_the_winners(DealRecordingBlock.blocks)
