"""Tests for the sequential and parallel allocator blocks (Property 2)."""

import random
from unittest import mock

import pytest

from tests.conftest import run_block_network

from repro.auctions.base import AuctionResult
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.common import is_abort
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.allocator import ParallelAllocatorBlock, SequentialAllocatorBlock
from repro.core.task_graph import TaskGraph, build_standard_auction_graph
from repro.net.scheduler import RandomScheduler

PROVIDERS = ["p0", "p1", "p2", "p3"]


def double_bids():
    return DoubleAuctionWorkload(seed=7).generate(10, len(PROVIDERS), provider_ids=PROVIDERS)


def standard_bids(num_users=8):
    return StandardAuctionWorkload(seed=7).generate(
        num_users, len(PROVIDERS), provider_ids=PROVIDERS
    )


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
            lambda nid: SequentialAllocatorBlock(
                "alloc", bids, DoubleAuction(), use_common_coin=False
            ),
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
    def _graph(self, bids, k=1, num_groups=None, mechanism=None):
        mechanism = mechanism if mechanism is not None else StandardAuction(epsilon=0.5)
        return mechanism, build_standard_auction_graph(
            mechanism, bids, PROVIDERS, k=k, num_groups=num_groups
        )

    def test_parallel_execution_matches_sequential(self):
        bids = standard_bids()
        mechanism = StandardAuction(epsilon=0.5)
        graph = build_standard_auction_graph(mechanism, bids, PROVIDERS, k=1)
        parallel = run_block_network(
            PROVIDERS,
            lambda nid: ParallelAllocatorBlock("alloc", bids, graph),
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
        for groups in (1, 2, 4):
            graph = build_standard_auction_graph(
                mechanism, bids, PROVIDERS, k=0, num_groups=groups
            )
            outputs = run_block_network(
                PROVIDERS,
                lambda nid, graph=graph: ParallelAllocatorBlock("alloc", bids, graph),
                seed=9,
            )
            assert all(v == outputs["p0"] for v in outputs.values())
            results.append(outputs["p0"])
        assert results[0] == results[1] == results[2]

    def test_result_is_feasible_and_well_formed(self):
        bids = standard_bids(num_users=10)
        mechanism = StandardAuction(epsilon=0.5)
        graph = build_standard_auction_graph(mechanism, bids, PROVIDERS, k=1)
        outputs = run_block_network(
            PROVIDERS, lambda nid: ParallelAllocatorBlock("alloc", bids, graph)
        )
        result = outputs["p0"]
        assert isinstance(result, AuctionResult)
        result.allocation.check_feasible(bids, single_provider=True)
        assert result.payments.total_paid == pytest.approx(result.payments.total_received)

    def test_agreement_under_random_schedule(self):
        bids = standard_bids()
        mechanism = StandardAuction(epsilon=0.5)
        graph = build_standard_auction_graph(mechanism, bids, PROVIDERS, k=1)
        for seed in range(3):
            outputs = run_block_network(
                PROVIDERS,
                lambda nid: ParallelAllocatorBlock("alloc", bids, graph),
                scheduler=RandomScheduler(),
                seed=seed,
            )
            assert all(v == outputs["p0"] for v in outputs.values())
            assert not is_abort(outputs["p0"])

    def test_task_order_and_receivers_are_taken_once_per_block(self):
        """The graph is fixed once execution begins: no re-sort per fix-point pass."""
        bids = standard_bids()
        _mechanism, graph = self._graph(bids)
        with mock.patch.object(
            TaskGraph, "topological_order", autospec=True, side_effect=TaskGraph.topological_order
        ) as order, mock.patch.object(
            ParallelAllocatorBlock,
            "_receivers_of",
            autospec=True,
            side_effect=ParallelAllocatorBlock._receivers_of,
        ) as receivers:
            outputs = run_block_network(
                PROVIDERS, lambda nid: ParallelAllocatorBlock("alloc", bids, graph)
            )
        assert not is_abort(outputs["p0"])
        assert order.call_count == len(PROVIDERS)
        assert receivers.call_count == len(PROVIDERS) * len(graph.tasks)

    def test_differing_inputs_abort(self):
        good = standard_bids()
        forged = good.replace_user(good.users[0].with_unit_value(50.0))
        mechanism = StandardAuction(epsilon=0.5)
        graph = build_standard_auction_graph(mechanism, good, PROVIDERS, k=1)

        def factory(nid):
            bids = forged if nid == "p0" else good
            return ParallelAllocatorBlock("alloc", bids, graph)

        outputs = run_block_network(PROVIDERS, factory)
        assert is_abort(outputs["p1"])
