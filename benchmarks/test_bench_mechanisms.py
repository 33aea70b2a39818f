"""Micro-benchmarks of the allocation algorithms themselves (no distribution).

These quantify the premise of the paper's two case studies: the double auction is
cheap (sorting + a linear scan) while the standard auction is expensive and dominated
by the per-user VCG payment re-solves — which is what makes distributing/parallelising
it worthwhile.
"""

import random

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.greedy import GreedyStandardAuction
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.vcg import ExactVCGAuction
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload

#: Defense in depth next to the conftest auto-marker: the bench marker
#: must survive this file being run from outside the benchmarks rootdir.
pytestmark = pytest.mark.bench


class TestDoubleAuctionMicro:
    @pytest.mark.parametrize("num_users", (100, 1000))
    def test_double_auction_run(self, benchmark, num_users):
        bids = DoubleAuctionWorkload(seed=0).generate(num_users, 8)
        result = benchmark(DoubleAuction().run, bids)
        benchmark.extra_info["users"] = num_users
        assert result.payments.is_budget_balanced()


class TestStandardAuctionMicro:
    @pytest.mark.parametrize("num_users", (25, 50))
    def test_standard_auction_run(self, benchmark, num_users):
        bids = StandardAuctionWorkload(seed=0).generate(num_users, 8)
        mechanism = StandardAuction(epsilon=0.25)
        result = benchmark.pedantic(
            mechanism.run, args=(bids, random.Random(0)), rounds=1, iterations=1
        )
        benchmark.extra_info["users"] = num_users
        assert not result.allocation.is_empty()

    def test_allocation_phase_alone(self, benchmark):
        bids = StandardAuctionWorkload(seed=0).generate(50, 8)
        mechanism = StandardAuction(epsilon=0.25)
        allocation, welfare = benchmark(mechanism.solve_allocation, bids, 1234)
        assert welfare > 0

    def test_payment_phase_is_the_dominant_cost(self, benchmark):
        """The per-user pivots cost far more than the single allocation solve.

        The wall-clock ratio is recorded, not asserted; its deterministic cause
        is: the payment phase re-solves the allocation once per winning user.
        """
        import time

        bids = StandardAuctionWorkload(seed=0).generate(40, 8)
        mechanism = StandardAuction(epsilon=0.25)
        start = time.perf_counter()
        allocation, welfare = mechanism.solve_allocation(bids, 99)
        alloc_time = time.perf_counter() - start

        solve, re_solves = mechanism.solve_allocation, []

        def counted(reduced, seed):
            re_solves.append(seed)
            return solve(reduced, seed)

        mechanism.solve_allocation = counted
        start = time.perf_counter()
        benchmark.pedantic(
            mechanism.payments_for_users,
            args=(bids, bids.user_ids, allocation, welfare, 99),
            rounds=1,
            iterations=1,
        )
        payment_time = time.perf_counter() - start
        benchmark.extra_info["payment_over_allocation"] = payment_time / alloc_time
        assert len(re_solves) == len(allocation.winners()) > 1


class TestBaselines:
    def test_greedy_baseline(self, benchmark):
        bids = StandardAuctionWorkload(seed=0).generate(200, 8)
        result = benchmark(GreedyStandardAuction().run, bids)
        assert not result.allocation.is_empty()

    def test_exact_vcg_small_instance(self, benchmark):
        bids = StandardAuctionWorkload(seed=0).generate(9, 3)
        result = benchmark(ExactVCGAuction().run, bids)
        assert result is not None
