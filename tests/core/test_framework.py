"""End-to-end tests of the DistributedAuctioneer / CentralizedAuctioneer APIs."""

import random

import pytest

from repro.auctions.base import AuctionResult, BidVector, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import CentralizedAuctioneer, DistributedAuctioneer
from repro.core.provider_protocol import ProviderInput
from repro.net.latency import ConstantLatencyModel
from repro.net.scheduler import RandomScheduler

PROVIDERS = [f"p{i:02d}" for i in range(4)]


def double_bids(num_users=12, seed=0):
    return DoubleAuctionWorkload(seed=seed).generate(num_users, len(PROVIDERS), provider_ids=PROVIDERS)


def standard_bids(num_users=8, seed=0):
    return StandardAuctionWorkload(seed=seed).generate(num_users, len(PROVIDERS), provider_ids=PROVIDERS)


class TestDistributedDoubleAuction:
    def test_matches_direct_execution(self):
        bids = double_bids()
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=PROVIDERS, config=FrameworkConfig(k=1)
        )
        report = auctioneer.run_from_bids(bids)
        assert not report.aborted
        assert report.result == DoubleAuction().run(bids)

    def test_all_providers_output_the_same_pair(self):
        bids = double_bids(seed=5)
        report = DistributedAuctioneer(
            DoubleAuction(), providers=PROVIDERS, config=FrameworkConfig(k=1)
        ).run_from_bids(bids)
        outputs = list(report.outcome.provider_outputs.values())
        assert all(isinstance(o, AuctionResult) for o in outputs)
        assert all(o == outputs[0] for o in outputs)

    def test_latency_and_traffic_are_accounted(self):
        bids = double_bids()
        report = DistributedAuctioneer(
            DoubleAuction(),
            providers=PROVIDERS,
            config=FrameworkConfig(k=1),
            latency_model=ConstantLatencyModel(0.01),
        ).run_from_bids(bids)
        assert report.outcome.elapsed_time > 0.01
        assert report.outcome.messages > 0
        assert report.outcome.bytes_transferred > 0

    def test_executors_can_be_a_subset_of_sellers(self):
        """Figure-4 style: 8 sellers, only the minimum 2k+1 providers run the protocol."""
        all_sellers = [f"p{i:02d}" for i in range(8)]
        bids = DoubleAuctionWorkload(seed=2).generate(10, 8, provider_ids=all_sellers)
        executors = all_sellers[:3]
        report = DistributedAuctioneer(
            DoubleAuction(), providers=executors, config=FrameworkConfig(k=1)
        ).run_from_bids(bids)
        assert not report.aborted
        # Non-executing sellers' capacity still participates in the auction.
        assert report.result == DoubleAuction().run(bids)


class TestDistributedStandardAuction:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_agreement_and_feasibility(self, parallel):
        bids = standard_bids()
        report = DistributedAuctioneer(
            StandardAuction(epsilon=0.5),
            providers=PROVIDERS,
            config=FrameworkConfig(k=1, parallel=parallel),
        ).run_from_bids(bids)
        assert not report.aborted
        report.result.allocation.check_feasible(bids, single_provider=True)

    def test_parallel_equals_sequential(self):
        bids = standard_bids(seed=3)
        seq = DistributedAuctioneer(
            StandardAuction(epsilon=0.5),
            providers=PROVIDERS,
            config=FrameworkConfig(k=1, parallel=False),
        ).run_from_bids(bids)
        par = DistributedAuctioneer(
            StandardAuction(epsilon=0.5),
            providers=PROVIDERS,
            config=FrameworkConfig(k=1, parallel=True),
        ).run_from_bids(bids)
        assert seq.result == par.result

    def test_schedule_independence(self):
        """Ex post flavour: the agreed result does not depend on the schedule."""
        bids = standard_bids(seed=9)
        reference = None
        for seed in range(3):
            report = DistributedAuctioneer(
                StandardAuction(epsilon=0.5),
                providers=PROVIDERS,
                config=FrameworkConfig(k=1, parallel=True),
                scheduler=RandomScheduler(),
                seed=0,  # same network seed: same coin, different delivery order below
            ).run_from_bids(bids)
            assert not report.aborted
            if reference is None:
                reference = report.result
            else:
                assert report.result == reference


class TestInputHandling:
    def test_requires_one_input_per_provider(self):
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=PROVIDERS, config=FrameworkConfig(k=1)
        )
        with pytest.raises(ValueError):
            auctioneer.run({"p00": ProviderInput("p00")})

    def test_quorum_enforced_at_construction(self):
        with pytest.raises(ValueError):
            DistributedAuctioneer(
                DoubleAuction(), providers=PROVIDERS[:2], config=FrameworkConfig(k=1)
            )

    def test_inconsistent_received_bids_still_agree(self):
        """Providers received different bids from an equivocating user; the outcome is
        still a single agreed pair (not ⊥), built from one of the submitted bids."""
        bids = double_bids()
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=PROVIDERS, config=FrameworkConfig(k=1)
        )
        inputs = auctioneer.consistent_inputs(bids)
        victim = bids.users[0].user_id
        inputs["p00"].received_user_bids[victim] = bids.users[0].with_unit_value(0.01)
        report = auctioneer.run(inputs, expected_users=[u.user_id for u in bids.users])
        assert not report.aborted

    @pytest.mark.parametrize("field", ["unit_value", "demand"])
    def test_bid_beyond_float_range_is_neutralised_not_a_crash(self, field):
        """A Byzantine bidder submits an int no float can hold (``math.isfinite``
        raises on it): the §4.1 validity rule applies, no provider crashes."""
        honest = double_bids()
        evil = UserBid("evil", **{"unit_value": 1.0, "demand": 1.0, field: 10**400})
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=PROVIDERS, config=FrameworkConfig(k=1)
        )
        report = auctioneer.run_from_bids(BidVector(honest.users + (evil,), honest.providers))
        assert not report.aborted
        assert "evil" not in report.result.allocation.winners()
        assert report.result == auctioneer.run_from_bids(honest).result
        assert not report.result.allocation.is_empty()

    def test_empty_providers_rejected(self):
        with pytest.raises(ValueError):
            DistributedAuctioneer(DoubleAuction(), providers=[])


class TestCentralizedBaseline:
    def test_returns_algorithm_result_and_timing(self):
        bids = double_bids()
        report = CentralizedAuctioneer(DoubleAuction(), base_latency=0.05).run(bids)
        assert not report.aborted
        assert report.elapsed_time >= 0.05
        assert report.outcome.messages == 0

    def test_deterministic_for_fixed_seed(self):
        bids = standard_bids()
        first = CentralizedAuctioneer(StandardAuction(epsilon=0.5), seed=4).run(bids)
        second = CentralizedAuctioneer(StandardAuction(epsilon=0.5), seed=4).run(bids)
        assert first.result == second.result
