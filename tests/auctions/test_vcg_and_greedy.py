"""Tests for the exact VCG baseline and the greedy (non-truthful) baseline."""

import random

import pytest

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.greedy import GreedyStandardAuction
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.vcg import ExactVCGAuction
from repro.auctions.welfare import social_welfare
from repro.community.workload import StandardAuctionWorkload


def random_instance(seed, num_users=7, num_providers=3):
    return StandardAuctionWorkload(seed=seed).generate(num_users, num_providers)


class TestExactVCG:
    def test_finds_obvious_optimum(self):
        bids = BidVector(
            (
                UserBid("u0", 1.0, 1.0),
                UserBid("u1", 2.0, 1.0),
                UserBid("u2", 3.0, 1.0),
            ),
            (ProviderAsk("p0", 0.0, 2.0),),
        )
        result = ExactVCGAuction().run(bids)
        assert set(result.allocation.winners()) == {"u1", "u2"}

    def test_beats_or_matches_greedy_and_approximate(self):
        exact = ExactVCGAuction()
        greedy = GreedyStandardAuction()
        approx = StandardAuction(epsilon=0.3)
        for seed in range(6):
            bids = random_instance(seed)
            w_exact = social_welfare(bids, exact.run(bids).allocation, include_provider_costs=False)
            w_greedy = social_welfare(bids, greedy.run(bids).allocation, include_provider_costs=False)
            w_approx = social_welfare(
                bids, approx.run(bids, random.Random(seed)).allocation, include_provider_costs=False
            )
            assert w_exact >= w_greedy - 1e-9
            assert w_exact >= w_approx - 1e-9

    def test_vcg_payment_is_the_externality(self):
        # One provider with room for one unit-demand user; the winner's payment is
        # exactly the second-highest value.
        bids = BidVector(
            (
                UserBid("u0", 5.0, 1.0),
                UserBid("u1", 3.0, 1.0),
                UserBid("u2", 1.0, 1.0),
            ),
            (ProviderAsk("p0", 0.0, 1.0),),
        )
        result = ExactVCGAuction().run(bids)
        assert result.allocation.winners() == ["u0"]
        assert result.payments.user_payment("u0") == pytest.approx(3.0)

    def test_refuses_oversized_instances(self):
        bids = random_instance(0, num_users=20)
        with pytest.raises(ValueError):
            ExactVCGAuction(max_users=10).run(bids)

    def test_feasibility(self):
        for seed in range(5):
            bids = random_instance(seed)
            result = ExactVCGAuction().run(bids)
            result.allocation.check_feasible(bids, single_provider=True)


class TestGreedyBaseline:
    def test_feasible_and_fast(self):
        for seed in range(5):
            bids = random_instance(seed, num_users=30)
            result = GreedyStandardAuction().run(bids)
            result.allocation.check_feasible(bids, single_provider=True)
            assert not result.allocation.is_empty()

    def test_pay_your_bid(self):
        bids = BidVector(
            (UserBid("u0", 2.0, 0.5),),
            (ProviderAsk("p0", 0.0, 1.0),),
        )
        result = GreedyStandardAuction().run(bids)
        assert result.payments.user_payment("u0") == pytest.approx(1.0)  # 2.0 * 0.5

    def test_not_truthful_by_construction(self):
        """Pay-your-bid means shading the bid strictly helps a sure winner."""
        bids = BidVector(
            (UserBid("u0", 2.0, 0.5),),
            (ProviderAsk("p0", 0.0, 1.0),),
        )
        greedy = GreedyStandardAuction()
        honest = greedy.run(bids)
        shaded = greedy.run(bids.replace_user(UserBid("u0", 1.0, 0.5)))
        honest_utility = 2.0 * 0.5 - honest.payments.user_payment("u0")
        shaded_utility = 2.0 * 0.5 - shaded.payments.user_payment("u0")
        assert shaded_utility > honest_utility
