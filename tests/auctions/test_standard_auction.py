"""Tests for the (1-eps)-style standard auction with VCG payments (§5.2.2)."""

import math
import random
from unittest import mock

import pytest

from repro.auctions.base import Allocation, BidVector, ProviderAsk, UserBid
from repro.auctions.engine import VectorizedStandardAuction
from repro.auctions.payments import clarke_pivot_payments
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.vcg import ExactVCGAuction
from repro.auctions.welfare import social_welfare, user_utility
from repro.community.workload import StandardAuctionWorkload


@pytest.fixture
def mechanism():
    return StandardAuction(epsilon=0.3)


def random_instance(seed, num_users=10, num_providers=3):
    return StandardAuctionWorkload(seed=seed).generate(num_users, num_providers)


class TestConfiguration:
    def test_restart_count_scales_with_epsilon(self):
        assert StandardAuction(epsilon=0.5).restarts <= StandardAuction(epsilon=0.1).restarts
        assert StandardAuction(epsilon=0.05, max_restarts=100).restarts == 100

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StandardAuction(epsilon=0.0)
        with pytest.raises(ValueError):
            StandardAuction(perturbation=1.5)

    @pytest.mark.parametrize("cls", [StandardAuction, VectorizedStandardAuction])
    @pytest.mark.parametrize(
        "params",
        [
            {"min_restarts": 0, "max_restarts": 0},  # a mechanism that allocates nothing
            {"min_restarts": 0},
            {"min_restarts": 8, "max_restarts": 4},  # once silently ignored the maximum
            {"local_search_rounds": -1},  # once silently ran 0 rounds
        ],
    )
    def test_effort_parameters_out_of_range_rejected(self, cls, params):
        with pytest.raises(ValueError, match="min_restarts <= max_restarts"):
            cls(**params)

    def test_effort_parameters_at_their_bounds_accepted(self):
        mechanism = StandardAuction(
            epsilon=0.05, min_restarts=1, max_restarts=1, local_search_rounds=0
        )
        assert (mechanism.restarts, mechanism.local_search_rounds) == (1, 0)
        assert StandardAuction(epsilon=0.9, min_restarts=6, max_restarts=6).restarts == 6

    @pytest.mark.parametrize("cls", [StandardAuction, VectorizedStandardAuction])
    @pytest.mark.parametrize(
        "params, named",
        [
            ({"local_search_rounds": 1.5}, "local_search_rounds"),  # once a TypeError traceback
            ({"epsilon": 1, "min_restarts": 2.5}, "min_restarts"),
            ({"max_restarts": 512.0}, "max_restarts"),
            ({"local_search_rounds": True}, "local_search_rounds"),
            ({"epsilon": True}, "epsilon"),  # once ran 4 restarts
            ({"perturbation": False}, "perturbation"),
            ({"epsilon": math.nan}, "epsilon"),
            ({"epsilon": math.inf}, "epsilon"),
            ({"epsilon": "0.5"}, "epsilon"),
            ({"perturbation": math.nan}, "perturbation"),
        ],
    )
    def test_effort_parameters_of_the_wrong_type_rejected(self, cls, params, named):
        with pytest.raises((TypeError, ValueError), match=rf"^{named} must be "):
            cls(**params)

    def test_a_vanishing_epsilon_asks_for_every_restart(self):
        # 1e-200 squares to 0.0 and once divided by zero.
        assert StandardAuction(epsilon=1e-200).restarts == 512
        assert StandardAuction(epsilon=1e-160, max_restarts=7).restarts == 7
        assert StandardAuction(epsilon=0.0441).restarts == 512  # 514.2 wanted
        assert StandardAuction(epsilon=0.05).restarts == 400


class TestAllocation:
    def test_all_or_nothing_single_provider(self, mechanism):
        for seed in range(8):
            bids = random_instance(seed)
            result = mechanism.run(bids, random.Random(seed))
            result.allocation.check_feasible(bids, single_provider=True)

    def test_empty_instances(self, mechanism):
        assert mechanism.run(BidVector((), ())).allocation.is_empty()
        only_users = BidVector((UserBid("u", 1.0, 0.5),), ())
        assert mechanism.run(only_users).allocation.is_empty()

    def test_user_larger_than_all_capacity_loses(self, mechanism):
        bids = BidVector(
            (UserBid("big", 10.0, 5.0), UserBid("small", 1.0, 0.5)),
            (ProviderAsk("p0", 0.0, 1.0),),
        )
        result = mechanism.run(bids)
        assert "big" not in result.allocation.winners()
        assert "small" in result.allocation.winners()

    def test_determinism_given_seed(self, mechanism):
        bids = random_instance(4)
        first = mechanism.run(bids, random.Random(7))
        second = mechanism.run(bids, random.Random(7))
        assert first == second

    def test_welfare_close_to_exact_optimum(self):
        """The approximate allocator reaches a large fraction of the exact optimum."""
        approx = StandardAuction(epsilon=0.1)
        exact = ExactVCGAuction()
        ratios = []
        for seed in range(6):
            bids = random_instance(seed, num_users=8, num_providers=3)
            approx_result = approx.run(bids, random.Random(seed))
            exact_result = exact.run(bids)
            exact_welfare = social_welfare(bids, exact_result.allocation, include_provider_costs=False)
            approx_welfare = social_welfare(bids, approx_result.allocation, include_provider_costs=False)
            if exact_welfare > 0:
                ratios.append(approx_welfare / exact_welfare)
        assert ratios, "expected at least one instance with positive optimum"
        assert min(ratios) >= 0.8
        assert sum(ratios) / len(ratios) >= 0.9


class TestPayments:
    def test_losers_pay_nothing(self, mechanism):
        for seed in range(5):
            bids = random_instance(seed)
            result = mechanism.run(bids, random.Random(seed))
            winners = set(result.allocation.winners())
            for user in bids.users:
                if user.user_id not in winners:
                    assert result.payments.user_payment(user.user_id) == pytest.approx(0.0)

    def test_payments_never_exceed_declared_value(self, mechanism):
        for seed in range(8):
            bids = random_instance(seed)
            result = mechanism.run(bids, random.Random(seed))
            for user_id in result.allocation.winners():
                assert user_utility(bids, result, user_id) >= -1e-6

    def test_payments_are_nonnegative(self, mechanism):
        for seed in range(8):
            bids = random_instance(seed)
            result = mechanism.run(bids, random.Random(seed))
            for _, payment in result.payments.user_payments:
                assert payment >= -1e-12

    def test_provider_revenue_matches_user_payments(self, mechanism):
        for seed in range(5):
            bids = random_instance(seed)
            result = mechanism.run(bids, random.Random(seed))
            assert result.payments.total_paid == pytest.approx(result.payments.total_received)

    def test_clamp_equals_the_per_user_spelling_in_linear_time(self, mechanism):
        """One ``user_totals`` and an indexed ``user()``, bit for bit the per-user scans."""
        for seed in range(4):
            bids = random_instance(seed, num_users=14)
            allocation, welfare = mechanism.solve_allocation(bids, seed)
            pivots = mechanism._pivot_welfares(bids, allocation.winners(), seed)
            raw = clarke_pivot_payments(bids, allocation, bids.user_ids, pivots.__getitem__)
            assert any(raw.values())
            users = {u.user_id: u for u in bids.users}
            expected = {
                uid: min(payment, users[uid].unit_value * allocation.user_total(uid))
                for uid, payment in raw.items()
            }
            with mock.patch.object(
                Allocation, "user_total", side_effect=AssertionError("per-user scan")
            ):
                clamped = mechanism.payments_for_users(
                    bids, bids.user_ids, allocation, welfare, seed
                )
            assert repr(clamped) == repr(expected)

    def test_scarcity_creates_positive_payments(self):
        """With contention, at least some winner pays a positive VCG price."""
        mechanism = StandardAuction(epsilon=0.1)
        bids = BidVector(
            (
                UserBid("u0", 1.0, 1.0),
                UserBid("u1", 0.9, 1.0),
                UserBid("u2", 0.8, 1.0),
            ),
            (ProviderAsk("p0", 0.0, 1.0),),  # room for exactly one user
        )
        result = mechanism.run(bids, random.Random(0))
        assert result.allocation.winners() == ["u0"]
        assert result.payments.user_payment("u0") == pytest.approx(0.9, abs=1e-6)


class TestDecomposableInterface:
    def test_solve_allocation_and_payments_match_run(self, mechanism):
        bids = random_instance(2)
        rng = random.Random(11)
        full = mechanism.run(bids, rng)
        # Re-derive the same seed the run() call used.
        seed = random.Random(11).getrandbits(63)
        allocation, welfare = mechanism.solve_allocation(bids, seed)
        payments = mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, seed)
        assembled = mechanism.assemble(bids, allocation, payments)
        assert assembled == full

    def test_payments_re_solve_once_per_winner(self, mechanism):
        """The payment phase's cost, counted: one pivot re-solve per winning user."""
        bids = StandardAuctionWorkload(seed=0).generate(40, 8)
        allocation, welfare = mechanism.solve_allocation(bids, 99)
        assert welfare > 0
        with mock.patch.object(
            mechanism, "solve_allocation", wraps=mechanism.solve_allocation
        ) as solve:
            mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, 99)
        assert solve.call_count == len(allocation.winners()) > 1

    def test_payment_fragments_are_independent(self, mechanism):
        """Computing payments per user-chunk gives the same result as all at once."""
        bids = random_instance(5)
        seed = 12345
        allocation, welfare = mechanism.solve_allocation(bids, seed)
        all_at_once = mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, seed)
        merged = {}
        for user_id in bids.user_ids:
            merged.update(
                mechanism.payments_for_users(bids, [user_id], allocation, welfare, seed)
            )
        assert merged == all_at_once
