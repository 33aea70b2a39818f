"""Tests for the truthful budget-balanced double auction (§5.2.1)."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.auctions.double_auction_reference import ReferenceDoubleAuction

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.welfare import budget_surplus, provider_utility, user_utility
from repro.community.workload import DoubleAuctionWorkload


@pytest.fixture
def mechanism():
    return DoubleAuction()


def random_instance(seed, num_users=12, num_providers=4):
    return DoubleAuctionWorkload(seed=seed).generate(num_users, num_providers)


class TestBasicBehaviour:
    def test_empty_inputs_yield_empty_result(self, mechanism):
        assert mechanism.run(BidVector((), ())).allocation.is_empty()
        assert mechanism.run(
            BidVector((UserBid("u", 1.0, 0.5),), ())
        ).allocation.is_empty()
        assert mechanism.run(
            BidVector((), (ProviderAsk("p", 0.1, 1.0),))
        ).allocation.is_empty()

    def test_no_trade_when_costs_exceed_values(self, mechanism):
        bids = BidVector(
            (UserBid("u0", 0.5, 1.0), UserBid("u1", 0.4, 1.0)),
            (ProviderAsk("p0", 0.9, 5.0),),
        )
        assert mechanism.run(bids).allocation.is_empty()

    def test_simple_trade_excludes_marginal_participants(self, mechanism):
        bids = BidVector(
            (
                UserBid("u_hi", 1.0, 1.0),
                UserBid("u_mid", 0.8, 1.0),
                UserBid("u_lo", 0.6, 1.0),
            ),
            (
                ProviderAsk("p_cheap", 0.1, 2.0),
                ProviderAsk("p_dear", 0.5, 2.0),
            ),
        )
        result = mechanism.run(bids)
        winners = result.allocation.winners()
        # The lowest-value trading user is excluded by the trade reduction.
        assert "u_hi" in winners
        assert "u_lo" not in winners

    def test_water_filling_fills_cheapest_provider_first(self, mechanism):
        bids = BidVector(
            (
                UserBid("u0", 1.2, 0.6),
                UserBid("u1", 1.1, 0.6),
                UserBid("u2", 1.0, 0.6),
            ),
            (
                ProviderAsk("cheap", 0.1, 0.5),
                ProviderAsk("mid", 0.2, 5.0),
                ProviderAsk("dear", 0.3, 5.0),
            ),
        )
        result = mechanism.run(bids)
        if not result.allocation.is_empty():
            # The cheapest provider is saturated before the next one is touched.
            used = result.allocation.provider_total("cheap")
            assert used == pytest.approx(0.5) or result.allocation.provider_total("mid") == 0

    def test_feasibility_on_random_instances(self, mechanism):
        for seed in range(10):
            bids = random_instance(seed)
            result = mechanism.run(bids)
            result.allocation.check_feasible(bids)

    def test_deterministic(self, mechanism):
        bids = random_instance(3)
        assert mechanism.run(bids, random.Random(0)) == mechanism.run(bids, random.Random(99))


class TestEconomicProperties:
    def test_budget_balance_on_random_instances(self, mechanism):
        for seed in range(20):
            result = mechanism.run(random_instance(seed))
            assert budget_surplus(result.payments) >= -1e-9

    def test_individual_rationality_users(self, mechanism):
        for seed in range(20):
            bids = random_instance(seed)
            result = mechanism.run(bids)
            for user_id in result.allocation.winners():
                assert user_utility(bids, result, user_id) >= -1e-9

    def test_individual_rationality_providers(self, mechanism):
        for seed in range(20):
            bids = random_instance(seed)
            result = mechanism.run(bids)
            for provider_id in result.allocation.providers_used():
                assert provider_utility(bids, result, provider_id) >= -1e-9

    def test_winners_pay_uniform_unit_price(self, mechanism):
        for seed in range(5):
            bids = random_instance(seed)
            result = mechanism.run(bids)
            prices = [
                result.payments.user_payment(uid) / result.allocation.user_total(uid)
                for uid in result.allocation.winners()
            ]
            if prices:
                assert max(prices) - min(prices) < 1e-9

    def test_buyer_price_at_least_seller_price(self, mechanism):
        for seed in range(20):
            bids = random_instance(seed)
            result = mechanism.run(bids)
            winners = result.allocation.winners()
            sellers = result.allocation.providers_used()
            if not winners or not sellers:
                continue
            buyer_price = result.payments.user_payment(winners[0]) / result.allocation.user_total(
                winners[0]
            )
            seller_price = result.payments.provider_revenue(
                sellers[0]
            ) / result.allocation.provider_total(sellers[0])
            assert buyer_price >= seller_price - 1e-9


# -- the one-pass clearing against the pipeline it replaced -----------------------------
_ODD_FIELDS = st.sampled_from(
    [
        0.0, -0.0, -1.0, 1e-13, 1e-12, 1e-10, 1e-9, 1e9, 2e9, 1e12, 2e12,
        math.nan, math.inf, -math.inf, True, False, 0, 1, 3, 10**400, -(10**400), "1.0", None,
    ]  # fmt: skip
)


def _field(top):
    """Mostly tradeable quantities, with ties, ints and everything §4.1 must reject."""
    return st.one_of(
        st.floats(min_value=0.0, max_value=top),
        st.sampled_from([0.5, 1.0, 1.5, 2.0]),  # tied unit values, costs and sizes
        st.integers(min_value=1, max_value=4),
        _ODD_FIELDS,
    )


@st.composite
def clearing_instances(draw, min_users=0, min_providers=0):
    # Sellers from far smaller than a buyer to larger than all of them: few or
    # many of them trade, and either side of the reduced trade may be the short one.
    capacity_top = draw(st.sampled_from([0.2, 1.0, 5.0, 50.0]))
    users = draw(
        st.lists(st.tuples(_field(5.0), _field(2.0)), min_size=min_users, max_size=60)
    )
    providers = draw(
        st.lists(st.tuples(_field(3.0), _field(capacity_top)), min_size=min_providers, max_size=8)
    )
    user_bids = [UserBid(f"u{i:02d}", value, demand) for i, (value, demand) in enumerate(users)]
    provider_asks = [ProviderAsk(f"p{j}", cost, size) for j, (cost, size) in enumerate(providers)]
    # Bid-vector order is not id order, nor price order.
    return BidVector(
        tuple(draw(st.permutations(user_bids))), tuple(draw(st.permutations(provider_asks)))
    )


class TestOnePassClearingAgainstOracle:
    """``repr`` equality: ``-0.0`` vs ``0.0``, ``1`` vs ``1.0`` and entry order all count."""

    @given(clearing_instances())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_instances(self, bids):
        assert repr(DoubleAuction().run(bids)) == repr(ReferenceDoubleAuction().run(bids))

    @given(clearing_instances(min_users=25, min_providers=4))
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_markets_large_enough_to_clear(self, bids):
        assert repr(DoubleAuction().run(bids)) == repr(ReferenceDoubleAuction().run(bids))

    @pytest.mark.parametrize("users", [1, 2, 12, 300])
    @pytest.mark.parametrize("providers", [1, 2, 8])
    def test_workload_instances(self, users, providers):
        cleared = 0
        for seed in range(10):
            bids = random_instance(seed, users, providers)
            result = DoubleAuction().run(bids)
            assert repr(result) == repr(ReferenceDoubleAuction().run(bids))
            cleared += not result.allocation.is_empty()
        assert cleared or min(users, providers) < 2  # one buyer or one seller: nobody trades

    def test_both_rationing_branches_and_a_split_buyer(self):
        def cleared(demands, capacities):
            bids = BidVector(
                tuple(UserBid(f"u{i}", 9.0 - i, demand) for i, demand in enumerate(demands)),
                tuple(ProviderAsk(f"p{j}", 0.1 * j, size) for j, size in enumerate(capacities)),
            )
            result = DoubleAuction().run(bids)
            assert repr(result) == repr(ReferenceDoubleAuction().run(bids))
            return result.allocation

        # Winning sellers (p0-p2, 1.2 in all) are short of the winners' demand
        # (u0-u4, 5.0): every buyer is rationed to the same share of its demand.
        sellers_short = cleared([1.0] * 6, [0.4, 0.4, 0.4, 10.0])
        assert sellers_short.winners() == [f"u{i}" for i in range(5)]
        assert sellers_short.total_allocated == pytest.approx(1.2)
        assert sellers_short.user_total("u4") == pytest.approx(1.2 / 5)
        # Winning buyers (u0-u4, 5.0) are short of the winning capacity (p0-p1,
        # 6.0): demands are met in full and the sellers are rationed.
        buyers_short = cleared([1.0] * 5 + [3.0], [3.0, 3.0, 3.0])
        assert buyers_short.providers_used() == ["p0", "p1"]
        assert buyers_short.user_total("u4") == pytest.approx(1.0)
        assert buyers_short.provider_total("p0") == pytest.approx(2.5)
        assert len([entry for entry in buyers_short.entries if entry[0] == "u2"]) == 2

    def test_amounts_between_the_two_epsilons_are_dropped(self):
        """Quotas above ``_EPS`` (1e-12) trade; entries at or below ``EPSILON`` (1e-9) vanish."""
        bids = BidVector(
            (UserBid("u0", 3.0, 5e-10), UserBid("u1", 2.0, 1.0), UserBid("u2", 1.0, 1.0)),
            (ProviderAsk("p0", 0.1, 0.5), ProviderAsk("p1", 0.2, 5.0)),
        )
        result = DoubleAuction().run(bids)
        assert repr(result) == repr(ReferenceDoubleAuction().run(bids))
        assert result.allocation.winners() == ["u1"]  # u0 traded, 2.5e-10 of p0
