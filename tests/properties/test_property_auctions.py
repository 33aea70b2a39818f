"""Property-based tests for the auction mechanisms' invariants.

These check, over randomly generated instances, the properties the paper relies on:
feasibility, budget balance, individual rationality, losers-pay-nothing, and (for the
double auction) uniform pricing.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.auctions.double_auction_reference import ReferenceDoubleAuction

from repro.auctions.base import (
    EPSILON,
    Allocation,
    AuctionResult,
    BidVector,
    FeasibilityError,
    ProviderAsk,
    UserBid,
)
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.engine import VectorizedStandardAuction
from repro.auctions.greedy import GreedyStandardAuction
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.welfare import budget_surplus, provider_utility, social_welfare, user_utility

# -- instance strategies -----------------------------------------------------------------

user_bids = st.builds(
    UserBid,
    user_id=st.integers(min_value=0, max_value=999).map(lambda i: f"u{i:03d}"),
    unit_value=st.floats(min_value=0.01, max_value=5.0),
    demand=st.floats(min_value=0.01, max_value=2.0),
)

provider_asks = st.builds(
    ProviderAsk,
    provider_id=st.integers(min_value=0, max_value=99).map(lambda i: f"p{i:02d}"),
    unit_cost=st.floats(min_value=0.0, max_value=2.0),
    capacity=st.floats(min_value=0.0, max_value=5.0),
)


def _dedupe(items, key):
    seen = {}
    for item in items:
        seen.setdefault(key(item), item)
    return tuple(seen.values())


bid_vectors = st.builds(
    lambda users, providers: BidVector(
        _dedupe(users, lambda u: u.user_id), _dedupe(providers, lambda p: p.provider_id)
    ),
    st.lists(user_bids, min_size=1, max_size=10),
    st.lists(provider_asks, min_size=1, max_size=4),
)


class TestDoubleAuctionInvariants:
    @given(bid_vectors)
    @settings(max_examples=120)
    def test_feasibility(self, bids):
        result = DoubleAuction().run(bids)
        result.allocation.check_feasible(bids)

    @given(bid_vectors)
    @settings(max_examples=120)
    def test_budget_balance(self, bids):
        result = DoubleAuction().run(bids)
        assert budget_surplus(result.payments) >= -1e-9

    @given(bid_vectors)
    @settings(max_examples=120)
    def test_individual_rationality(self, bids):
        result = DoubleAuction().run(bids)
        for user_id in result.allocation.winners():
            assert user_utility(bids, result, user_id) >= -1e-9
        for provider_id in result.allocation.providers_used():
            assert provider_utility(bids, result, provider_id) >= -1e-9

    @given(bid_vectors)
    @settings(max_examples=80)
    def test_welfare_is_nonnegative(self, bids):
        result = DoubleAuction().run(bids)
        assert social_welfare(bids, result.allocation) >= -1e-9

    @given(bid_vectors)
    @settings(max_examples=60)
    def test_determinism(self, bids):
        assert DoubleAuction().run(bids) == DoubleAuction().run(bids)


#: Zero values, zero demands, empty pipes, and demands larger than any one
#: provider's capacity, so allocations split across providers.
wide_bid_vectors = st.builds(
    lambda users, providers: BidVector(
        tuple(UserBid(f"u{i:02d}", value, demand) for i, (value, demand) in enumerate(users)),
        tuple(ProviderAsk(f"p{j}", cost, capacity) for j, (cost, capacity) in enumerate(providers)),
    ),
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=6.0)),
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        ),
        min_size=1,
        max_size=5,
    ),
)


def _expected_double_auction_payments(bids, allocation):
    """Uniform prices times the per-id totals, as the mechanism defines them."""
    trades = ReferenceDoubleAuction._efficient_trades(
        ReferenceDoubleAuction._eligible_buyers(bids),
        ReferenceDoubleAuction._eligible_sellers(bids),
    )
    buyer_price = bids.user(trades.marginal_user).unit_value
    seller_price = bids.provider(trades.marginal_provider).unit_cost
    return (
        tuple((uid, buyer_price * allocation.user_total(uid)) for uid in allocation.winners()),
        tuple(
            (pid, seller_price * allocation.provider_total(pid))
            for pid in allocation.providers_used()
        ),
    )


class TestDoubleAuctionPaymentsAreExact:
    """Payments are pinned bit for bit to ``price * user_total(uid)``."""

    @given(wide_bid_vectors)
    @settings(max_examples=300)
    def test_payments_equal_price_times_total(self, bids):
        result = DoubleAuction().run(bids)
        if result.allocation.is_empty():
            assert result == AuctionResult.empty()
            return
        paid, received = _expected_double_auction_payments(bids, result.allocation)
        assert result.payments.user_payments == paid
        assert result.payments.provider_revenues == received

    def test_split_allocation(self):
        bids = BidVector(
            (UserBid("u0", 5.0, 2.5), UserBid("u1", 4.0, 0.7), UserBid("u2", 0.2, 1.0)),
            (ProviderAsk("p0", 0.1, 1.0), ProviderAsk("p1", 0.3, 1.1), ProviderAsk("p2", 0.4, 1.3)),
        )
        result = DoubleAuction().run(bids)
        assert len([entry for entry in result.allocation.entries if entry[0] == "u0"]) > 1
        paid, received = _expected_double_auction_payments(bids, result.allocation)
        assert result.payments.user_payments == paid
        assert result.payments.provider_revenues == received


def _reference_check_feasible(allocation, bids, single_provider):
    """``Allocation.check_feasible`` as it was: a fresh id list per entry and one
    scan of all entries per user and per provider.  The oracle for messages and
    first-failure order."""
    for user_id, provider_id, amount in allocation.entries:
        if amount < -EPSILON:
            raise FeasibilityError(f"negative allocation for {user_id} at {provider_id}")
        if user_id not in bids.user_ids:
            raise FeasibilityError(f"allocation references unknown user {user_id!r}")
        if provider_id not in bids.provider_ids:
            raise FeasibilityError(f"allocation references unknown provider {provider_id!r}")
    for provider in bids.providers:
        used = allocation.provider_total(provider.provider_id)
        if used > provider.capacity + EPSILON:
            raise FeasibilityError(
                f"provider {provider.provider_id} over capacity: {used} > {provider.capacity}"
            )
    for user in bids.users:
        received = allocation.user_total(user.user_id)
        if received > user.demand + EPSILON:
            raise FeasibilityError(
                f"user {user.user_id} allocated more than demanded: "
                f"{received} > {user.demand}"
            )
        if single_provider:
            providers_of_user = [
                p for u, p, a in allocation.entries if u == user.user_id and a > EPSILON
            ]
            if len(providers_of_user) > 1:
                raise FeasibilityError(
                    f"user {user.user_id} split across providers {providers_of_user}"
                )
            if providers_of_user and abs(received - user.demand) > 1e-6:
                raise FeasibilityError(
                    f"user {user.user_id} partially allocated ({received} of {user.demand})"
                )


def _verdict(check, *args):
    try:
        check(*args)
    except FeasibilityError as error:
        return str(error)
    return None


#: Entries over a small id pool (plus ids no bid vector holds), unsorted and
#: with repeats, amounts spanning magnitudes so that addition order matters.
_amounts = st.one_of(
    st.floats(min_value=-0.5, max_value=3.0),
    st.sampled_from([0.0, 1e-12, 1e-9, 0.1, 0.2, 0.3, 1e16, -1e16, 1.0]),
)
_entries = st.lists(
    st.tuples(
        st.sampled_from(["u00", "u01", "u02", "u03", "ghost"]),
        st.sampled_from(["p0", "p1", "p2", "nowhere"]),
        _amounts,
    ),
    max_size=12,
).map(tuple)


class TestSinglePassTotals:
    @given(_entries)
    @settings(max_examples=300)
    def test_totals_equal_the_per_id_sums_bit_for_bit(self, entries):
        allocation = Allocation(entries)
        assert allocation.user_totals() == {
            user: allocation.user_total(user) for user, _, _ in entries
        }
        assert allocation.provider_totals() == {
            provider: allocation.provider_total(provider) for _, provider, _ in entries
        }

    @given(wide_bid_vectors, _entries, st.booleans())
    @settings(max_examples=400)
    def test_check_feasible_keeps_messages_and_first_failure(self, bids, entries, single):
        allocation = Allocation(entries)
        assert _verdict(allocation.check_feasible, bids, single) == _verdict(
            _reference_check_feasible, allocation, bids, single
        )

    def test_ids_without_an_entry_total_an_integer_zero(self):
        # ``sum(())`` is the int 0, and the messages print it as such.
        bids = BidVector((UserBid("u00", 1.0, -1.0),), (ProviderAsk("p0", 0.0, -1.0),))
        assert _verdict(Allocation.empty().check_feasible, bids, False) == (
            "provider p0 over capacity: 0 > -1.0"
        )
        roomy = BidVector(bids.users, (ProviderAsk("p0", 0.0, 1.0),))
        assert _verdict(Allocation.empty().check_feasible, roomy, False) == (
            "user u00 allocated more than demanded: 0 > -1.0"
        )

    @given(wide_bid_vectors, st.booleans())
    @settings(max_examples=100)
    def test_check_feasible_on_mechanism_output(self, bids, single):
        allocation = DoubleAuction().run(bids).allocation
        assert _verdict(allocation.check_feasible, bids, single) == _verdict(
            _reference_check_feasible, allocation, bids, single
        )


class TestStandardAuctionInvariants:
    @given(bid_vectors, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_single_provider_feasibility(self, bids, seed):
        result = StandardAuction(epsilon=0.6).run(bids, random.Random(seed))
        result.allocation.check_feasible(bids, single_provider=True)

    @given(bid_vectors, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_losers_pay_nothing_and_winners_are_rational(self, bids, seed):
        result = StandardAuction(epsilon=0.6).run(bids, random.Random(seed))
        winners = set(result.allocation.winners())
        for user in bids.users:
            payment = result.payments.user_payment(user.user_id)
            if user.user_id not in winners:
                assert payment == 0.0
            else:
                assert payment <= user.total_value + 1e-6

    @given(bid_vectors)
    @settings(max_examples=40)
    def test_greedy_baseline_feasible(self, bids):
        GreedyStandardAuction().run(bids).allocation.check_feasible(
            bids, single_provider=True
        )


@pytest.fixture(
    params=[StandardAuction, VectorizedStandardAuction], ids=["reference", "vectorized"]
)
def engine(request):
    """The standard auction's engine and its reference oracle (see DESIGN.md)."""
    return request.param


class TestStandardAuctionEngineInvariants:
    """The mechanism's invariants hold for *both* engines, not just the reference.

    The differential suite proves the engines equal on sampled grids; these
    property tests additionally pin the game-theoretic invariants directly, so a
    future engine that drifts from the reference still cannot silently violate
    individual rationality or feasibility.
    """

    @staticmethod
    def _mechanism(engine):
        return engine(epsilon=0.6)

    @given(bids=bid_vectors, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_no_capacity_violation(self, engine, bids, seed):
        result = self._mechanism(engine).run(bids, random.Random(seed))
        result.allocation.check_feasible(bids, single_provider=True)

    @given(bids=bid_vectors, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_individual_rationality(self, engine, bids, seed):
        """Payment never exceeds the declared value of the allocated bundle."""
        result = self._mechanism(engine).run(bids, random.Random(seed))
        for user in bids.users:
            payment = result.payments.user_payment(user.user_id)
            allocated_value = user.unit_value * result.allocation.user_total(user.user_id)
            assert payment <= allocated_value + 1e-9
            assert payment >= 0.0

    @given(bids=bid_vectors, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_losers_pay_nothing(self, engine, bids, seed):
        result = self._mechanism(engine).run(bids, random.Random(seed))
        winners = set(result.allocation.winners())
        for user in bids.users:
            if user.user_id not in winners:
                assert result.payments.user_payment(user.user_id) == 0.0
