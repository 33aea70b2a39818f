"""Tests for bid validation and neutral substitution."""

import math
import random

import pytest

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.engine import VectorizedStandardAuction, clear_solve_cache
from repro.auctions.greedy import GreedyStandardAuction
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.validation import (
    coerce_user_bid,
    eligible_provider_asks,
    eligible_user_bids,
    is_valid_provider_ask,
    is_valid_user_bid,
    neutral_provider_ask,
    neutral_user_bid,
    sanitize_bid_vector,
)
from repro.auctions.vcg import ExactVCGAuction


class TestUserBidValidation:
    def test_valid_bid(self):
        assert is_valid_user_bid(UserBid("u", 1.0, 0.5))

    def test_wrong_type_invalid(self):
        assert not is_valid_user_bid("not a bid")
        assert not is_valid_user_bid(None)
        assert not is_valid_user_bid(ProviderAsk("p", 1.0, 1.0))

    def test_nonfinite_values_invalid(self):
        assert not is_valid_user_bid(UserBid("u", math.inf, 0.5))
        assert not is_valid_user_bid(UserBid("u", math.nan, 0.5))
        assert not is_valid_user_bid(UserBid("u", 1.0, math.inf))

    def test_negative_or_zero_demand_invalid(self):
        assert not is_valid_user_bid(UserBid("u", 1.0, 0.0))
        assert not is_valid_user_bid(UserBid("u", 1.0, -1.0))
        assert not is_valid_user_bid(UserBid("u", -0.5, 1.0))

    def test_out_of_range_invalid(self):
        assert not is_valid_user_bid(UserBid("u", 1e12, 0.5))
        assert not is_valid_user_bid(UserBid("u", 1.0, 1e12))


    @pytest.mark.parametrize("huge", [10**400, -(10**400)])
    def test_int_beyond_float_range_is_invalid_not_an_error(self, huge):
        """``math.isfinite(10**400)`` raises; a Byzantine bidder must not crash a provider."""
        assert not is_valid_user_bid(UserBid("evil", huge, 1.0))
        assert not is_valid_user_bid(UserBid("evil", 1.0, huge))
        assert coerce_user_bid("evil", UserBid("evil", huge, 1.0)) == neutral_user_bid("evil")

    def test_float_subclass_is_judged_like_the_float(self):
        """One predicate for every numeric type: the bounds, NaN and ±inf included."""

        class Money(float):
            pass

        fields = [
            0.0, -0.0, 1e-13, 0.5, 1e9, 1e9 + 1, 1e12, 1e12 + 1, -1.0,
            math.nan, math.inf, -math.inf,
        ]  # fmt: skip
        for value in fields:
            for other in fields:
                valid = 0 <= value <= 1e9 and 0 < other <= 1e9
                assert is_valid_user_bid(UserBid("u", value, other)) is valid
                assert is_valid_user_bid(UserBid("u", Money(value), Money(other))) is valid
                valid = 0 <= value <= 1e9 and 0 <= other <= 1e12
                assert is_valid_provider_ask(ProviderAsk("p", value, other)) is valid
                assert is_valid_provider_ask(ProviderAsk("p", Money(value), Money(other))) is valid
        # An infinite bound admits every finite value but never infinity itself.
        assert is_valid_user_bid(UserBid("u", 1e300, 1e300), math.inf, math.inf)
        assert not is_valid_user_bid(UserBid("u", math.inf, 1.0), math.inf, math.inf)
        assert not is_valid_user_bid(UserBid("u", 1.0, math.inf), math.inf, math.inf)
        assert not is_valid_provider_ask(ProviderAsk("p", math.inf, 1.0), math.inf, math.inf)
        assert not is_valid_provider_ask(ProviderAsk("p", 1.0, math.inf), math.inf, math.inf)

    def test_non_float_numbers(self):
        assert is_valid_user_bid(UserBid("u", 1, 2))
        assert not is_valid_user_bid(UserBid("u", True, 1.0))
        assert not is_valid_user_bid(UserBid("u", 1.0, "1.0"))
        assert not is_valid_user_bid(UserBid("u", None, 1.0))


class TestEligibleUserBids:
    def test_keeps_bid_vector_order_and_drops_what_cannot_trade(self):
        keep_a, keep_b = UserBid("b", 0.5, 1.0), UserBid("a", 2, 1e-11)
        bids = BidVector(
            (
                keep_a,
                UserBid("zero-value", 0.0, 1.0),
                UserBid("dust", 1.0, 1e-12),
                UserBid("nan", math.nan, 1.0),
                UserBid("huge", 10**400, 1.0),
                keep_b,
                neutral_user_bid("neutral"),
            ),
            (),
        )
        eligible = eligible_user_bids(bids)
        assert [bid.user_id for bid in eligible] == ["b", "a"]
        assert eligible[0] is keep_a and eligible[1] is keep_b


class TestProviderAskValidation:
    @pytest.mark.parametrize("huge", [10**400, -(10**400)])
    def test_int_beyond_float_range_is_invalid_not_an_error(self, huge):
        assert not is_valid_provider_ask(ProviderAsk("evil", huge, 1.0))
        assert not is_valid_provider_ask(ProviderAsk("evil", 1.0, huge))

    def test_valid_ask(self):
        assert is_valid_provider_ask(ProviderAsk("p", 0.5, 10.0))
        assert is_valid_provider_ask(ProviderAsk("p", 0.0, 0.0))

    def test_invalid_asks(self):
        assert not is_valid_provider_ask(None)
        assert not is_valid_provider_ask(ProviderAsk("p", -0.1, 1.0))
        assert not is_valid_provider_ask(ProviderAsk("p", math.nan, 1.0))
        assert not is_valid_provider_ask(ProviderAsk("p", 0.1, -1.0))


#: Asks the protocol neutralises before ``A`` runs; a mechanism called directly on
#: a vector nobody sanitised must leave them out too, without raising.
_UNUSABLE_ASKS = [
    ProviderAsk("bad", 0.0, math.inf),
    ProviderAsk("bad", 0.0, math.nan),
    ProviderAsk("bad", 0.0, 2e12),
    ProviderAsk("bad", 0.0, "lots"),
    ProviderAsk("bad", 0.0, True),
    ProviderAsk("bad", -0.5, 1.0),
]


class TestEligibleProviderAsks:
    def test_keeps_bid_vector_order_and_drops_what_cannot_host(self):
        keep_a, keep_b = ProviderAsk("z", 0.5, 1.0), ProviderAsk("a", 0, 1e12)
        asks = (
            keep_a,
            neutral_provider_ask("neutral"),
            ProviderAsk("dust", 0.0, 1e-12),
            *(
                ProviderAsk(f"bad{i}", ask.unit_cost, ask.capacity)
                for i, ask in enumerate(_UNUSABLE_ASKS)
            ),
            keep_b,
        )
        eligible = eligible_provider_asks(BidVector((), asks))
        assert [ask.provider_id for ask in eligible] == ["z", "a"]
        assert eligible[0] is keep_a and eligible[1] is keep_b

    @pytest.mark.parametrize("bad", _UNUSABLE_ASKS, ids=lambda ask: repr(ask.capacity))
    def test_every_mechanism_ignores_an_unusable_ask(self, bad):
        users = tuple(UserBid(f"u{i}", 1.0 + i / 8, 0.5) for i in range(4))
        good = ProviderAsk("good", 0.25, 1.1)
        without = BidVector(users, (good,))
        for asks in ((bad, good), (good, bad)):
            bids = BidVector(users, asks)
            for mechanism in (
                StandardAuction(epsilon=0.5),
                VectorizedStandardAuction(epsilon=0.5),
                GreedyStandardAuction(),
                ExactVCGAuction(),
            ):
                clear_solve_cache()
                result = mechanism.run(bids, random.Random(7))
                assert result.allocation.winners(), type(mechanism).__name__
                assert result == mechanism.run(without, random.Random(7))

    def test_engines_agree_next_to_an_infinite_capacity(self):
        # Best-fit cannot tell a feasible infinite residual from the kernel's
        # "infeasible" sentinel: the vectorized engine once put all four users
        # on p0 (2.0 on a capacity of 0.1) where the reference chose p1.
        bids = BidVector(
            tuple(UserBid(f"u{i}", 1.0, 0.5) for i in range(4)),
            (ProviderAsk("p0", 0.0, 0.1), ProviderAsk("p1", 0.0, math.inf)),
        )
        clear_solve_cache()
        reference = StandardAuction(epsilon=0.5).solve_allocation(bids, 7)
        assert VectorizedStandardAuction(epsilon=0.5).solve_allocation(bids, 7) == reference
        assert reference[0].winners() == []  # 0.1 hosts nobody; inf is no capacity


class TestNeutralSubstitution:
    def test_neutral_bid_never_wins(self):
        bid = neutral_user_bid("u")
        assert bid.unit_value == 0.0
        assert bid.demand > 0

    def test_neutral_ask_cannot_trade(self):
        assert neutral_provider_ask("p").capacity == 0.0

    def test_coerce_keeps_valid_matching_bid(self):
        bid = UserBid("u", 1.0, 0.5)
        assert coerce_user_bid("u", bid) is bid

    def test_coerce_rejects_identity_spoofing(self):
        bid = UserBid("other", 1.0, 0.5)
        assert coerce_user_bid("u", bid) == neutral_user_bid("u")

    def test_coerce_rejects_garbage(self):
        assert coerce_user_bid("u", "garbage") == neutral_user_bid("u")
        assert coerce_user_bid("u", None) == neutral_user_bid("u")

    def test_sanitize_bid_vector(self):
        bids = BidVector(
            (UserBid("u0", 1.0, 0.5), UserBid("u1", math.inf, 0.5)),
            (ProviderAsk("p0", 0.1, 1.0), ProviderAsk("p1", -1.0, 1.0)),
        )
        clean = sanitize_bid_vector(bids)
        assert clean.user("u0") == bids.user("u0")
        assert clean.user("u1") == neutral_user_bid("u1")
        assert clean.provider("p0") == bids.provider("p0")
        assert clean.provider("p1") == neutral_provider_ask("p1")
