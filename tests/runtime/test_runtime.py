"""Tests for bidder/provider runtime nodes and full auction rounds."""

import pytest

from repro.adversary.bidder_behaviors import InconsistentBidder, InvalidBidder, SilentBidder
from repro.auctions.base import AuctionResult, BidVector, ProviderAsk, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.common import is_abort
from repro.community.workload import DoubleAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.net.latency import ConstantLatencyModel
from repro.net.network import SimNetwork
from repro.runtime.auction_run import AuctionRun
from repro.runtime.bidder import BidderNode, TruthfulBidder
from repro.runtime.provider import CollectingProviderNode

PROVIDERS = [f"p{i}" for i in range(3)]


def small_bids(num_users=6, seed=0):
    return DoubleAuctionWorkload(seed=seed).generate(num_users, len(PROVIDERS), provider_ids=PROVIDERS)


class TestBidderStrategies:
    def test_truthful_bidder_sends_true_bid_everywhere(self):
        bid = UserBid("u0", 1.0, 0.5)
        strategy = TruthfulBidder()
        assert strategy.bid_for_provider(bid, "p0") == bid
        assert strategy.bid_for_provider(bid, "p1") == bid

    def test_bidder_node_ids_match_user_ids(self):
        node = BidderNode(UserBid("u7", 1.0, 0.5), PROVIDERS)
        assert node.node_id == "u7"


class TestAuctionRunHonest:
    def test_full_round_completes_and_matches_direct_run(self):
        bids = small_bids()
        run = AuctionRun(bids, DoubleAuction(), config=FrameworkConfig(k=1))
        result = run.execute()
        assert not result.aborted
        assert result.outcome.result == DoubleAuction().run(bids)

    def test_bidders_observe_the_agreed_outcome(self):
        bids = small_bids(seed=1)
        run = AuctionRun(bids, DoubleAuction(), config=FrameworkConfig(k=1))
        result = run.execute()
        for user_id, observed in result.bidder_observations.items():
            assert observed == result.outcome.result

    def test_with_latency_model(self):
        bids = small_bids(seed=2)
        run = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=1),
            latency_model=ConstantLatencyModel(0.005),
        )
        result = run.execute()
        assert not result.aborted
        assert result.outcome.elapsed_time > 0.005

    def test_standard_auction_round(self):
        users = tuple(UserBid(f"u{i}", 1.0 + 0.05 * i, 0.4) for i in range(5))
        providers = tuple(ProviderAsk(pid, 0.0, 0.9) for pid in PROVIDERS)
        bids = BidVector(users, providers)
        run = AuctionRun(
            bids, StandardAuction(epsilon=0.5), config=FrameworkConfig(k=1, parallel=True)
        )
        result = run.execute()
        assert not result.aborted
        result.outcome.auction_result.allocation.check_feasible(bids, single_provider=True)


class TestAuctionRunMisbehavingBidders:
    def test_silent_bidder_is_excluded_but_round_completes(self):
        bids = small_bids(seed=3)
        silent_user = bids.users[0].user_id
        run = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=1),
            bidder_strategies={silent_user: SilentBidder()},
            deadline=0.5,
        )
        result = run.execute()
        assert not result.aborted
        assert silent_user not in result.outcome.auction_result.allocation.winners()

    def test_invalid_bidder_is_excluded(self):
        bids = small_bids(seed=4)
        bad_user = bids.users[1].user_id
        run = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=1),
            bidder_strategies={bad_user: InvalidBidder()},
        )
        result = run.execute()
        assert not result.aborted
        assert bad_user not in result.outcome.auction_result.allocation.winners()

    def test_inconsistent_bidder_does_not_break_agreement(self):
        bids = small_bids(seed=5)
        equivocator = bids.users[2].user_id
        run = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=1),
            bidder_strategies={equivocator: InconsistentBidder()},
        )
        result = run.execute()
        # The outcome is a single agreed pair; all providers output the same thing.
        assert not result.aborted
        outputs = list(result.outcome.provider_outputs.values())
        assert all(o == outputs[0] for o in outputs)

    def test_other_bidders_unaffected_by_misbehaviour(self):
        """Validity: a correct user's bid is preserved even with a silent peer."""
        users = (
            UserBid("honest", 1.2, 0.4),
            UserBid("silent", 1.1, 0.4),
            UserBid("filler", 0.9, 0.4),
        )
        # Small per-provider capacities so that several providers trade and the
        # McAfee trade reduction leaves the top user as a winner.
        providers = tuple(ProviderAsk(pid, 0.1, 0.3) for pid in PROVIDERS)
        bids = BidVector(users, providers)
        run = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=1),
            bidder_strategies={"silent": SilentBidder()},
            deadline=0.2,
        )
        result = run.execute()
        assert not result.aborted
        assert "honest" in result.outcome.auction_result.allocation.winners()


class TestEarlyStart:
    """Providers start once every expected bid and ask is in, else at the deadline."""

    DEADLINE = 0.5

    def elapsed(self, silent=(), strangers=()):
        bids = small_bids()
        network = SimNetwork(latency_model=ConstantLatencyModel(0.005))
        for ask in bids.providers:
            network.add_node(
                CollectingProviderNode(
                    ask.provider_id,
                    ask,
                    DoubleAuction(),
                    FrameworkConfig(k=1),
                    expected_users=bids.user_ids,
                    providers=PROVIDERS,
                    deadline=self.DEADLINE,
                    announce_result=False,
                )
            )
        for user in bids.users + tuple(UserBid(uid, 9.0, 1.0) for uid in strangers):
            strategy = SilentBidder() if user.user_id in silent else None
            network.add_node(BidderNode(user, PROVIDERS, strategy, wait_for_result=False))
        stats = network.run()
        outputs = [network.node(pid).output for pid in PROVIDERS]
        assert all(isinstance(output, AuctionResult) for output in outputs)
        assert not any(uid in outputs[0].allocation.winners() for uid in strangers)
        return stats.elapsed_time

    def test_starts_before_the_deadline_when_everything_arrived(self):
        assert self.elapsed() < self.DEADLINE
        assert self.elapsed(strangers=["zz-stranger"]) < self.DEADLINE

    def test_an_unexpected_bid_does_not_stand_in_for_a_missing_one(self):
        missing = small_bids().users[0].user_id
        assert self.elapsed(silent=[missing]) >= self.DEADLINE
        assert self.elapsed(silent=[missing], strangers=["zz-stranger"]) >= self.DEADLINE
