"""Tests for bidder/provider runtime nodes and full auction rounds."""

import pytest

from repro.adversary.bidder_behaviors import (
    InconsistentBidder,
    InvalidBidder,
    ScalingBidder,
    SilentBidder,
)
from repro.auctions.base import AuctionResult, BidVector, ProviderAsk, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.common import is_abort
from repro.community.workload import DoubleAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.net.latency import BandwidthLatencyModel, ConstantLatencyModel
from repro.net.network import SimNetwork
from repro.net.scheduler import FairScheduler, RandomScheduler
from repro.runtime import auction_run
from repro.runtime.auction_run import AuctionRun
from repro.runtime.bidder import BID_TAG, BidderNode, TruthfulBidder
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
                )
            )
        for user in bids.users + tuple(UserBid(uid, 9.0, 1.0) for uid in strangers):
            strategy = SilentBidder() if user.user_id in silent else None
            network.add_node(BidderNode(user, PROVIDERS, strategy))
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


class PerProviderSendBidder(BidderNode):
    """The bidder before its submissions became fan-outs: one ``send`` per provider.

    Kept as the reference the fan-out must match message for message.
    """

    def on_start(self, ctx):
        for provider_id in self.providers:
            payload = self.strategy.bid_for_provider(self.true_bid, provider_id)
            if payload is not None:
                ctx.send(provider_id, payload, tag=BID_TAG)


class WithholdingBidder(TruthfulBidder):
    """Truthful, except that one provider in the middle of the order gets nothing."""

    def __init__(self, withheld):
        self.withheld = withheld

    def bid_for_provider(self, true_bid, provider_id):
        return None if provider_id == self.withheld else true_bid


def _recording(scheduler_class):
    """``scheduler_class`` that also records every message it hands out."""

    class Recording(scheduler_class):
        def __init__(self):
            super().__init__()
            self.trace = []

        def pop(self, rng):
            message = super().pop(rng)
            if message is not None:
                self.trace.append(
                    (
                        message.msg_id,
                        message.sender,
                        message.recipient,
                        message.tag,
                        message.payload,
                        message.send_time,
                        message.arrival_time,
                        message.size_bytes,
                    )
                )
            return message

    return Recording()


class TestOneFanOutPerBidder:
    """A bidder's fan-out is the per-provider send loop, to the message."""

    PROVIDERS = [f"p{i}" for i in range(5)]
    STRATEGIES = {
        "truthful": lambda: None,
        "scaling": lambda: ScalingBidder(1.5),
        "inconsistent": lambda: InconsistentBidder(),
        "invalid": lambda: InvalidBidder(),
        "silent": lambda: SilentBidder(),
        "withholding": lambda: WithholdingBidder("p2"),
    }

    def round(self, monkeypatch, bidder_class, strategy, scheduler_class):
        monkeypatch.setattr(auction_run, "BidderNode", bidder_class)
        bids = DoubleAuctionWorkload(seed=6).generate(
            8, len(self.PROVIDERS), provider_ids=self.PROVIDERS
        )
        users = bids.user_ids
        scheduler = _recording(scheduler_class)
        result = AuctionRun(
            bids,
            DoubleAuction(),
            config=FrameworkConfig(k=2),
            # Two users carry the strategy, so their payloads interleave.
            bidder_strategies={uid: self.STRATEGIES[strategy]() for uid in (users[1], users[5])},
            deadline=0.2,
            latency_model=BandwidthLatencyModel(
                base=0.003, bandwidth_bytes_per_s=12.5e6, jitter=0.001
            ),
            scheduler=scheduler,
            seed=4,
        ).execute()
        return scheduler.trace, result.outcome, result.bidder_observations, result.stats

    @pytest.mark.parametrize("scheduler_class", [FairScheduler, RandomScheduler])
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_same_trace_and_record_as_one_send_per_provider(
        self, monkeypatch, strategy, scheduler_class
    ):
        fan_out = self.round(monkeypatch, BidderNode, strategy, scheduler_class)
        reference = self.round(monkeypatch, PerProviderSendBidder, strategy, scheduler_class)
        trace, outcome, observations, stats = fan_out
        assert trace == reference[0]
        assert any(entry[3] == BID_TAG for entry in trace)  # the bids are in the trace
        assert (outcome, observations, stats) == reference[1:]

    def test_a_truthful_bidder_enqueues_its_submission_once(self, monkeypatch):
        submissions = []
        enqueue = SimNetwork._enqueue

        def counting(network, sender, recipients, payload, tag, include_self):
            if tag == BID_TAG:
                submissions.append(sender)
            return enqueue(network, sender, recipients, payload, tag, include_self)

        monkeypatch.setattr(SimNetwork, "_enqueue", counting)
        providers = [f"p{i}" for i in range(8)]
        bids = DoubleAuctionWorkload(seed=1).generate(40, 8, provider_ids=providers)
        result = AuctionRun(bids, DoubleAuction(), config=FrameworkConfig(k=2)).execute()
        assert not result.aborted
        assert result.stats.messages_by_tag[BID_TAG] == 40 * 8
        assert len(submissions) == 40  # one per bidder, not one per (bidder, provider)
        assert sorted(submissions) == sorted(bids.user_ids)
