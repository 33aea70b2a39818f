"""Tests for the bid agreement block (Property 1: eventual agreement + validity)."""

from tests.conftest import run_block_network

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.validation import neutral_provider_ask, neutral_user_bid
from repro.community.workload import DoubleAuctionWorkload
from repro.core.bid_agreement import BidAgreementBlock, agreement_messages
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.net.scheduler import RandomScheduler

PROVIDERS = ["p0", "p1", "p2"]
USERS = ["u0", "u1"]

BIDS = {
    "u0": UserBid("u0", 1.0, 0.5),
    "u1": UserBid("u1", 0.9, 0.7),
}
ASKS = {pid: ProviderAsk(pid, 0.1, 1.0) for pid in PROVIDERS}


def make_block(nid, received_bids=None, received_asks=None):
    return BidAgreementBlock(
        "ba",
        expected_users=USERS,
        expected_providers=PROVIDERS,
        received_user_bids=received_bids if received_bids is not None else dict(BIDS),
        received_provider_asks=received_asks if received_asks is not None else dict(ASKS),
    )


class TestHonestCase:
    def test_agreement_and_validity(self):
        outputs = run_block_network(PROVIDERS, make_block)
        values = list(outputs.values())
        assert all(isinstance(v, BidVector) for v in values)
        assert all(v == values[0] for v in values)
        # Validity: correct bidders' bids are preserved exactly.
        assert values[0].user("u0") == BIDS["u0"]
        assert values[0].user("u1") == BIDS["u1"]
        assert values[0].provider("p1") == ASKS["p1"]

    def test_agreement_under_random_schedules(self):
        for seed in range(3):
            outputs = run_block_network(
                PROVIDERS,
                lambda nid: make_block(nid),
                scheduler=RandomScheduler(),
                seed=seed,
            )
            assert len({id(v) for v in outputs.values()}) >= 1
            assert all(v == outputs["p0"] for v in outputs.values())


class TestMisbehavingBidders:
    def test_missing_bid_becomes_neutral(self):
        received = dict(BIDS)
        received["u1"] = None
        outputs = run_block_network(
            PROVIDERS, lambda nid: make_block(nid, received_bids=dict(received))
        )
        agreed = outputs["p0"]
        assert agreed.user("u1") == neutral_user_bid("u1")
        assert agreed.user("u0") == BIDS["u0"]

    def test_invalid_bid_becomes_neutral(self):
        received = dict(BIDS)
        received["u0"] = "garbage"
        outputs = run_block_network(
            PROVIDERS, lambda nid: make_block(nid, received_bids=dict(received))
        )
        assert outputs["p1"].user("u0") == neutral_user_bid("u0")

    def test_identity_spoofing_becomes_neutral(self):
        received = dict(BIDS)
        received["u0"] = UserBid("someone_else", 5.0, 5.0)
        outputs = run_block_network(
            PROVIDERS, lambda nid: make_block(nid, received_bids=dict(received))
        )
        assert outputs["p2"].user("u0") == neutral_user_bid("u0")

    def test_inconsistent_bidder_resolved_consistently(self):
        """A bidder that equivocates ends up with one agreed bid at every provider."""
        per_provider = {
            "p0": UserBid("u0", 0.5, 0.5),
            "p1": UserBid("u0", 1.5, 0.5),
            "p2": UserBid("u0", 1.5, 0.5),
        }

        def factory(nid):
            received = dict(BIDS)
            received["u0"] = per_provider[nid]
            return make_block(nid, received_bids=received)

        outputs = run_block_network(PROVIDERS, factory)
        agreed = [outputs[p] for p in PROVIDERS]
        assert all(v == agreed[0] for v in agreed)
        # The agreed bid is one of the bids actually sent (majority here).
        assert agreed[0].user("u0") == UserBid("u0", 1.5, 0.5)
        # Validity for the well-behaved bidder.
        assert agreed[0].user("u1") == BIDS["u1"]

    def test_three_distinct_bids_decide_one_that_a_provider_received(self):
        """No majority: the agreed bid is still one some provider received (§4.1)."""
        per_provider = {
            "p0": UserBid("u0", 0.5, 0.25),
            "p1": UserBid("u0", 1.5, 0.5),
            "p2": UserBid("u0", 1.0, 0.75),
        }

        def factory(nid):
            received = dict(BIDS)
            received["u0"] = per_provider[nid]
            return make_block(nid, received_bids=received)

        outputs = run_block_network(PROVIDERS, factory)
        agreed = [outputs[p] for p in PROVIDERS]
        assert all(v == agreed[0] for v in agreed)
        assert agreed[0].user("u0") in per_provider.values()
        assert agreed[0].user("u1") == BIDS["u1"]

    def test_missing_ask_becomes_neutral(self):
        received_asks = dict(ASKS)
        received_asks.pop("p2")
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: make_block(nid, received_asks=dict(received_asks)),
        )
        assert outputs["p0"].provider("p2") == neutral_provider_ask("p2")


def double_round(round_timeout=None):
    """An honest double-auction round of ``PROVIDERS``."""
    bids = DoubleAuctionWorkload(seed=1).generate(2, len(PROVIDERS), provider_ids=PROVIDERS)
    return DistributedAuctioneer(
        DoubleAuction(),
        providers=PROVIDERS,
        config=FrameworkConfig(k=1, round_timeout=round_timeout),
    ).run_from_bids(bids)


class TestOneConsensusBlock:
    """The agreement runs one batched consensus block, named ``batch``."""

    def test_the_block_sends_one_value_and_one_echo_round(self):
        report = double_round()
        assert not report.aborted
        blocks = {
            path[len("framework/ba/") :]: count
            for path, count in report.stats.messages_by_tag.items()
            if path.startswith("framework/ba/")
        }
        assert blocks == {"batch": agreement_messages(len(PROVIDERS))}

    def test_a_healthy_timeout_changes_no_round(self):
        timed = double_round(round_timeout=0.5)
        assert not timed.outcome.degraded
        assert timed.outcome.result == double_round().outcome.result
