"""Tests for the bid agreement block (Property 1: eventual agreement + validity)."""

import pytest

from tests.conftest import run_block_network

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.validation import neutral_provider_ask, neutral_user_bid
from repro.common import ABORT, is_abort
from repro.community.workload import DoubleAuctionWorkload
from repro.consensus.bit_encoding import BID_BIT_LENGTH
from repro.core.bid_agreement import BidAgreementBlock, agreement_messages
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.net.scheduler import RandomScheduler
from repro.net.serialization import FrozenMap

PROVIDERS = ["p0", "p1", "p2"]
USERS = ["u0", "u1"]

BIDS = {
    "u0": UserBid("u0", 1.0, 0.5),
    "u1": UserBid("u1", 0.9, 0.7),
}
ASKS = {pid: ProviderAsk(pid, 0.1, 1.0) for pid in PROVIDERS}


def make_block(nid, received_bids=None, received_asks=None, mode="batched"):
    return BidAgreementBlock(
        "ba",
        expected_users=USERS,
        expected_providers=PROVIDERS,
        received_user_bids=received_bids if received_bids is not None else dict(BIDS),
        received_provider_asks=received_asks if received_asks is not None else dict(ASKS),
        mode=mode,
    )


class TestHonestCase:
    @pytest.mark.parametrize("mode", ["batched", "per_label", "per_bit"])
    def test_agreement_and_validity(self, mode):
        outputs = run_block_network(PROVIDERS, lambda nid: make_block(nid, mode=mode))
        values = list(outputs.values())
        assert all(isinstance(v, BidVector) for v in values)
        assert all(v == values[0] for v in values)
        # Validity: correct bidders' bids are preserved exactly.
        assert values[0].user("u0") == BIDS["u0"]
        assert values[0].user("u1") == BIDS["u1"]
        assert values[0].provider("p1") == ASKS["p1"]

    def test_modes_agree_with_each_other(self):
        batched = run_block_network(PROVIDERS, lambda nid: make_block(nid, mode="batched"))["p0"]
        per_label = run_block_network(PROVIDERS, lambda nid: make_block(nid, mode="per_label"))["p0"]
        per_bit = run_block_network(PROVIDERS, lambda nid: make_block(nid, mode="per_bit"))["p0"]
        assert batched == per_label == per_bit

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

    def test_missing_ask_becomes_neutral(self):
        received_asks = dict(ASKS)
        received_asks.pop("p2")
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: make_block(nid, received_asks=dict(received_asks)),
        )
        assert outputs["p0"].provider("p2") == neutral_provider_ask("p2")


class TestConfiguration:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_block("p0", mode="telepathy")


def double_round(mode, round_timeout=None):
    """An honest double-auction round of ``PROVIDERS`` under agreement ``mode``."""
    bids = DoubleAuctionWorkload(seed=1).generate(2, len(PROVIDERS), provider_ids=PROVIDERS)
    return DistributedAuctioneer(
        DoubleAuction(),
        providers=PROVIDERS,
        config=FrameworkConfig(k=1, agreement_mode=mode, round_timeout=round_timeout),
    ).run_from_bids(bids)


class TestOneConsensusBlock:
    """Every mode runs the batched consensus block; a mode only splits the labels."""

    LABELS = ["ask:p0", "ask:p1", "ask:p2", "user:u0000", "user:u0001"]
    BLOCKS = {
        "batched": ["batch"],
        "per_label": LABELS,
        "per_bit": [
            f"user:{uid}/bit{position:03d}"
            for uid in ("u0000", "u0001")
            for position in range(BID_BIT_LENGTH)
        ]
        + LABELS[:3],
    }

    @pytest.mark.parametrize("mode", sorted(BLOCKS))
    def test_every_block_sends_one_value_and_one_echo_round(self, mode):
        report = double_round(mode)
        assert not report.aborted
        blocks = {
            path[len("framework/ba/") :]: count
            for path, count in report.stats.messages_by_tag.items()
            if path.startswith("framework/ba/")
        }
        assert sorted(blocks) == sorted(self.BLOCKS[mode])
        assert set(blocks.values()) == {agreement_messages(len(PROVIDERS))}

    @pytest.mark.parametrize("mode", ["per_label", "per_bit"])
    def test_a_healthy_timeout_changes_no_faithful_round(self, mode):
        timed = double_round(mode, round_timeout=0.5)
        assert not timed.outcome.degraded
        assert timed.outcome.result == double_round("batched").outcome.result

    def test_a_bit_instance_rejects_a_value_that_is_not_a_bit(self):
        class NonBitSender(BidAgreementBlock):
            """Broadcasts 2 as the first bit of u0's bid, skipping its own check."""

            def _instances(self):
                instances = super()._instances()
                name, _, labels, _ = instances[0]
                return [(name, FrozenMap({name: 2}), labels, None)] + instances[1:]

        def factory(nid):
            build = NonBitSender if nid == "p0" else BidAgreementBlock
            return build("ba", USERS, PROVIDERS, dict(BIDS), dict(ASKS), mode="per_bit")

        outputs = run_block_network(PROVIDERS, factory)
        assert outputs["p1"] == ABORT
        assert outputs["p2"] == ABORT
