"""Tests for input validation, common coin and data transfer blocks (Properties 3-5).

Input validation is the data transfer with ``S = O =`` every provider, each
sending the :class:`~repro.net.serialization.Digest` of its vector: the
allocator spawns exactly that block (``SeededAllocatorBlock.on_start``), so
the tests below build it the same way.
"""

import dataclasses

import pytest

from tests.conftest import run_block_network

from repro.auctions.base import BidVector
from repro.auctions.double_auction import DoubleAuction
from repro.common import ABORT, is_abort
from repro.core.allocator import SequentialAllocatorBlock
from repro.core.common_coin import CommonCoinBlock
from repro.core.data_transfer import DataTransferBlock
from repro.net.network import SimNetwork
from repro.net.protocol import ProtocolBlock, ProtocolNode
from repro.net.scheduler import RandomScheduler
from repro.net.serialization import Digest, canonical_encode

PROVIDERS = ["p0", "p1", "p2", "p3"]


def validation(vector, providers=PROVIDERS, round_timeout=None):
    """The input validation the allocator runs: a transfer of the vector's digest."""
    return DataTransferBlock(
        "iv", providers, providers, my_value=Digest(vector), round_timeout=round_timeout
    )


class Silent(ProtocolBlock):
    """A provider that takes part but never sends a thing."""

    def on_start(self, ctx):
        return None

    def on_message(self, ctx, sender, subtag, payload):
        return None


def forged(vector):
    """``vector`` with its first user's bid raised: what a provider would forge."""
    first = vector.users[0]
    users = (dataclasses.replace(first, unit_value=first.unit_value + 1.0),) + vector.users[1:]
    return BidVector(users, vector.providers)


def rebuilt(vector):
    """An equal-content vector of distinct objects, down to every bid and ask."""
    return BidVector(
        tuple(dataclasses.replace(u) for u in vector.users),
        tuple(dataclasses.replace(p) for p in vector.providers),
    )


class TestInputValidation:
    def test_same_inputs_pass_through(self, small_double_bids):
        outputs = run_block_network(PROVIDERS, lambda nid: validation(small_double_bids))
        assert all(v == Digest(small_double_bids) for v in outputs.values())

    def test_a_forged_vector_drives_every_honest_provider_to_bottom(self, small_double_bids):
        # Condition (1) of Property 3: two providers with different inputs both
        # output ⊥ — here everyone does, since p3 disagrees with all the others.
        bad = forged(small_double_bids)
        outputs = run_block_network(
            PROVIDERS, lambda nid: validation(bad if nid == "p3" else small_double_bids)
        )
        assert outputs == dict.fromkeys(PROVIDERS, ABORT)

    def test_a_forged_vector_aborts_the_allocator(self, small_double_bids):
        # The same at the allocator, which spawns the transfer at ``<alloc>/iv``.
        bad = forged(small_double_bids)
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: SequentialAllocatorBlock(
                "alloc", bad if nid == "p3" else small_double_bids, DoubleAuction()
            ),
        )
        assert outputs == dict.fromkeys(PROVIDERS, ABORT)
        honest = run_block_network(
            PROVIDERS,
            lambda nid: SequentialAllocatorBlock("alloc", small_double_bids, DoubleAuction()),
        )
        assert not any(is_abort(v) for v in honest.values())

    @pytest.mark.parametrize("change", ["none", "rebuilt", "forged", "rebuilt-forged"])
    def test_the_verdict_is_that_of_the_canonical_bytes(self, small_double_bids, change):
        # The auction_run path: each provider assembles its own agreed vector
        # from the same decisions, so the vectors are equal in content but
        # distinct objects.  A digest compares as its vector does, and on an
        # agreed vector that is the verdict of comparing canonical bytes:
        # the validity rule leaves no NaN in one (a NaN bid is neutralised),
        # so ``==`` and the bytes cannot part on a NaN.
        other = {
            "none": small_double_bids,
            "rebuilt": rebuilt(small_double_bids),
            "forged": forged(small_double_bids),
            "rebuilt-forged": forged(rebuilt(small_double_bids)),
        }[change]
        outputs = run_block_network(
            PROVIDERS, lambda nid: validation(other if nid == "p2" else small_double_bids)
        )
        same_bytes = canonical_encode(other) == canonical_encode(small_double_bids)
        assert same_bytes == (change in ("none", "rebuilt"))
        assert all(is_abort(v) != same_bytes for v in outputs.values())

    def test_a_conflict_with_a_silent_peer_and_no_timeout_is_bottom(self, small_double_bids):
        # No round_timeout and p3 never speaks: the honest providers cannot wait
        # for everyone, but two digests already differ, so they output ⊥ at once.
        bad = forged(small_double_bids)

        def factory(nid):
            if nid == "p3":
                return Silent("iv")
            return validation(bad if nid == "p2" else small_double_bids)

        outputs = run_block_network(PROVIDERS, factory)
        assert outputs == {"p0": ABORT, "p1": ABORT, "p2": ABORT, "p3": None}

    def test_a_timeout_on_a_partial_consistent_view_is_degraded(self, small_double_bids):
        network = SimNetwork(seed=0)
        blocks = {}

        def factory(nid):
            if nid == "p3":
                return Silent("iv")
            blocks[nid] = validation(small_double_bids, round_timeout=0.5)
            return blocks[nid]

        for nid in PROVIDERS:
            network.add_node(ProtocolNode(nid, PROVIDERS, "iv", lambda nid=nid: factory(nid)))
        network.run()
        for nid, block in blocks.items():
            assert block.result == Digest(small_double_bids), nid
            assert block.degraded and network.node(nid).degraded

    def test_works_with_two_providers_only(self, small_double_bids):
        pair = ["p0", "p1"]
        outputs = run_block_network(pair, lambda nid: validation(small_double_bids, pair))
        assert outputs == dict.fromkeys(pair, Digest(small_double_bids))


class RecordingCoin(CommonCoinBlock):
    """Keeps the number each provider revealed."""

    reveals = {}

    def on_start(self, ctx):
        super().on_start(ctx)
        RecordingCoin.reveals[ctx.node_id] = self._my_value


class TestCommonCoin:
    def test_all_providers_output_the_same_seed(self):
        outputs = run_block_network(
            ["p0", "p1", "p2", "p3"], lambda nid: CommonCoinBlock("coin")
        )
        values = set(outputs.values())
        assert len(values) == 1
        value = values.pop()
        assert isinstance(value, int) and 0 <= value < 2**63

    @pytest.mark.parametrize("seed", range(4))
    def test_the_seed_is_the_old_seed_formula_of_the_reveals(self, seed):
        # The seed is min(int(u·2⁶³), 2⁶³−1) of the combined uniform u, the
        # transform a 63-bit uniform seed distribution applied, so every seed
        # (and every outcome) reads as before.
        RecordingCoin.reveals = {}
        outputs = run_block_network(
            ["p0", "p1", "p2"], lambda nid: RecordingCoin("coin"), seed=seed
        )
        reveals = RecordingCoin.reveals
        u = sum(reveals[pid] for pid in sorted(reveals)) % 1.0
        expected = min(int(u * (1 << 63)), (1 << 63) - 1)
        assert outputs == dict.fromkeys(["p0", "p1", "p2"], expected)
        assert type(expected) is int

    def test_different_seeds_give_different_values(self):
        first = run_block_network(
            ["p0", "p1"], lambda nid: CommonCoinBlock("coin"), seed=1
        )["p0"]
        second = run_block_network(
            ["p0", "p1"], lambda nid: CommonCoinBlock("coin"), seed=2
        )["p0"]
        assert first != second

    def test_agreement_under_random_schedule(self):
        for seed in range(5):
            outputs = run_block_network(
                ["p0", "p1", "p2"],
                lambda nid: CommonCoinBlock("coin"),
                scheduler=RandomScheduler(),
                seed=seed,
            )
            assert len(set(outputs.values())) == 1
            assert not is_abort(outputs["p0"])

    def test_output_is_roughly_uniform_across_seeds(self):
        values = []
        for seed in range(40):
            outputs = run_block_network(
                ["p0", "p1"], lambda nid: CommonCoinBlock("coin"), seed=seed
            )
            values.append(outputs["p0"] / 2**63)
        assert min(values) < 0.3
        assert max(values) > 0.7


class TestDataTransfer:
    def test_transfer_from_group_to_group(self):
        senders = ["p0", "p1"]
        receivers = ["p2", "p3"]

        def factory(nid):
            if nid in senders:
                return DataTransferBlock("dt", senders, receivers, my_value={"x": 42})
            return DataTransferBlock("dt", senders, receivers)

        outputs = run_block_network(senders + receivers, factory)
        assert all(v == {"x": 42} for v in outputs.values())

    def test_disagreeing_senders_cause_abort_at_receivers(self):
        senders = ["p0", "p1"]
        receivers = ["p2"]

        def factory(nid):
            if nid in senders:
                value = 1 if nid == "p0" else 2
                return DataTransferBlock("dt", senders, receivers, my_value=value)
            return DataTransferBlock("dt", senders, receivers)

        outputs = run_block_network(senders + receivers, factory)
        assert is_abort(outputs["p2"])

    def test_sender_that_is_also_receiver(self):
        senders = ["p0", "p1"]
        receivers = ["p1", "p2"]

        def factory(nid):
            if nid in senders:
                return DataTransferBlock("dt", senders, receivers, my_value="v")
            return DataTransferBlock("dt", senders, receivers)

        outputs = run_block_network(["p0", "p1", "p2"], factory)
        assert outputs == {"p0": "v", "p1": "v", "p2": "v"}

    def test_sender_without_value_is_an_error(self):
        with pytest.raises(ValueError):
            run_block_network(
                ["p0", "p1"],
                lambda nid: DataTransferBlock("dt", ["p0"], ["p1"]),
            )

    def test_needs_at_least_one_sender(self):
        with pytest.raises(ValueError):
            DataTransferBlock("dt", [], ["p1"])

    def test_traffic_from_outside_sender_set_is_ignored(self):
        # p2 is not in S; its (malicious) traffic must not influence the receiver.
        senders = ["p0"]
        receivers = ["p1"]

        class Meddler(DataTransferBlock):
            def on_start(self, ctx):
                # Not a sender, but injects a conflicting value anyway.
                ctx.send("p1", "poison", subtag=self.VALUE)
                self.complete("done")

        def factory(nid):
            if nid == "p0":
                return DataTransferBlock("dt", senders, receivers, my_value="good")
            if nid == "p2":
                return Meddler("dt", senders, receivers)
            return DataTransferBlock("dt", senders, receivers)

        outputs = run_block_network(["p0", "p1", "p2"], factory)
        assert outputs["p1"] == "good"
