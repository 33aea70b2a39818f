"""Tests for the batched (multi-instance) consensus block."""

from unittest import mock

import pytest

from tests.conftest import run_block_network

from repro.auctions.base import UserBid
from repro.common import ABORT
from repro.consensus import multi_consensus
from repro.consensus.multi_consensus import BatchedConsensusBlock
from repro.consensus.rational_consensus import RationalConsensusBlock, majority_decision
from repro.net import serialization
from repro.net.scheduler import RandomScheduler
from repro.net.serialization import FrozenMap, estimate_size


class TestBatchedAgreement:
    def test_identical_batches_agree(self):
        inputs = {"x": 1, "y": "two", "z": None}
        outputs = run_block_network(
            ["p0", "p1", "p2"], lambda nid: BatchedConsensusBlock("b", dict(inputs))
        )
        assert all(v == inputs for v in outputs.values())

    def test_per_label_majority(self):
        def factory(nid):
            my = {"x": 1 if nid != "p2" else 0, "y": "a" if nid == "p0" else "b"}
            return BatchedConsensusBlock("b", my, labels=["x", "y"])

        outputs = run_block_network(["p0", "p1", "p2"], factory)
        assert all(v == {"x": 1, "y": "b"} for v in outputs.values())

    def test_all_providers_get_identical_output(self):
        def factory(nid):
            return BatchedConsensusBlock("b", {"l1": nid, "l2": 5}, labels=["l1", "l2"])

        outputs = run_block_network(["p0", "p1", "p2", "p3"], factory, scheduler=RandomScheduler())
        values = list(outputs.values())
        assert all(v == values[0] for v in values)
        assert values[0]["l2"] == 5

    def test_missing_label_aborts_locally_and_denies_progress(self):
        def factory(nid):
            labels = ["x", "y"]
            my = {"x": 1, "y": 2} if nid != "p0" else {"x": 1}
            return BatchedConsensusBlock("b", my, labels=labels)

        outputs = run_block_network(["p0", "p1", "p2"], factory)
        # p0's own batch is invalid: it aborts immediately and stays silent, so the
        # correct providers never decide a value (which the framework maps to ⊥).
        assert outputs["p0"] == ABORT
        assert outputs["p1"] in (None, ABORT)
        assert outputs["p2"] in (None, ABORT)

    def test_malformed_remote_batch_is_detected(self):
        def factory(nid):
            labels = ["x", "y"]
            if nid == "p0":
                # The deviant declares only label "x" as its universe but still
                # participates, so its malformed batch reaches the correct providers.
                return BatchedConsensusBlock("b", {"x": 1}, labels=["x"])
            return BatchedConsensusBlock("b", {"x": 1, "y": 2}, labels=labels)

        outputs = run_block_network(["p0", "p1", "p2"], factory)
        assert outputs["p1"] == ABORT
        assert outputs["p2"] == ABORT

    def test_validator_rejects_invalid_remote_values(self):
        def factory(nid):
            my = {"x": -1 if nid == "p1" else 1}
            # Only the correct providers validate; the deviant broadcasts its
            # invalid value and is caught.
            validator = None if nid == "p1" else (lambda v: v > 0)
            return BatchedConsensusBlock("b", my, labels=["x"], validator=validator)

        outputs = run_block_network(["p0", "p1", "p2"], factory)
        assert outputs["p0"] == ABORT
        assert outputs["p2"] == ABORT


class TestConsistencyWithPerInstanceConsensus:
    def test_batched_matches_per_label_decisions(self):
        """The batched mode must decide exactly what per-label instances decide."""
        per_provider_inputs = {
            "p0": {"a": 1, "b": "x", "c": 10},
            "p1": {"a": 2, "b": "x", "c": 10},
            "p2": {"a": 2, "b": "y", "c": 10},
        }
        providers = list(per_provider_inputs)

        batched = run_block_network(
            providers,
            lambda nid: BatchedConsensusBlock(
                "b", dict(per_provider_inputs[nid]), labels=["a", "b", "c"]
            ),
        )

        per_label = {}
        for label in ["a", "b", "c"]:
            outputs = run_block_network(
                providers,
                lambda nid, label=label: RationalConsensusBlock(
                    label, per_provider_inputs[nid][label]
                ),
            )
            per_label[label] = outputs["p0"]
            assert len(set(outputs.values())) == 1

        assert batched["p0"] == per_label
        assert batched["p1"] == per_label
        assert batched["p2"] == per_label


# -- shared immutable batches ----------------------------------------------------------
class _DeviantContext:
    """A block context whose broadcasts of one subtag pass through ``corrupt``.

    ``corrupt(recipient, payload)`` returns what that recipient is sent, in the
    style of ``EquivocatingProviderNode``'s callback; everything else is the
    honest context.
    """

    def __init__(self, ctx, subtag, corrupt):
        self._ctx = ctx
        self._subtag = subtag
        self._corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def broadcast(self, payload, subtag="", include_self=False):
        if subtag != self._subtag:
            self._ctx.broadcast(payload, subtag=subtag, include_self=include_self)
            return
        for recipient in self._ctx.participants:
            if recipient != self._ctx.node_id:
                self._ctx.send(recipient, self._corrupt(recipient, payload), subtag=subtag)


class DeviantBatchedBlock(BatchedConsensusBlock):
    """Follows the protocol except for what it ships under one subtag."""

    def __init__(self, *args, subtag, corrupt, **kwargs):
        super().__init__(*args, **kwargs)
        self._deviation = (subtag, corrupt)

    def on_start(self, ctx):
        super().on_start(_DeviantContext(ctx, *self._deviation))

    def on_message(self, ctx, sender, subtag, payload):
        super().on_message(_DeviantContext(ctx, *self._deviation), sender, subtag, payload)


PROVIDERS = ["p0", "p1", "p2"]
TIMEOUTS = pytest.mark.parametrize("round_timeout", [None, 5.0], ids=["strict", "timeout"])


def run_with_deviant(subtag, corrupt, round_timeout):
    """Three providers with the same inputs; ``p0`` corrupts what it ships under ``subtag``."""

    def factory(nid):
        kwargs = dict(labels=["x", "y"], round_timeout=round_timeout)
        if nid == "p0":
            return DeviantBatchedBlock("b", {"x": 1, "y": 2}, subtag=subtag, corrupt=corrupt, **kwargs)
        return BatchedConsensusBlock("b", {"x": 1, "y": 2}, **kwargs)

    return run_block_network(PROVIDERS, factory)


class TestByzantineProvider:
    @TIMEOUTS
    def test_value_batch_with_keys_that_do_not_order(self, round_timeout):
        """``sorted(batch.keys())`` raised ``TypeError`` inside the *correct* provider."""
        outputs = run_with_deviant(
            "value", lambda recipient, batch: {1: batch["x"], "x": batch["y"]}, round_timeout
        )
        assert outputs["p1"] == ABORT
        assert outputs["p2"] == ABORT

    @TIMEOUTS
    def test_echo_holding_a_batch_with_keys_that_do_not_order(self, round_timeout):
        def corrupt(recipient, echo):
            return {**echo, "p0": {1: 1, "x": 2}}

        outputs = run_with_deviant("echo", corrupt, round_timeout)
        assert outputs["p1"] == ABORT
        assert outputs["p2"] == ABORT

    @TIMEOUTS
    def test_equivocation_on_a_value_batch(self, round_timeout):
        def corrupt(recipient, batch):
            return {**batch, "x": 99} if recipient == "p1" else batch

        outputs = run_with_deviant("value", corrupt, round_timeout)
        assert outputs["p1"] == ABORT
        assert outputs["p2"] == ABORT

    @TIMEOUTS
    def test_equivocation_on_an_echo(self, round_timeout):
        def corrupt(recipient, echo):
            return {**echo, "p2": {"x": 1, "y": 99}} if recipient == "p1" else echo

        outputs = run_with_deviant("echo", corrupt, round_timeout)
        assert outputs["p1"] == ABORT

    @TIMEOUTS
    def test_equal_content_in_different_objects_is_not_a_deviation(self, round_timeout):
        """Identity is the shortcut; the content comparison is the rule."""

        def rebuild(recipient, payload):
            return {
                key: dict(value) if isinstance(value, dict) else value
                for key, value in payload.items()
            }

        for subtag in ("value", "echo"):
            outputs = run_with_deviant(subtag, rebuild, round_timeout)
            assert all(output == {"x": 1, "y": 2} for output in outputs.values())


class TestSharedImmutableBatches:
    @TIMEOUTS
    def test_mutating_the_input_after_start_changes_nothing(self, round_timeout):
        sources = {nid: {"x": 1, "y": [nid]} for nid in PROVIDERS}
        blocks = {}

        class Meddler(BatchedConsensusBlock):
            def on_start(self, ctx):
                super().on_start(ctx)
                sources[ctx.node_id]["x"] = "changed after start"
                sources[ctx.node_id]["z"] = "added after start"

        def factory(nid):
            cls = Meddler if nid == "p0" else BatchedConsensusBlock
            blocks[nid] = cls("b", sources[nid], labels=["x", "y"], round_timeout=round_timeout)
            return blocks[nid]

        outputs = run_block_network(PROVIDERS, factory)
        assert all(output == {"x": 1, "y": ["p0"]} for output in outputs.values())
        for nid in PROVIDERS:
            assert all(echo["p0"] == {"x": 1, "y": ["p0"]} for echo in blocks[nid]._echoes.values())
            with pytest.raises(TypeError):
                outputs[nid]["x"] = 2

    @TIMEOUTS
    def test_decides_what_the_per_label_majority_decides(self, round_timeout):
        shared = UserBid("u0", 1.0, 0.5)
        per_provider = {
            nid: {
                "identical": shared,
                "equal": UserBid("u1", 2.0, 0.25),  # one object per provider
                "split": UserBid("u2", 3.0 if nid == "p0" else 4.0, 1.0),
                "all-differ": UserBid("u3", float(index), 1.0),
                "missing": None,
                "missing-at-one": None if nid == "p1" else shared,
                "unhashable": [index % 2],
            }
            for index, nid in enumerate(PROVIDERS)
        }
        labels = sorted(per_provider["p0"])
        expected = {
            label: majority_decision({nid: per_provider[nid][label] for nid in PROVIDERS})
            for label in labels
        }
        outputs = run_block_network(
            PROVIDERS,
            lambda nid: BatchedConsensusBlock(
                "b", per_provider[nid], labels=labels, round_timeout=round_timeout
            ),
        )
        for output in outputs.values():
            assert output == expected
            assert all(output[label] is expected[label] for label in labels)

    @TIMEOUTS
    def test_unanimity_by_identity_needs_no_counting(self, round_timeout):
        providers = [f"p{i}" for i in range(7)]
        bids = {f"user:u{i:03d}": UserBid(f"u{i:03d}", 1.0 + i, 0.5) for i in range(299)}
        bids["user:absent"] = None
        odd_one = {**bids, "user:u007": UserBid("u007", 8.0, 0.5)}  # equal, not identical

        def run(inputs_of):
            with mock.patch.object(
                multi_consensus, "majority_decision", wraps=majority_decision
            ) as spy:
                outputs = run_block_network(
                    providers,
                    lambda nid: BatchedConsensusBlock(
                        "b", dict(inputs_of(nid)), round_timeout=round_timeout
                    ),
                )
            for output in outputs.values():
                assert output == bids
            return outputs, spy.call_count

        outputs, calls = run(lambda nid: bids)
        assert calls == 0
        assert all(outputs["p3"][label] is bids[label] for label in bids)
        _, calls = run(lambda nid: odd_one if nid == "p3" else bids)
        assert calls >= 1

    def test_sizing_an_echo_measures_no_entry_of_an_already_sized_batch(self):
        bids = [UserBid(f"u{i:03d}", 1.0 + i, 0.5) for i in range(50)]
        batches = {
            nid: FrozenMap({f"user:{bid.user_id}": bid for bid in bids}) for nid in PROVIDERS
        }
        plain = {nid: dict(batch) for nid, batch in batches.items()}
        for batch in batches.values():
            estimate_size(("b|value", batch))  # what broadcasting it did
        leaf = serialization._PLANS[UserBid]
        with mock.patch.object(leaf, "measure", wraps=leaf.measure) as spy:
            size = estimate_size(("b|echo", FrozenMap(batches)))
            assert spy.call_count == 0
            assert estimate_size(("b|echo", plain)) == size
            assert spy.call_count == len(PROVIDERS) * len(bids)
