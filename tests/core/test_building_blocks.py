"""Tests for input validation, common coin and data transfer blocks (Properties 3-5)."""

import pytest

from tests.conftest import run_block_network

from repro.common import ABORT, is_abort
from repro.core.common_coin import CommonCoinBlock
from repro.core.data_transfer import DataTransferBlock
from repro.core.distributions import SeedDistribution, UniformDistribution
from repro.core.input_validation import InputValidationBlock
from repro.net.scheduler import RandomScheduler


class TestInputValidation:
    def test_same_inputs_pass_through(self):
        vector = {"u0": 1.0, "u1": 2.0}
        outputs = run_block_network(
            ["p0", "p1", "p2"], lambda nid: InputValidationBlock("iv", dict(vector))
        )
        assert all(v == vector for v in outputs.values())

    def test_different_inputs_abort_both(self):
        def factory(nid):
            value = {"u0": 1.0} if nid != "p2" else {"u0": 999.0}
            return InputValidationBlock("iv", value)

        outputs = run_block_network(["p0", "p1", "p2"], factory)
        # Condition (1) of Property 3: any two providers with different inputs both
        # output ⊥ (here everyone does, since p2 disagrees with both others).
        assert is_abort(outputs["p2"])
        assert is_abort(outputs["p0"])
        assert is_abort(outputs["p1"])

    def test_works_with_two_providers_only(self):
        outputs = run_block_network(
            ["p0", "p1"], lambda nid: InputValidationBlock("iv", "same")
        )
        assert all(v == "same" for v in outputs.values())


class TestCommonCoin:
    def test_all_providers_output_same_value(self):
        outputs = run_block_network(
            ["p0", "p1", "p2", "p3"],
            lambda nid: CommonCoinBlock("coin", UniformDistribution(0.0, 1.0)),
        )
        values = set(outputs.values())
        assert len(values) == 1
        value = values.pop()
        assert 0.0 <= value < 1.0

    def test_different_seeds_give_different_values(self):
        first = run_block_network(
            ["p0", "p1"], lambda nid: CommonCoinBlock("coin"), seed=1
        )["p0"]
        second = run_block_network(
            ["p0", "p1"], lambda nid: CommonCoinBlock("coin"), seed=2
        )["p0"]
        assert first != second

    def test_seed_distribution_gives_integer(self):
        outputs = run_block_network(
            ["p0", "p1", "p2"], lambda nid: CommonCoinBlock("coin", SeedDistribution())
        )
        value = outputs["p0"]
        assert isinstance(value, int)
        assert all(v == value for v in outputs.values())

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
            values.append(outputs["p0"])
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
