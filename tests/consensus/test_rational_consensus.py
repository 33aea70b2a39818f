"""Tests for the decision rule and for the single-instance consensus oracle.

``majority_decision`` is the shipped rule (``repro.consensus.multi_consensus``);
``RationalConsensusBlock`` is the test-side oracle the batched block is checked
against, so it is held to the protocol's guarantees here, on binary inputs (the
paper's building block) and on values from any finite domain.
"""

import pytest

from tests.conftest import run_block_network
from tests.consensus.rational_consensus import RationalConsensusBlock

from repro.common import ABORT
from repro.consensus.multi_consensus import majority_decision
from repro.net.scheduler import AdversarialScheduler, RandomScheduler


def BinaryConsensusBlock(name, my_input):
    """The paper's binary building block: inputs restricted to {0, 1}."""
    return RationalConsensusBlock(name, my_input, validator=lambda value: value in (0, 1))


class TestMajorityDecision:
    def test_majority_wins(self):
        values = {"a": 1, "b": 1, "c": 0}
        assert majority_decision(values) == 1

    def test_tie_broken_by_lowest_provider_id(self):
        values = {"b": 1, "a": 0}
        assert majority_decision(values) == 0

    def test_single_value(self):
        assert majority_decision({"x": "v"}) == "v"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_decision({})

    def test_unhashable_values_supported(self):
        values = {"a": [1, 2], "b": [1, 2], "c": [3]}
        assert majority_decision(values) == [1, 2]


class TestAgreement:
    def test_same_inputs_agree_on_that_value(self):
        outputs = run_block_network(
            ["p0", "p1", "p2"], lambda nid: BinaryConsensusBlock("c", 1)
        )
        assert all(v == 1 for v in outputs.values())

    def test_divergent_inputs_agree_on_some_input(self):
        inputs = {"p0": 0, "p1": 1, "p2": 1}
        outputs = run_block_network(
            list(inputs), lambda nid: BinaryConsensusBlock("c", inputs[nid])
        )
        decided = set(outputs.values())
        assert len(decided) == 1
        assert decided.pop() in {0, 1}

    def test_decision_is_majority_input(self):
        inputs = {"p0": 0, "p1": 1, "p2": 1, "p3": 1, "p4": 0}
        outputs = run_block_network(
            list(inputs), lambda nid: BinaryConsensusBlock("c", inputs[nid])
        )
        assert all(v == 1 for v in outputs.values())

    def test_arbitrary_value_domain(self):
        inputs = {"p0": "alpha", "p1": "alpha", "p2": "beta"}
        outputs = run_block_network(
            list(inputs), lambda nid: RationalConsensusBlock("c", inputs[nid])
        )
        assert all(v == "alpha" for v in outputs.values())

    def test_agreement_under_random_schedule(self):
        for seed in range(5):
            inputs = {"p0": 0, "p1": 1, "p2": 0, "p3": 1}
            outputs = run_block_network(
                list(inputs),
                lambda nid: BinaryConsensusBlock("c", inputs[nid]),
                scheduler=RandomScheduler(),
                seed=seed,
            )
            assert len(set(outputs.values())) == 1

    def test_agreement_under_adversarial_schedule(self):
        inputs = {"p0": 0, "p1": 1, "p2": 1}
        outputs = run_block_network(
            list(inputs),
            lambda nid: BinaryConsensusBlock("c", inputs[nid]),
            scheduler=AdversarialScheduler(targets=frozenset({"p0"})),
        )
        assert len(set(outputs.values())) == 1
        assert ABORT not in outputs.values()


class TestValidationAndAborts:
    def test_invalid_own_input_aborts_locally(self):
        outputs = run_block_network(
            ["p0", "p1"], lambda nid: BinaryConsensusBlock("c", 7 if nid == "p0" else 1)
        )
        assert outputs["p0"] == ABORT

    def test_invalid_own_input_stalls_correct_providers(self):
        """A provider that aborts locally and stays silent denies progress, not safety.

        The correct providers never decide a value (the framework maps this to ⊥);
        they must not decide anything else.
        """
        outputs = run_block_network(
            ["p0", "p1", "p2"],
            lambda nid: RationalConsensusBlock(
                "c", "bad" if nid == "p0" else "ok", validator=lambda v: v == "ok"
            ),
        )
        assert outputs["p0"] == ABORT
        assert outputs["p1"] in (None, ABORT)
        assert outputs["p2"] in (None, ABORT)

    def test_invalid_remote_input_is_detected(self):
        """A deviant that actually broadcasts an invalid value is caught by the others."""
        outputs = run_block_network(
            ["p0", "p1", "p2"],
            lambda nid: RationalConsensusBlock(
                "c",
                "bad" if nid == "p0" else "ok",
                # The deviant skips validation of its own input; correct providers
                # validate what they receive and output ⊥.
                validator=None if nid == "p0" else (lambda v: v == "ok"),
            ),
        )
        assert outputs["p1"] == ABORT
        assert outputs["p2"] == ABORT
