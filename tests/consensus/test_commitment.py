"""Tests for the hash commitment scheme."""

import random

import pytest

from repro.consensus.commitment import Commitment, CommitmentScheme


@pytest.fixture
def rng():
    return random.Random(42)


class TestCommitmentScheme:
    def test_commit_and_verify(self, rng):
        commitment, nonce = CommitmentScheme.commit(0.123, rng)
        assert commitment.verify(0.123, nonce)

    def test_wrong_value_fails(self, rng):
        commitment, nonce = CommitmentScheme.commit(0.123, rng)
        assert not commitment.verify(0.124, nonce)

    def test_wrong_nonce_fails(self, rng):
        commitment, nonce = CommitmentScheme.commit(0.5, rng)
        assert not commitment.verify(0.5, b"0" * len(nonce))

    def test_commitments_are_hiding_via_nonce(self, rng):
        first, _ = CommitmentScheme.commit(1, rng)
        second, _ = CommitmentScheme.commit(1, rng)
        # Same value, different nonce: digests differ, so observers learn nothing.
        assert first.digest != second.digest

    def test_structured_values_supported(self, rng):
        value = {"a": [1, 2], "b": (3.0, "x")}
        commitment, nonce = CommitmentScheme.commit(value, rng)
        assert commitment.verify({"b": (3.0, "x"), "a": [1, 2]}, nonce)

    def test_commitment_is_plain_data(self, rng):
        commitment, _ = CommitmentScheme.commit(7, rng)
        assert isinstance(commitment.digest, str)
        assert Commitment(commitment.digest) == commitment
