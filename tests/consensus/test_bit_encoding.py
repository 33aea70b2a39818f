"""Tests for the bid ⇄ bit-stream encoding."""

import pytest

from repro.consensus.bit_encoding import BID_BIT_LENGTH, bid_to_bits, bits_to_bid


class TestFixedWidthBidEncoding:
    def test_round_trip_exact(self):
        for unit_value, demand in [(0.75, 0.5), (1.25, 1.0), (0.0, 1e-9), (123.456, 7.89)]:
            bits = bid_to_bits(unit_value, demand)
            assert len(bits) == BID_BIT_LENGTH
            assert bits_to_bid(bits) == (unit_value, demand)

    def test_bits_are_binary(self):
        assert set(bid_to_bits(1.0, 0.3)) <= {0, 1}

    def test_different_bids_give_different_streams(self):
        assert bid_to_bits(1.0, 0.5) != bid_to_bits(1.0, 0.6)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            bits_to_bid([0, 1, 0])

    def test_invalid_bit_rejected(self):
        bits = bid_to_bits(1.0, 0.5)
        bits[3] = 2
        with pytest.raises(ValueError):
            bits_to_bid(bits)
