"""Property-based tests for canonical encoding and a bid's bits in the agreement batch."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.net import serialization_reference as reference

from repro.auctions.base import ProviderAsk, UserBid
from repro.core.bid_agreement import agreement_batch
from repro.net.serialization import LABEL_BATCH_HEADER, canonical_encode, estimate_size

# Strategy for payloads the canonical encoder must support.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


class TestCanonicalEncodeProperties:
    @given(payloads)
    @settings(max_examples=150)
    def test_encoding_is_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(st.dictionaries(st.text(max_size=8), scalars, max_size=6))
    @settings(max_examples=100)
    def test_dict_order_independence(self, mapping):
        items = list(mapping.items())
        shuffled = dict(reversed(items))
        assert canonical_encode(mapping) == canonical_encode(shuffled)

    @given(payloads, payloads)
    @settings(max_examples=150)
    def test_equal_values_encode_equal(self, a, b):
        if a == b and type(a) is type(b):
            assert canonical_encode(a) == canonical_encode(b)

    @given(payloads)
    @settings(max_examples=100)
    def test_estimate_size_is_positive(self, value):
        assert estimate_size(value) >= 1


def one_bid_batch(unit_value, demand):
    return agreement_batch({"u0": UserBid("u0", unit_value, demand)}, {}, ["u0"], [])


class TestBidBitsInTheAgreementBatch:
    """§4.1 agrees on each bid as a fixed 128-bit stream: the batch carries exactly that."""

    @given(st.floats(), st.floats())
    @settings(max_examples=200)
    def test_a_bid_is_a_marker_and_128_bits_whatever_its_doubles(self, unit_value, demand):
        assert estimate_size(one_bid_batch(unit_value, demand)) == LABEL_BATCH_HEADER + 1 + 16

    @given(st.floats(), st.floats())
    @settings(max_examples=200)
    def test_a_receiver_reads_back_the_very_doubles(self, unit_value, demand):
        # Compared as bits: signed zeros and NaN payloads are different bids.
        batch = one_bid_batch(unit_value, demand)
        records = (UserBid, ProviderAsk)
        wire = reference.encode_label_batch(batch, records)
        decoded = reference.decode_label_batch(wire, batch, records)["user:u0"]
        assert type(decoded) is UserBid and decoded.user_id == "u0"
        assert struct.pack(">dd", decoded.unit_value, decoded.demand) == struct.pack(
            ">dd", unit_value, demand
        )
