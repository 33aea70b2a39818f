"""Property tests for the consensus layer (previously example-based only).

Two families, Hypothesis-driven with >=100 generated cases each:

* **bit-encoding round trips** (§4.1: "a stream of bits uniquely determined
  from the bid") — ``value_to_bits``/``bits_to_value`` reassemble the exact
  canonical bytes for arbitrary nested payloads, the fixed-width
  ``bid_to_bits``/``bits_to_bid`` pair is lossless for every finite float
  (IEEE-754 doubles, signed zero and subnormals included), and equal values
  encode to equal bit streams;
* **majority decision against plain counting** — ``majority_decision`` answers
  unanimity on one shared object without counting; it must return the very
  object the ``Counter`` rule returns on every provider->value map.
"""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.bit_encoding import (
    BID_BIT_LENGTH,
    bid_to_bits,
    bits_to_bid,
    bits_to_value,
    value_to_bits,
)
from repro.consensus.rational_consensus import majority_decision
from repro.net.serialization import canonical_encode

#: Scalars canonical_encode supports, floats restricted to finite values
#: (canonical encoding rejects NaN payloads by design of the comparison layer).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

#: Nested payloads shaped like real protocol messages: lists/tuples/dicts of
#: scalars with string keys (sortable, like every tag/field map on the wire).
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestBitEncodingRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(payload=_payloads)
    def test_value_bits_reassemble_canonical_bytes(self, payload):
        bits = value_to_bits(payload)
        assert set(bits) <= {0, 1}
        assert len(bits) % 8 == 0
        assert bits_to_value(bits) == canonical_encode(payload)

    @settings(max_examples=150, deadline=None)
    @given(payload=_payloads)
    def test_equal_values_encode_to_equal_bits(self, payload):
        # The per-bit agreement mode relies on the encoding being a function
        # of the *value*: re-encoding the same payload must be bit-identical.
        assert value_to_bits(payload) == value_to_bits(payload)

    @settings(max_examples=150, deadline=None)
    @given(
        unit_value=st.floats(allow_nan=False, allow_infinity=False),
        demand=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_fixed_width_bid_round_trip_is_lossless(self, unit_value, demand):
        bits = bid_to_bits(unit_value, demand)
        assert len(bits) == BID_BIT_LENGTH
        decoded_value, decoded_demand = bits_to_bid(bits)
        # Bit-exact IEEE-754 round trip: signed zero preserved too.
        assert decoded_value == unit_value and decoded_demand == demand
        assert math.copysign(1.0, decoded_value) == math.copysign(1.0, unit_value)
        assert math.copysign(1.0, decoded_demand) == math.copysign(1.0, demand)


def _counted_majority(values):
    """The decision rule as pure counting — the oracle for the identity fast path."""

    def key_of(value):
        try:
            hash(value)
            return value
        except TypeError:
            return repr(value)

    counts = Counter(key_of(v) for v in values.values())
    best_count = max(counts.values())
    tied_keys = {key for key, count in counts.items() if count == best_count}
    for provider_id in sorted(values):
        if key_of(values[provider_id]) in tied_keys:
            return values[provider_id]


#: Builders, not values: every draw is a fresh object, so equal proposals are
#: equal-but-not-identical unless a map deliberately shares one.
_proposals = st.sampled_from(
    [
        lambda: 0,
        lambda: 1,
        lambda: 1.0,
        lambda: "bid",
        lambda: (1, "bid"),
        lambda: ("u001", 2.5, 0.75),
        lambda: [1, 2],  # unhashable: counted by repr
        lambda: {"k": [1]},
        lambda: None,
    ]
).map(lambda build: build())
_providers = st.integers(min_value=0, max_value=12).map(lambda i: f"p{i:02d}")


class TestMajorityDecisionAgainstCounting:
    @settings(max_examples=300, deadline=None)
    @given(values=st.dictionaries(_providers, _proposals, min_size=1, max_size=7))
    def test_matches_counting_on_mixed_maps(self, values):
        assert majority_decision(values) is _counted_majority(values)

    @settings(max_examples=150, deadline=None)
    @given(
        providers=st.lists(_providers, min_size=1, max_size=7, unique=True),
        shared=_proposals,
        dissent=st.dictionaries(_providers, _proposals, max_size=3),
    )
    def test_matches_counting_around_a_shared_object(self, providers, shared, dissent):
        # What a round produces: one object relayed to every provider, with
        # zero or more providers holding something else (ties included).
        values = {provider: shared for provider in providers}
        assert majority_decision(values) is shared
        values.update(dissent)
        assert majority_decision(values) is _counted_majority(values)

    def test_equal_but_distinct_values_return_the_smallest_providers_object(self):
        values = {"p2": ("u1", 1.0), "p0": tuple(["u1", 1.0]), "p1": tuple(["u1", 1.0])}
        assert values["p0"] is not values["p1"]
        assert majority_decision(values) is values["p0"]

    def test_single_provider_and_shared_unhashable(self):
        proposal = [1, 2]
        assert majority_decision({"p0": proposal}) is proposal
        assert majority_decision({"p1": proposal, "p0": proposal}) is proposal
