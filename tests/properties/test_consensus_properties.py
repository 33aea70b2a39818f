"""Property tests for the consensus layer (previously example-based only).

Two families, Hypothesis-driven:

* **majority decision against plain counting** — ``majority_decision``
  answers unanimity on one shared object without counting; it must return
  the very object the ``Counter`` rule returns on every provider->value map;
* **the bid agreement decides a received bid** — whatever bids a bidder
  spreads over the providers, every provider agrees on one that some
  provider received, and a bid a strict majority received wins.

(That a bid's 128 bits travel bit-exactly in an agreement batch is
``tests/properties/test_property_serialization.py`` and
``tests/net/test_serialization_differential.py``'s ``TestLabelBatch``.)
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import run_block_network

from repro.auctions.base import ProviderAsk, UserBid
from repro.consensus.multi_consensus import majority_decision
from repro.core.bid_agreement import BidAgreementBlock


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
    @settings(max_examples=300)
    @given(values=st.dictionaries(_providers, _proposals, min_size=1, max_size=7))
    def test_matches_counting_on_mixed_maps(self, values):
        assert majority_decision(values) is _counted_majority(values)

    @settings(max_examples=150)
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


#: A bidder's candidate bids: valid, and no two the same bid.
_bids = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.01, max_value=10.0)
    ),
    min_size=1,
    max_size=4,
    unique=True,
).map(lambda pairs: [UserBid("u0", value, demand) for value, demand in pairs])


class TestBidAgreementDecidesAReceivedBid:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bids=_bids, m=st.integers(min_value=3, max_value=5))
    def test_the_agreed_bid_is_one_some_provider_received(self, data, bids, m):
        providers = [f"p{i}" for i in range(m)]
        received = {
            pid: data.draw(st.sampled_from(bids), label=f"bid received by {pid}")
            for pid in providers
        }
        honest = UserBid("u1", 1.0, 0.5)
        asks = {pid: ProviderAsk(pid, 0.1, 1.0) for pid in providers}
        outputs = run_block_network(
            providers,
            lambda nid: BidAgreementBlock(
                "ba", ["u0", "u1"], providers, {"u0": received[nid], "u1": honest}, asks
            ),
        )
        agreed = {outputs[pid].user("u0") for pid in providers}
        assert len(agreed) == 1
        (bid,) = agreed
        assert bid in received.values()
        for candidate in bids:
            if 2 * list(received.values()).count(candidate) > m:
                assert bid == candidate
        assert all(outputs[pid].user("u1") == honest for pid in providers)
