"""A mechanism's ``randomized`` declaration is checked, not trusted.

A round of a mechanism that declares ``randomized = False`` runs no common
coin (its allocator executes it on the fixed seed 0), and
``SequentialAllocatorBlock`` leaves the seed out of its memo key for it, so
executions on different seeds read one result.  Both are only sound if ``run``
really never draws: every registered mechanism (and the vectorized engine) is
run here on small generated vectors — ties, zero bids, bids at and past the
validation bounds, single-provider markets — under generators that count or
refuse draws.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.engine import VectorizedStandardAuction
from repro.scenarios.registry import MECHANISMS
from repro.scenarios.spec import ComponentSpec


class _RefusingRandom(random.Random):
    """A generator whose every draw raises."""

    def random(self):
        raise AssertionError("a seed-free mechanism drew random()")

    def getrandbits(self, k):
        raise AssertionError("a seed-free mechanism drew getrandbits()")


class _CountingRandom(random.Random):
    """A generator that counts its draws."""

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


# Values at the validation bounds and just past them (a neutral bid), zero
# bids, and a small pool so that ties are common.
_VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e9, 1e9 * 1.5])
_DEMANDS = st.sampled_from([0.0, 1e-12, 0.5, 1.0, 3.0, 1e9, 1e9 * 1.5])
_COSTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e9, 1e9 * 1.5])
_CAPACITIES = st.sampled_from([0.0, 1e-12, 1.0, 2.0, 5.0, 1e12, 1e12 * 1.5])


@st.composite
def small_vectors(draw):
    users = draw(st.lists(st.tuples(_VALUES, _DEMANDS), min_size=0, max_size=6))
    providers = draw(st.lists(st.tuples(_COSTS, _CAPACITIES), min_size=1, max_size=3))
    return BidVector(
        tuple(UserBid(f"u{i}", value, demand) for i, (value, demand) in enumerate(users)),
        tuple(
            ProviderAsk(f"p{i}", cost, capacity) for i, (cost, capacity) in enumerate(providers)
        ),
    )


_MECHANISMS = {
    kind: lambda kind=kind: MECHANISMS.create(ComponentSpec(kind), "mechanism")
    for kind in MECHANISMS.available()
}
_MECHANISMS["standard-vectorized"] = VectorizedStandardAuction


def test_which_mechanisms_declare_themselves_seed_free():
    assert {kind for kind, make in _MECHANISMS.items() if not make().randomized} == {
        "double",
        "greedy",
        "vcg",
    }


@pytest.mark.parametrize("kind", sorted(_MECHANISMS))
@settings(max_examples=50, derandomize=True)
@given(bids=small_vectors())
def test_declaration_matches_the_draws(kind, bids):
    mechanism = _MECHANISMS[kind]()
    if mechanism.randomized:
        rng = _CountingRandom(7)
        mechanism.run(bids, rng)
        assert rng.draws > 0
    else:
        result = repr(mechanism.run(bids, random.Random(7)))
        assert repr(mechanism.run(bids, random.Random(8))) == result
        assert repr(mechanism.run(bids, _RefusingRandom(0))) == result
