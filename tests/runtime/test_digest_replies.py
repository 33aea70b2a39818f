"""Digest replies: one provider announces the result, the others its digest.

The lowest-id provider announces its output to every bidder and every other
provider announces ``Digest(output)``.  A bidder observes the output ``v`` only
if every announcement that is not a digest is ``v``, every digest is
``Digest(v)`` and at least one announcement is not a digest; otherwise ⊥.  A
deviant announcement changes what the bidders observe, never what the
providers output.
"""

import functools

import pytest

from repro.auctions.base import AuctionResult, Payments
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.common import ABORT, is_abort
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.net.latency import ConstantLatencyModel
from repro.net.protocol import ProtocolNode
from repro.net.scheduler import FairScheduler
from repro.net.serialization import Digest
from repro.runtime import auction_run
from repro.runtime.auction_run import AuctionRun
from repro.runtime.bidder import RESULT_TAG, observed_result
from repro.runtime.provider import CollectingProviderNode

PROVIDERS = [f"p{i}" for i in range(5)]
DESIGNATED, OTHER = PROVIDERS[0], PROVIDERS[2]

MECHANISMS = {
    "double": (DoubleAuction, DoubleAuctionWorkload),
    "standard": (functools.partial(StandardAuction, epsilon=0.5), StandardAuctionWorkload),
}


def tampered(result):
    """``result`` with the first user's payment raised by one."""
    (user, paid), *rest = result.payments.user_payments
    payments = Payments(((user, paid + 1.0), *rest), result.payments.provider_revenues)
    return AuctionResult(result.allocation, payments)


def deviant_provider(deviant, announce):
    """A provider class whose ``deviant`` announces ``announce(result)`` instead."""

    class Deviant(CollectingProviderNode):
        def _on_root_done(self, block):
            if self.node_id != deviant:
                return super()._on_root_done(block)
            self._current_ctx.broadcast(
                self.expected_users, announce(block.result), tag=RESULT_TAG
            )
            ProtocolNode._on_root_done(self, block)

    return Deviant


class RecordingScheduler(FairScheduler):
    """The fair scheduler, also keeping every result announcement it is handed."""

    def __init__(self):
        super().__init__()
        self.announcements = []

    def push(self, message):
        if message.tag == RESULT_TAG:
            self.announcements.append((message.sender, message.payload))
        super().push(message)


def play(mechanism="double", scheduler=None):
    factory, workload = MECHANISMS[mechanism]
    bids = workload(seed=3).generate(8, len(PROVIDERS), provider_ids=PROVIDERS)
    return AuctionRun(
        bids,
        factory(),
        config=FrameworkConfig(k=2),
        latency_model=ConstantLatencyModel(0.005),
        scheduler=scheduler,
        seed=1,
    ).execute()


def providers_view(outcome):
    """What the providers output, apart from time and traffic."""
    return outcome.result, outcome.provider_outputs, outcome.degraded, outcome.messages


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_an_honest_round_announces_one_value_and_digests(mechanism):
    scheduler = RecordingScheduler()
    result = play(mechanism, scheduler)
    agreed = result.outcome.auction_result
    users = len(result.bidder_observations)
    values = [p for sender, p in scheduler.announcements if sender == DESIGNATED]
    digests = [p for sender, p in scheduler.announcements if sender != DESIGNATED]
    assert values == [agreed] * users
    assert all(type(p) is AuctionResult for p in values)
    assert digests == [Digest(agreed)] * ((len(PROVIDERS) - 1) * users)
    assert all(type(p) is Digest for p in digests)
    assert all(observed == agreed for observed in result.bidder_observations.values())


DEVIANTS = {
    "designated-announces-a-tampered-result": (DESIGNATED, tampered),
    "another-announces-the-digest-of-another-result": (OTHER, lambda r: Digest(tampered(r))),
    "designated-announces-abort": (DESIGNATED, lambda r: ABORT),
    "another-announces-abort": (OTHER, lambda r: ABORT),
    "designated-announces-a-digest-so-no-value-arrives": (DESIGNATED, Digest),
}


@pytest.mark.parametrize("case", sorted(DEVIANTS))
def test_a_deviant_announcement_makes_every_bidder_observe_abort(monkeypatch, case):
    honest = play()
    assert honest.outcome.auction_result.payments.user_payments  # something to tamper
    monkeypatch.setattr(auction_run, "CollectingProviderNode", deviant_provider(*DEVIANTS[case]))
    deviant = play()
    assert providers_view(deviant.outcome) == providers_view(honest.outcome)
    assert deviant.bidder_observations.keys() == honest.bidder_observations.keys()
    assert all(is_abort(observed) for observed in deviant.bidder_observations.values())


def test_another_provider_announcing_the_value_itself_is_still_agreement(monkeypatch):
    honest = play()
    monkeypatch.setattr(auction_run, "CollectingProviderNode", deviant_provider(OTHER, lambda r: r))
    full = play()
    assert providers_view(full.outcome) == providers_view(honest.outcome)
    assert full.bidder_observations == honest.bidder_observations


class TestObservedResult:
    """The rule itself, over announcements in any arrival order."""

    RESULT = AuctionResult.empty()
    OTHER_RESULT = AuctionResult(RESULT.allocation, Payments.from_dicts({"u0": 1.0}))

    @pytest.mark.parametrize(
        "announcements",
        [
            [RESULT, Digest(RESULT), Digest(RESULT)],
            [Digest(RESULT), Digest(RESULT), RESULT],
            [Digest(RESULT), RESULT, RESULT],
            [RESULT],
        ],
        ids=["value-first", "value-last", "two-values", "one-provider"],
    )
    def test_agreement_observes_the_value(self, announcements):
        assert observed_result(announcements) is self.RESULT

    @pytest.mark.parametrize(
        "announcements",
        [
            [],
            [Digest(RESULT), Digest(RESULT)],
            [RESULT, Digest(OTHER_RESULT)],
            [Digest(OTHER_RESULT), Digest(RESULT), RESULT],
            [RESULT, OTHER_RESULT, Digest(RESULT)],
            [RESULT, ABORT],
            [RESULT, None],
            [Digest(ABORT), ABORT],
            ["garbage", Digest("garbage")],
        ],
        ids=[
            "nothing", "digests-only", "other-digest", "digests-disagree",
            "values-disagree", "abort", "none", "abort-and-its-digest", "not-a-result",
        ],
    )
    def test_anything_else_observes_abort(self, announcements):
        assert is_abort(observed_result(announcements))
