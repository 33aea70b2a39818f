"""Tests for the game-theoretic analysis harness (truthfulness, utilities, resilience)."""

import functools

import pytest

from repro.adversary.coalition import Coalition
from repro.adversary.provider_behaviors import (
    EquivocatingProviderNode,
    OutputTamperingProviderNode,
)
from repro.auctions.base import Allocation, AuctionResult, BidVector, Payments, ProviderAsk, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.engine import VectorizedStandardAuction
from repro.auctions.greedy import GreedyStandardAuction
from repro.auctions.vcg import ExactVCGAuction
from repro.common import ABORT
from repro.community.workload import (
    DoubleAuctionWorkload,
    StandardAuctionWorkload,
    default_provider_ids,
)
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.core.outcome import Outcome
from repro.gametheory.resilience import check_k_resilience
from repro.gametheory.truthfulness import check_truthfulness
from repro.gametheory.utility import outcome_provider_utility, outcome_user_utility


class TestOutcomeUtilities:
    def _bids(self):
        return BidVector(
            (UserBid("u0", 2.0, 1.0),),
            (ProviderAsk("p0", 0.5, 2.0),),
        )

    def _result(self):
        return AuctionResult(
            Allocation.from_dict({("u0", "p0"): 1.0}),
            Payments.from_dicts({"u0": 1.0}, {"p0": 1.0}),
        )

    def test_abort_gives_zero_utility(self):
        bids = self._bids()
        assert outcome_user_utility(bids, ABORT, "u0") == 0.0
        assert outcome_provider_utility(bids, ABORT, "p0") == 0.0
        assert outcome_user_utility(bids, None, "u0") == 0.0

    def test_valid_outcome_utilities(self):
        bids = self._bids()
        outcome = Outcome.from_provider_outputs({"p0": self._result()})
        assert outcome_user_utility(bids, outcome, "u0") == pytest.approx(1.0)
        assert outcome_provider_utility(bids, outcome, "p0") == pytest.approx(0.5)

    def test_plain_auction_result_accepted(self):
        bids = self._bids()
        assert outcome_user_utility(bids, self._result(), "u0") == pytest.approx(1.0)


class TestTruthfulness:
    def test_exact_vcg_is_truthful(self):
        for seed in range(4):
            bids = StandardAuctionWorkload(seed=seed).generate(6, 2)
            report = check_truthfulness(ExactVCGAuction(), bids, seed=seed)
            assert report.is_truthful(), report.violations

    def test_greedy_pay_your_bid_is_not_truthful(self):
        violations_found = 0
        for seed in range(6):
            bids = StandardAuctionWorkload(seed=seed).generate(6, 2)
            report = check_truthfulness(GreedyStandardAuction(), bids, seed=seed)
            violations_found += len(report.violations)
        assert violations_found > 0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="Clarke pivots over an approximate allocation that is not maximal-in-range "
        "are not truthful, and local search breaks monotonicity (ROADMAP item 21)",
    )
    def test_the_standard_auction_is_truthful(self):
        # The verdict this locks: known profitable misreports on all three
        # instances.  Exact VCG and the double auction, above and below, are
        # the controls that the check finds none where there are none.
        violating = []
        for users, providers, seed in ((6, 2, 0), (20, 4, 0), (20, 4, 1)):
            bids = StandardAuctionWorkload(seed=seed).generate(
                users, providers, provider_ids=default_provider_ids(providers)
            )
            report = check_truthfulness(VectorizedStandardAuction(epsilon=0.25), bids, seed=seed)
            if not report.is_truthful():
                violating.append(
                    f"n={users}, m={providers}, seed={seed}: {len(report.violations)} of "
                    f"{report.checked} misreports profit (max gain {report.max_gain:.3f})"
                )
        assert not violating, "profitable misreports at " + "; ".join(violating)

    def test_double_auction_user_truthfulness(self):
        for seed in range(6):
            bids = DoubleAuctionWorkload(seed=seed).generate(8, 3)
            report = check_truthfulness(DoubleAuction(), bids, seed=seed)
            assert report.is_truthful(tolerance=1e-6), report.violations

    def test_report_counts_checks(self):
        bids = StandardAuctionWorkload(seed=0).generate(4, 2)
        report = check_truthfulness(ExactVCGAuction(), bids, factors=(0.5, 2.0))
        assert report.checked == 4 * 2


class TestResilience:
    def _setup(self):
        providers = [f"p{i}" for i in range(4)]
        bids = DoubleAuctionWorkload(seed=1).generate(8, len(providers), provider_ids=providers)
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=providers, config=FrameworkConfig(k=1)
        )
        return auctioneer, bids

    def test_deviation_sweep_finds_no_profitable_deviation(self):
        auctioneer, bids = self._setup()
        coalitions = [
            ("equivocate", Coalition.of(["p0"], EquivocatingProviderNode)),
            (
                "tamper-output",
                Coalition.of(["p1"], functools.partial(OutputTamperingProviderNode, bonus=5.0)),
            ),
        ]
        report = check_k_resilience(auctioneer, bids, coalitions)
        assert report.is_resilient(), (
            [o.label for o in report.profitable_deviations],
            [o.label for o in report.influence_violations],
        )

    def test_report_structure(self):
        auctioneer, bids = self._setup()
        coalitions = [("equivocate", Coalition.of(["p0"], EquivocatingProviderNode))]
        report = check_k_resilience(auctioneer, bids, coalitions)
        assert len(report.outcomes) == 1
        outcome = report.outcomes[0]
        assert outcome.label == "equivocate"
        assert set(outcome.member_gains) == {"p0"}
        # The deviation forced ⊥, so the deviator's gain is non-positive.
        assert outcome.member_gains["p0"] <= 1e-9
