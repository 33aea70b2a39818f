"""Empirical k-resilience checks for the distributed simulation.

Definition 2 of the paper: a protocol is a k-resilient (ex post) equilibrium if no
coalition of at most k providers can increase the expected utility of any of its
members by deviating, for every fair schedule.  The reproduction cannot quantify over
*all* deviations, but it can sweep a representative library (input forgery,
equivocation, omission, crash, output tampering — see :mod:`repro.adversary`) under
several schedules and verify the two facts the paper's proof rests on:

1. **no profitable deviation** — no coalition member's utility under the deviation
   exceeds its utility under the honest run;
2. **no influence beyond ⊥** — the outcome observed when the coalition deviates is
   either the honest outcome or ⊥ (a coalition cannot steer the correct providers to
   a *different* valid result).

:func:`check_k_resilience` is the **supported low-level API**: it accepts arbitrary
hand-wired coalitions and deviation callables (custom ``forge`` functions, bespoke
tampering rules) against one configured auctioneer.  The declarative layer on top —
:mod:`repro.scenarios.resilience`, ``repro-auction resilience`` — expands a
serializable audit grid (coalitions x deviations x schedules x seeds), memoises the
honest baseline per ``(schedule, seed)`` and parallelises across workers; its
verdicts are pinned to this function, float for float, by
``tests/gametheory/test_resilience_parallel.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.adversary.coalition import Coalition
from repro.auctions.base import BidVector
from repro.core.framework import DistributedAuctioneer, SimulationReport
from repro.core.outcome import Outcome
from repro.gametheory.utility import outcome_provider_utility

__all__ = ["DeviationOutcome", "ResilienceReport", "check_k_resilience", "score_deviation"]


@dataclass
class DeviationOutcome:
    """Result of running one coalition deviation against the honest baseline."""

    coalition: Coalition
    label: str
    honest_outcome: Outcome
    deviating_outcome: Outcome
    member_gains: Dict[str, float] = field(default_factory=dict)

    @property
    def profitable(self) -> bool:
        return any(gain > 1e-9 for gain in self.member_gains.values())

    @property
    def altered_result(self) -> bool:
        """True if the deviation produced a *different valid* outcome (not just ⊥)."""
        if self.deviating_outcome.aborted:
            return False
        if self.honest_outcome.aborted:
            return True
        return self.deviating_outcome.result != self.honest_outcome.result


@dataclass
class ResilienceReport:
    """Aggregate of a deviation sweep."""

    outcomes: List[DeviationOutcome] = field(default_factory=list)

    @property
    def profitable_deviations(self) -> List[DeviationOutcome]:
        return [o for o in self.outcomes if o.profitable]

    @property
    def influence_violations(self) -> List[DeviationOutcome]:
        return [o for o in self.outcomes if o.altered_result]

    def is_resilient(self) -> bool:
        """True if no deviation was profitable and none altered the valid outcome."""
        return not self.profitable_deviations and not self.influence_violations


def score_deviation(
    coalition: Coalition,
    label: str,
    valuation: BidVector,
    honest: Outcome,
    deviating: Outcome,
) -> DeviationOutcome:
    """Score one coalition deviation against the honest run: each member's gain.

    The one place a deviation is scored — :func:`check_k_resilience` and the
    declarative audit (:class:`~repro.scenarios.resilience.AuditContext`)
    both call it, so their gains and verdicts agree float for float.
    """
    gains: Dict[str, float] = {}
    for member in coalition.members:
        gains[member] = outcome_provider_utility(
            valuation, deviating, member
        ) - outcome_provider_utility(valuation, honest, member)
    return DeviationOutcome(coalition, label, honest, deviating, gains)


def check_k_resilience(
    auctioneer: DistributedAuctioneer,
    bids: BidVector,
    coalitions: Sequence[tuple],
    valuation: Optional[BidVector] = None,
) -> ResilienceReport:
    """Run a coalition deviation sweep and compare against the honest baseline.

    Args:
        auctioneer: configured distributed auctioneer (mechanism, providers, config).
        bids: the bid vector submitted by the (honest) bidders; provider asks in it
            are taken as the providers' true valuations unless overridden.
        coalitions: a sequence of ``(label, Coalition)`` pairs to evaluate.
        valuation: true valuations used to compute utilities (defaults to ``bids``).
    """
    valuation = valuation if valuation is not None else bids
    honest_report: SimulationReport = auctioneer.run_from_bids(bids)
    report = ResilienceReport()
    inputs = auctioneer.consistent_inputs(bids)
    expected_users = [u.user_id for u in bids.users]

    for label, coalition in coalitions:
        deviating: SimulationReport = auctioneer.run(
            inputs,
            expected_users=expected_users,
            node_factory=coalition.factory(),
        )
        report.outcomes.append(
            score_deviation(
                coalition, label, valuation, honest_report.outcome, deviating.outcome
            )
        )
    return report
