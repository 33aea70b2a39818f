"""Outcomes of a distributed simulation of the auctioneer.

Definition 1 of the paper: every provider outputs either a pair (x, p) or ⊥; the
*outcome* of the simulation is (x, p) if **all** providers output that same pair, and
⊥ otherwise.  :func:`combine_outputs` implements exactly that rule, treating providers
that never produced an output (e.g. because a coalition withheld messages and the
protocol could not terminate) as having output ⊥.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.auctions.base import AuctionResult
from repro.common import ABORT, AbortType, is_abort

__all__ = ["ABORT", "AbortType", "Outcome", "combine_outputs", "is_abort"]


def combine_outputs(provider_outputs: Mapping[str, Any]) -> Union[AuctionResult, AbortType]:
    """Combine per-provider outputs into the simulation outcome.

    The outcome is the common (x, p) pair if every provider produced that exact pair;
    any disagreement, abort, or missing output yields ⊥.
    """
    if not provider_outputs:
        return ABORT
    values = list(provider_outputs.values())
    first = values[0]
    if first is None or is_abort(first):
        return ABORT
    for value in values[1:]:
        if value is None or is_abort(value) or value != first:
            return ABORT
    if not isinstance(first, AuctionResult):
        return ABORT
    return first


@dataclass
class Outcome:
    """The result of one simulated auction round.

    Attributes:
        result: the agreed (allocation, payments) pair, or ⊥.
        provider_outputs: what each provider individually output (useful to diagnose
            which provider aborted or diverged).
        elapsed_time: critical-path elapsed time of the simulated execution, in
            seconds (0.0 for a centralised execution: compute is modelled).
        messages: total number of messages delivered during the round.
        bytes_transferred: total payload bytes delivered during the round.
        degraded: True when some provider closed an agreement round on a
            timeout quorum (see ``FrameworkConfig.round_timeout``) — the run
            terminated with the bids received rather than the full view.
    """

    result: Union[AuctionResult, AbortType]
    provider_outputs: Dict[str, Any] = field(default_factory=dict)
    elapsed_time: float = 0.0
    messages: int = 0
    bytes_transferred: int = 0
    degraded: bool = False

    @property
    def aborted(self) -> bool:
        return is_abort(self.result)

    @property
    def auction_result(self) -> AuctionResult:
        """The agreed result; raises if the round aborted."""
        if self.aborted:
            raise ValueError("the simulation aborted (outcome is ⊥)")
        assert isinstance(self.result, AuctionResult)
        return self.result

    @staticmethod
    def from_provider_outputs(
        provider_outputs: Mapping[str, Any],
        elapsed_time: float = 0.0,
        messages: int = 0,
        bytes_transferred: int = 0,
        degraded: bool = False,
    ) -> "Outcome":
        return Outcome(
            result=combine_outputs(provider_outputs),
            provider_outputs=dict(provider_outputs),
            elapsed_time=elapsed_time,
            messages=messages,
            bytes_transferred=bytes_transferred,
            degraded=degraded,
        )

    @staticmethod
    def from_network(network, provider_ids: Sequence[str]) -> "Outcome":
        """The outcome of a finished round: what each provider output, off ``network``.

        The one outcome step of both ways to run a round
        (``DistributedAuctioneer.run`` and ``AuctionRun``).  A provider that
        never finished output nothing (⊥); the round is degraded when any
        provider's ``degraded`` reads true; time and traffic are the
        network's statistics.
        """
        nodes = {pid: network.node(pid) for pid in provider_ids}
        stats = network.stats
        return Outcome.from_provider_outputs(
            {pid: node.output if node.finished else None for pid, node in nodes.items()},
            elapsed_time=stats.elapsed_time,
            messages=stats.messages_delivered,
            bytes_transferred=stats.bytes_delivered,
            degraded=any(getattr(node, "degraded", False) for node in nodes.values()),
        )
