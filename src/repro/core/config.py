"""Configuration of the distributed auctioneer framework."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.auctions.decomposable import DecomposableMechanism
from repro.core.bid_agreement import AGREEMENT_MODES

__all__ = ["FrameworkConfig"]


@dataclass(frozen=True)
class FrameworkConfig:
    """Tunable parameters of a distributed simulation of the auctioneer.

    Attributes:
        k: maximum coalition size the simulation must tolerate.  The rational
            consensus underlying the bid agreement requires ``m > 2k`` providers, and
            the parallel allocator assigns every task to at least ``k + 1`` providers.
        parallel: if True and the mechanism is decomposable, use the parallel
            allocator (Algorithm 1 over provider groups); otherwise every provider
            runs the allocation algorithm locally after input validation.  A
            scenario spec refuses ``parallel`` with a mechanism that does not
            decompose; this class ignores it there.
        num_groups: number of provider groups for the parallel allocator.  ``None``
            means the maximum level of parallelism ``p = ⌊m / (k+1)⌋`` (the value the
            paper's evaluation uses).
        agreement_mode: ``"batched"`` (default), ``"per_label"`` or ``"per_bit"``;
            see :class:`~repro.core.bid_agreement.BidAgreementBlock`.
        use_common_coin: whether the allocator runs the common coin to agree on the
            random seed of a randomized allocation algorithm (True keeps the full
            block chain of the paper; False runs it on the fixed seed 0).  Moot
            when the algorithm declares ``randomized = False``: its round never
            runs the coin, since no provider reads the seed.
        require_quorum: if True, constructing a simulation with ``m <= 2k`` raises
            immediately instead of producing a protocol without its equilibrium
            guarantee.
        round_timeout: virtual-time budget per agreement round (``None``, the
            default, waits forever — the paper's reliable-substrate assumption).
            When set, every consensus block of the bid agreement, in each
            agreement mode, closes each round with the batches/echoes received
            so far instead of hanging on a silent peer, and so do the
            allocator's blocks; a round closed early marks the run *degraded*
            (see :class:`~repro.core.outcome.Outcome`).
    """

    k: int = 1
    parallel: bool = False
    num_groups: Optional[int] = None
    agreement_mode: str = "batched"
    use_common_coin: bool = True
    require_quorum: bool = True
    round_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.agreement_mode not in AGREEMENT_MODES:
            raise ValueError(
                f"agreement_mode must be one of {AGREEMENT_MODES}, got {self.agreement_mode!r}"
            )
        if self.num_groups is not None and self.num_groups < 1:
            raise ValueError("num_groups must be positive when given")
        if self.round_timeout is not None and not 0 < self.round_timeout < math.inf:
            raise ValueError("round_timeout must be a finite positive number when given")

    def check_quorum(self, num_providers: int) -> None:
        """Raise if the provider count is too small for the configured ``k``."""
        if not self.require_quorum:
            return
        if num_providers <= 2 * self.k:
            raise ValueError(
                f"the rational-consensus building block requires m > 2k; "
                f"got m={num_providers} executing providers, k={self.k}"
            )

    def runs_parallel_allocator(self, algorithm: object) -> bool:
        """True when providers run ``algorithm`` on the parallel allocator (Algorithm 1)."""
        return self.parallel and isinstance(algorithm, DecomposableMechanism)

    def check_groups(self, num_providers: int, algorithm: object) -> None:
        """Raise if the parallel allocator would read a ``num_groups`` it cannot form."""
        if self.num_groups is None or not self.runs_parallel_allocator(algorithm):
            return
        most = num_providers // (self.k + 1)
        if self.num_groups > most:
            raise ValueError(
                f"num_groups must be at most ⌊m/(k+1)⌋ = {most}; got "
                f"{self.num_groups} with m={num_providers} executing providers, k={self.k}"
            )

    def max_parallelism(self, num_providers: int) -> int:
        """The maximum number of task groups: ``⌊m / (k + 1)⌋``."""
        return max(1, num_providers // (self.k + 1))
