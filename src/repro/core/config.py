"""Configuration of the distributed auctioneer framework."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.auctions.base import AllocationAlgorithm
from repro.auctions.decomposable import DecomposableMechanism

__all__ = ["ConfigError", "FrameworkConfig"]

#: The built-in mechanism kinds whose algorithm is a
#: :class:`~repro.auctions.decomposable.DecomposableMechanism`, named when a
#: configuration asks the parallel allocator to run another one.
_DECOMPOSABLE_KINDS = ("standard", "vcg")


class ConfigError(ValueError):
    """An invalid setting, or a configuration that ``m`` executing providers
    cannot run; ``field`` names the setting at fault (a scenario spec reports it
    at ``config.<field>``)."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        return self.args[1]


@dataclass(frozen=True)
class FrameworkConfig:
    """Tunable parameters of a distributed simulation of the auctioneer.

    Two rules of the paper are not settings: the rational consensus needs
    ``m > 2k`` executing providers, and the common coin runs exactly when the
    algorithm is randomized (it only agrees on ``A``'s seed).  :meth:`check`
    is the one place a configuration is judged against ``m`` and ``A``.

    Attributes:
        k: maximum coalition size the simulation must tolerate.  The rational
            consensus underlying the bid agreement requires ``m > 2k`` providers, and
            the parallel allocator assigns every task to at least ``k + 1`` providers.
        parallel: if True, use the parallel allocator (Algorithm 1 over provider
            groups); otherwise every provider runs the allocation algorithm
            locally after input validation.  Only a decomposable mechanism runs
            in parallel (:meth:`check`).
        num_groups: number of provider groups for the parallel allocator.  ``None``
            means the maximum level of parallelism ``p = ⌊m / (k+1)⌋`` (the value the
            paper's evaluation uses).
        round_timeout: virtual-time budget per agreement round (``None``, the
            default, waits forever — the paper's reliable-substrate assumption).
            When set, the bid agreement's consensus block closes each round
            with the batches/echoes received so far instead of hanging on a
            silent peer, and so do the allocator's blocks; a round closed
            early marks the run *degraded* (see
            :class:`~repro.core.outcome.Outcome`).
    """

    k: int = 1
    parallel: bool = False
    num_groups: Optional[int] = None
    round_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ConfigError("k", "k must be non-negative")
        if self.num_groups is not None and self.num_groups < 1:
            raise ConfigError("num_groups", "num_groups must be positive when given")
        if self.round_timeout is not None and not 0 < self.round_timeout < math.inf:
            raise ConfigError(
                "round_timeout", "round_timeout must be a finite positive number when given"
            )

    def check(self, num_providers: int, algorithm: AllocationAlgorithm) -> None:
        """Raise a :class:`ConfigError` unless ``num_providers`` executing
        providers can run ``algorithm`` under this configuration.

        ``parallel`` needs a :class:`DecomposableMechanism` (Algorithm 1's
        split), ``k`` needs ``m > 2k`` (the rational consensus's equilibrium)
        and ``num_groups`` at most ``⌊m/(k+1)⌋`` groups of ``k + 1`` when the
        parallel allocator reads it; checked in that order.
        """
        if self.parallel and not isinstance(algorithm, DecomposableMechanism):
            raise ConfigError(
                "parallel",
                f"{algorithm.name!r} does not decompose into Algorithm 1's allocation and "
                f"payments; the parallel allocator runs only the mechanism kinds that do: "
                f"{', '.join(_DECOMPOSABLE_KINDS)}",
            )
        if num_providers <= 2 * self.k:
            raise ConfigError(
                "k",
                f"the rational-consensus building block requires m > 2k; "
                f"got m={num_providers} executing providers, k={self.k}",
            )
        most = self.max_parallelism(num_providers)
        if self.parallel and self.num_groups is not None and self.num_groups > most:
            raise ConfigError(
                "num_groups",
                f"num_groups must be at most ⌊m/(k+1)⌋ = {most}; got "
                f"{self.num_groups} with m={num_providers} executing providers, k={self.k}",
            )

    def max_parallelism(self, num_providers: int) -> int:
        """The maximum number of task groups: ``⌊m / (k + 1)⌋``."""
        return max(1, num_providers // (self.k + 1))
