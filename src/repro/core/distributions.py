"""Probability distributions Π for the common coin.

The common-coin block of the framework takes a distribution Π as input and outputs a
random value distributed according to Π, identical at every provider (Property 4 of
the paper).  The construction first produces a value uniform in [0, 1) by summing the
providers' committed random numbers modulo 1, and then applies a transformation — the
inverse CDF of Π — to that uniform value.  The classes below are those
transformations, as plain, canonically-encodable objects so a distribution can itself
be part of a protocol payload.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

__all__ = [
    "Distribution",
    "UniformDistribution",
    "SeedDistribution",
]


class Distribution(abc.ABC):
    """A distribution defined by its inverse-CDF transform of a uniform [0,1) sample."""

    @abc.abstractmethod
    def transform(self, uniform: float) -> object:
        """Map a uniform [0, 1) sample to a sample of this distribution."""

    def _check(self, uniform: float) -> float:
        if not 0.0 <= uniform < 1.0:
            raise ValueError(f"uniform sample must lie in [0, 1), got {uniform}")
        return uniform


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Uniform on ``[low, high)``."""

    low: float = 0.0
    high: float = 1.0

    def transform(self, uniform: float) -> float:
        uniform = self._check(uniform)
        return self.low + (self.high - self.low) * uniform


@dataclass(frozen=True)
class SeedDistribution(Distribution):
    """Uniform integer seed in ``[0, 2**bits)``.

    This is how the allocator consumes the common coin in practice: one agreed seed
    drives a deterministic pseudo-random generator inside the allocation algorithm,
    so a single coin invocation covers an arbitrary number of internal draws.
    """

    bits: int = 63

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 63:
            raise ValueError("bits must be between 1 and 63")

    def transform(self, uniform: float) -> int:
        uniform = self._check(uniform)
        return min(int(uniform * (1 << self.bits)), (1 << self.bits) - 1)
