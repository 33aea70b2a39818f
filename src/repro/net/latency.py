"""Latency models for the simulated network.

A latency model maps a (sender, recipient, message size) triple to a one-way delay in
(virtual) seconds.  Models are deliberately simple — the evaluation of the paper only
needs the *relative* cost of communication versus computation, not packet-level
fidelity.  The defaults are calibrated to the paper's testbed: community-network
nodes connected over a wireless mesh / WAN with a few milliseconds of latency between
sites and sub-millisecond latency inside a site.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "LatencyModel",
    "ZeroLatencyModel",
    "ConstantLatencyModel",
    "UniformLatencyModel",
    "BandwidthLatencyModel",
    "LanWanLatencyModel",
]


class LatencyModel(abc.ABC):
    """Strategy interface: one-way message delay between two nodes."""

    @abc.abstractmethod
    def delay(self, sender: str, recipient: str, size_bytes: int, rng: random.Random) -> float:
        """Return the delay in seconds for a message of ``size_bytes`` bytes."""

    def local_delay(self) -> float:
        """Delay for self-addressed messages (timers, loopback); zero by default."""
        return 0.0


@dataclass
class ZeroLatencyModel(LatencyModel):
    """All messages arrive instantaneously.  Useful for pure-logic unit tests."""

    def delay(self, sender: str, recipient: str, size_bytes: int, rng: random.Random) -> float:
        return 0.0


@dataclass
class ConstantLatencyModel(LatencyModel):
    """Every message experiences the same fixed delay."""

    seconds: float = 0.001

    def delay(self, sender: str, recipient: str, size_bytes: int, rng: random.Random) -> float:
        return self.seconds


@dataclass
class UniformLatencyModel(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` per message."""

    low: float = 0.0005
    high: float = 0.002

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("require 0 <= low <= high")

    def delay(self, sender: str, recipient: str, size_bytes: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass
class BandwidthLatencyModel(LatencyModel):
    """Base propagation delay plus a size-proportional transmission term.

    ``delay = base + size_bytes / bandwidth_bytes_per_s (+ jitter)``

    This is the model used by the benchmark harness: it reproduces the paper's
    observation that the double-auction overhead grows with the number of users
    because more bid data has to be exchanged between providers (Section 6.2).
    """

    base: float = 0.002
    bandwidth_bytes_per_s: float = 12.5e6  # ~100 Mbit/s
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0 or self.bandwidth_bytes_per_s <= 0 or self.jitter < 0:
            raise ValueError("invalid bandwidth latency parameters")

    def delay(self, sender: str, recipient: str, size_bytes: int, rng: random.Random) -> float:
        transmission = size_bytes / self.bandwidth_bytes_per_s
        noise = rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        return self.base + transmission + noise


@dataclass
class LanWanLatencyModel(LatencyModel):
    """Two-tier model: cheap intra-site links, expensive inter-site links.

    Mirrors the paper's deployment, where several OpenVZ containers live on the same
    physical host (LAN) while hosts are spread across community-network sites (WAN).

    Attributes:
        site_of: mapping from node id to a site label; nodes missing from the map
            are assumed to be on their own site.
        lan: latency model applied when both endpoints share a site.
        wan: latency model applied otherwise.
    """

    site_of: Mapping[str, str] = field(default_factory=dict)
    lan: LatencyModel = field(default_factory=lambda: ConstantLatencyModel(0.0002))
    wan: LatencyModel = field(
        default_factory=lambda: BandwidthLatencyModel(base=0.004, bandwidth_bytes_per_s=6.25e6)
    )

    def delay(self, sender: str, recipient: str, size_bytes: int, rng: random.Random) -> float:
        # The solo-site labels are only built for nodes missing from the map.
        site_of = self.site_of
        sender_site = site_of[sender] if sender in site_of else f"__solo__{sender}"
        recipient_site = (
            site_of[recipient] if recipient in site_of else f"__solo__{recipient}"
        )
        model = self.lan if sender_site == recipient_site else self.wan
        return model.delay(sender, recipient, size_bytes, rng)
