"""Per-link recovery state: what makes a lossy link reliable again.

The paper assumes *reliable* channels: every message sent is eventually delivered,
unmodified, exactly once.  On a fault-free run the simulator keeps that contract
by construction — :class:`~repro.net.network.SimNetwork` holds every in-flight
message in one dict and delivers each exactly once — so a link needs no object
and no per-link state exists.  Under an armed
:class:`~repro.net.faults.FaultPlan` messages are lost and duplicated, and the
recovery layer restores the contract per ``(sender, recipient)`` link with the
record below: retransmission attempt counts (at-least-once delivery) and
duplicate suppression by logical origin (exactly-once processing).

The explicit FIFO channel of the seed core (``push`` / ``pop`` / ``pending``)
lives on beside its last caller, the differential oracle
``tests/net/seed_reference.py``.
"""

from __future__ import annotations

from typing import Dict, Set

__all__ = ["ReliableChannel"]


class ReliableChannel:
    """Recovery record of one directed link, created on first use by an armed run."""

    __slots__ = ("_attempts", "_delivered_origins")

    def __init__(self) -> None:
        self._attempts: Dict[int, int] = {}
        self._delivered_origins: Set[int] = set()

    def next_attempt(self, origin: int) -> int:
        """Claim the next retransmission attempt number for ``origin`` (1-based).

        The network consults the plan's :class:`~repro.net.faults
        .RecoveryPolicy` for the literal bound; the channel only counts.
        """
        attempt = self._attempts.get(origin, 0) + 1
        self._attempts[origin] = attempt
        return attempt

    def suppress_duplicate(self, origin: int) -> bool:
        """True when ``origin`` was already processed by the recipient.

        The first call for an origin records it and returns False (process the
        payload); every later call — an injected duplicate or a retransmission
        racing its original — returns True (count the delivery, skip the
        handler), giving exactly-once processing over at-least-once delivery.
        """
        if origin in self._delivered_origins:
            return True
        self._delivered_origins.add(origin)
        return False
