"""Virtual clocks for critical-path time accounting.

Each node of the simulated network owns a :class:`VirtualClock`.  The clock advances
in two ways:

* when the node processes a message, the clock first jumps forward to the message's
  arrival time (it cannot process what has not arrived yet);
* the node is *charged* compute time for the handler it runs — an explicit,
  modelled amount passed by the protocol code (``ctx.charge``), never the host's
  wall clock.

The maximum clock value across nodes at the end of a run is the critical-path elapsed
time of the distributed execution: computation that happens in parallel on different
nodes overlaps, while messages serialise the dependent parts.  This is the quantity
reported by the benchmark harness as "running time".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VirtualClock"]


@dataclass
class VirtualClock:
    """A per-node monotone virtual clock.

    Attributes:
        now: current virtual time in seconds.
        busy: total compute time charged so far (excludes waiting).
    """

    now: float = 0.0
    busy: float = 0.0

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp`` (no-op if already past it)."""
        if timestamp > self.now:
            self.now = timestamp

    def charge(self, seconds: float) -> None:
        """Charge ``seconds`` of compute time to this node."""
        if seconds < 0:
            raise ValueError("cannot charge negative compute time")
        self.now += seconds
        self.busy += seconds

    def copy(self) -> "VirtualClock":
        return VirtualClock(now=self.now, busy=self.busy)
