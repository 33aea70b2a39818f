"""The ambient observation context: one module-level slot, zero dependencies.

The observability plane is *ambient* by design: instrumented code
(``SimNetwork``, the engine layer, the executors, the fault plane) asks
:func:`current_observation` for the active :class:`Observation` and does
nothing when there is none.  That keeps the hooks one attribute-load away
from free in the disabled case and spares every constructor in the
simulation stack an ``observation=`` parameter it would only ever thread
through.

This module is deliberately import-light — pure stdlib, no ``repro``
imports — because the deepest layers of the repo (``repro.net``,
``repro.auctions.engine``) import it at module scope.  Anything heavier
would create an import cycle (net -> obs -> scenarios -> core -> net).  The heavyweight pieces
(the tracer's journal, the metrics accumulators) live in sibling modules
that only the *installer* side (:func:`repro.obs.observe`, the CLI)
imports.

Installation is a swap, not a push: :func:`swap_observation` returns the
previous value so the installer can restore it in a ``finally`` block.
Nesting therefore works (the inner observation shadows the outer for its
extent), and an unhandled exception can never leave a stale observation
behind.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Observation", "current_observation", "swap_observation"]


class Observation:
    """The active tracer + metrics hub pair.

    Either half may be ``None``: ``--metrics`` without ``--trace`` installs
    an observation whose ``tracer`` is ``None`` and vice versa, so each
    hook guards the half it uses.  The fields are duck-typed (``Any``)
    precisely so this module needs no imports; the real types are
    :class:`repro.obs.trace.Tracer` and :class:`repro.obs.metrics.MetricsHub`.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Any = None, metrics: Any = None) -> None:
        self.tracer = tracer
        self.metrics = metrics


_CURRENT: Optional[Observation] = None


def current_observation() -> Optional[Observation]:
    """The installed :class:`Observation`, or ``None`` when the plane is off."""
    return _CURRENT


def swap_observation(observation: Optional[Observation]) -> Optional[Observation]:
    """Install ``observation`` and return the previous one (for restoring)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = observation
    return previous
