"""Node and execution-context abstractions.

A :class:`Node` is a deterministic event-driven state machine: the runtime calls
``on_start`` once and then ``on_message`` for every delivered message.  All
interaction with the outside world goes through the :class:`NodeContext` passed to the
handlers — sending messages, setting timers, reading the local virtual clock and
drawing local randomness.  Keeping the context explicit (rather than ambient) makes
protocol code trivially testable.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Iterable, Sequence

from repro.net.message import Message

__all__ = ["Node", "NodeContext"]


class NodeContext(abc.ABC):
    """Capabilities available to a node while it is scheduled to move."""

    @property
    @abc.abstractmethod
    def node_id(self) -> str:
        """Identifier of the node currently moving."""

    @property
    @abc.abstractmethod
    def peers(self) -> Sequence[str]:
        """Identifiers of all nodes in the network (including this one)."""

    @property
    @abc.abstractmethod
    def rng(self) -> random.Random:
        """Node-local pseudo-random generator (seeded by the runtime)."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current local virtual time in seconds."""

    @abc.abstractmethod
    def send(self, recipient: str, payload: Any, tag: str = "") -> None:
        """Send a message to ``recipient``."""

    @abc.abstractmethod
    def set_timer(self, delay: float, tag: str) -> None:
        """Deliver a timer message (self-addressed) after ``delay`` seconds."""

    @abc.abstractmethod
    def charge(self, seconds: float) -> None:
        """Charge explicit (modelled) compute time to the local virtual clock."""

    def broadcast(
        self,
        recipients: Iterable[str],
        payload: Any,
        tag: str = "",
        include_self: bool = False,
    ) -> None:
        """Send ``payload`` to every node in ``recipients``.

        Self-delivery is skipped unless ``include_self`` is set; protocol blocks that
        need their own contribution simply record it locally, which avoids a useless
        loopback hop.
        """
        for recipient in recipients:
            if recipient == self.node_id and not include_self:
                continue
            self.send(recipient, payload, tag=tag)


class Node(abc.ABC):
    """Base class for all processes that run on a network backend.

    Subclasses implement ``on_start`` and ``on_message``; they signal termination by
    calling :meth:`finish`, after which the runtime stops delivering messages to them
    (remaining traffic is drained silently, matching the "protocol module" notion of
    the paper where each block has a definite output).

    ``finished`` and ``output`` are plain attributes (read twice per delivery,
    so no property call): treat them as read-only; only :meth:`finish` sets them.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.output: Any = None
        self.finished = False

    # -- lifecycle ---------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:  # pragma: no cover - default no-op
        """Called exactly once before any message is delivered."""

    @abc.abstractmethod
    def on_message(self, ctx: NodeContext, message: Message) -> None:
        """Called for every message delivered to this node."""

    # -- termination and output --------------------------------------------
    def finish(self, output: Any = None) -> None:
        """Mark the node as finished with the given output value."""
        self.output = output
        self.finished = True

    def close(self) -> None:
        """Release what the node holds for its run; called by the network's ``close``.

        A node must keep ``finished`` and ``output`` (and whatever else the
        round's owner reads after the round) but drop every reference back
        into the run, so nothing of the round is left for the cyclic
        collector.  The default holds nothing of the kind.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"{type(self).__name__}({self.node_id!r}, {state})"
