"""Message type exchanged between nodes of the simulated runtime.

A message is an immutable record of *who* sent *what* to *whom*, together with the
virtual time at which it was sent and the arrival time assigned by the latency model.
The ``tag`` field is a routing string used by layered protocols (for instance
``"ba/consensus/u3/bit07/echo"``) so that a single node can multiplex many concurrent
protocol blocks over one channel.

Distributed runs create hundreds of thousands of messages, so the record is a
named tuple: one allocation per message, built by ``tuple.__new__`` without a
Python-level ``__init__`` (a frozen dataclass pays one ``object.__setattr__``
per field), no per-instance ``__dict__``, and it pickles and deep-copies on
every supported interpreter without a hand-written state protocol.  Fields
cannot be assigned; a changed copy is ``message._replace(field=value)``.

Message ids
-----------

``msg_id`` is the deterministic tie-breaker of every scheduler.  A network
allocates ids from its own counter (see ``SimNetwork``), so the ids — and with
them tie-breaks, schedules and delivery traces — do not depend on how many
other networks ran earlier in the process.  Messages created outside a network
(unit tests, hand-driven channels) fall back to a process-global counter, which
keeps ids unique and monotone per process.
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Optional

from repro.net.serialization import estimate_size

_MESSAGE_COUNTER = itertools.count()


class _MessageFields(NamedTuple):
    sender: str
    recipient: str
    payload: Any
    tag: str
    send_time: float
    arrival_time: float
    size_bytes: int
    msg_id: int
    origin: Optional[int]


class Message(_MessageFields):
    """A single message in transit between two nodes.

    Attributes:
        sender: identifier of the sending node.
        recipient: identifier of the receiving node.
        payload: arbitrary (picklable) protocol payload.
        tag: routing tag used by protocol blocks to dispatch the payload.
        send_time: virtual time at which the sender emitted the message.
        arrival_time: virtual time at which the message becomes deliverable.
        size_bytes: estimated wire size, used by bandwidth-aware latency models
            and by the benchmark harness to report traffic volume.
        msg_id: unique, monotonically increasing identifier — per network when
            allocated by one, process-global otherwise; used for deterministic
            tie-breaking in schedulers.
        origin: the msg_id of the logical send this message is a copy of, when
            it is an injected duplicate or a retransmission (see
            :mod:`repro.net.faults`); ``None`` for ordinary first sends.  The
            recipient-side duplicate suppression keys on the origin, so a
            payload is processed exactly once however many copies arrive.

    The keyword constructor below serves hand-built messages; a caller that
    has all nine fields in order (the network, once per send) builds the
    record with ``tuple.__new__(Message, fields)``, which is what
    ``_make`` / ``_replace`` do as well.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: str,
        recipient: str,
        payload: Any,
        tag: str = "",
        send_time: float = 0.0,
        arrival_time: float = 0.0,
        size_bytes: int = 0,
        msg_id: Optional[int] = None,
        origin: Optional[int] = None,
    ) -> "Message":
        if msg_id is None:
            msg_id = next(_MESSAGE_COUNTER)
        return tuple.__new__(
            cls,
            (sender, recipient, payload, tag, send_time, arrival_time, size_bytes, msg_id, origin),
        )

    @staticmethod
    def create(
        sender: str,
        recipient: str,
        payload: Any,
        tag: str = "",
        send_time: float = 0.0,
        arrival_time: float = 0.0,
        msg_id: Optional[int] = None,
    ) -> "Message":
        """Build a message, estimating its wire size from the payload.

        ``msg_id=None`` (the default) draws from the process-global counter;
        networks pass their own per-network ids explicitly.
        """
        return Message(
            sender,
            recipient,
            payload,
            tag,
            send_time,
            arrival_time,
            estimate_size((tag, payload)),
            msg_id,
        )

    def is_timer(self) -> bool:
        """True if this is a self-addressed timer event (see NodeContext.set_timer)."""
        return self.sender == self.recipient and self.tag.startswith("__timer__")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.msg_id} {self.sender}->{self.recipient} "
            f"tag={self.tag!r} t={self.send_time:.4f}->{self.arrival_time:.4f})"
        )
