"""Data transfer block (Property 5 of the paper).

When a task of the parallel allocator is computed by a set ``S`` of providers and its
result is needed by a different set ``O``, the providers of ``S`` broadcast their
(identical, if they are honest) results to the providers of ``O``; a receiver that
sees two different values outputs ⊥.  With ``|S| > k`` no coalition of up to ``k``
providers can make a correct receiver accept a wrong value — at best it can force ⊥,
which solution preference makes unattractive.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.common import ABORT
from repro.net.protocol import BlockContext, ProtocolBlock

__all__ = ["DataTransferBlock"]

_MISSING = object()


class DataTransferBlock(ProtocolBlock):
    """Transfer a value from a sender group ``S`` to a receiver group ``O``.

    Args:
        name: block name.
        senders: provider ids in ``S`` (must all input the same value when honest).
        receivers: provider ids in ``O``.
        my_value: this provider's value, required if (and only if) it is in ``S``.
        round_timeout: virtual-time budget for the transfer (``None`` waits
            forever).  On timeout a receiver accepts the consistent value it
            holds — a *weakened* check flagged via :attr:`degraded` (fewer than
            ``|S|`` confirmations) — or outputs ⊥ if it received nothing or
            saw a conflict.

    Output: at receivers, the transferred value (or ⊥ on any inconsistency); at
    senders that are not receivers, their own value (they already hold it).
    """

    VALUE = "value"
    TIMER_TRANSFER = "round/transfer"

    def __init__(
        self,
        name: str,
        senders: Sequence[str],
        receivers: Sequence[str],
        my_value: Any = _MISSING,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.senders = list(dict.fromkeys(senders))
        self.receivers = list(dict.fromkeys(receivers))
        if not self.senders:
            raise ValueError("data transfer needs at least one sender")
        self.round_timeout = round_timeout
        self._my_value = my_value
        self._received: Dict[str, Any] = {}

    # -- roles --------------------------------------------------------------------
    def _is_sender(self, node_id: str) -> bool:
        return node_id in self.senders

    def _is_receiver(self, node_id: str) -> bool:
        return node_id in self.receivers

    # -- protocol -----------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        me = ctx.node_id
        if self._is_sender(me):
            if self._my_value is _MISSING:
                raise ValueError(f"sender {me!r} must provide my_value to the data transfer")
            ctx.send_to(self.receivers, self._my_value, subtag=self.VALUE)
            self._received[me] = self._my_value
            if not self._is_receiver(me):
                self.complete(self._my_value)
                return
        if self._is_receiver(me):
            if self.round_timeout is not None:
                ctx.set_timer(self.round_timeout, self.TIMER_TRANSFER)
            self._maybe_finish(ctx)

    def on_timer(self, ctx: BlockContext, subtag: str) -> None:
        if self.done or subtag != self.TIMER_TRANSFER:
            return
        self.degraded = True
        values = list(self._received.values())
        if not values:
            self.complete(ABORT)  # nothing arrived: no value to degrade onto
            return
        first = values[0]
        if any(value != first for value in values[1:]):
            self.complete(ABORT)
            return
        self.complete(first)

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        if self.done or subtag != self.VALUE:
            return
        if not self._is_receiver(ctx.node_id):
            return
        if sender not in self.senders:
            # Traffic from outside S cannot influence the transfer.
            return
        if sender in self._received:
            if self._received[sender] != payload:
                self.complete(ABORT)
            return
        self._received[sender] = payload
        self._maybe_finish(ctx)

    def _maybe_finish(self, ctx: BlockContext) -> None:
        if self.done:
            return
        if set(self._received) != set(self.senders):
            return
        values = list(self._received.values())
        first = values[0]
        if any(value != first for value in values[1:]):
            self.complete(ABORT)
            return
        self.complete(first)
