"""Data transfer block (Property 5 of the paper).

When a task of the parallel allocator is computed by a set ``S`` of providers and its
result is needed by a different set ``O``, the providers of ``S`` broadcast their
(identical, if they are honest) results to the providers of ``O``; a receiver that
sees two different values outputs ⊥.  With ``|S| > k`` no coalition of up to ``k``
providers can make a correct receiver accept a wrong value — at best it can force ⊥,
which solution preference makes unattractive.

Input validation (Property 3) is the same block with ``S = O =`` every provider:
each broadcasts (a digest of) its input and outputs ⊥ as soon as it holds two
different ones.
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

    Output: at receivers, the transferred value, or ⊥ as soon as they hold two
    different values (their own included, when they are senders too); at
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
        # Every value held agrees (a conflict completes with ⊥ on arrival).
        self.complete(next(iter(self._received.values()), ABORT))

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        if self.done or subtag != self.VALUE:
            return
        if not self._is_receiver(ctx.node_id):
            return
        if sender not in self.senders:
            # Traffic from outside S cannot influence the transfer.
            return
        if self._received and payload != next(iter(self._received.values())):
            # Two different values: ⊥ now, without waiting for the rest of S —
            # a silent sender cannot hold the receiver up once it is ⊥ anyway.
            self.complete(ABORT)
            return
        self._received[sender] = payload
        self._maybe_finish(ctx)

    def _maybe_finish(self, ctx: BlockContext) -> None:
        if not self.done and len(self._received) == len(self.senders):
            self.complete(next(iter(self._received.values())))
