"""Deviating provider implementations used to probe k-resilience.

All deviations are built around the honest
:class:`~repro.core.provider_protocol.FrameworkProviderNode` so that the deviation is
exactly one well-identified departure from the protocol:

* :class:`InputForgingProviderNode` — lies about the bids it received (feeds a forged
  vector into the bid agreement).
* :class:`EquivocatingProviderNode` — sends different payloads to different peers for
  selected protocol messages.
* :class:`MessageDroppingProviderNode` — omits selected protocol messages.
* :class:`CrashingProviderNode` — stops participating after a number of sends.
* :class:`OutputTamperingProviderNode` — runs the protocol honestly but announces a
  doctored output (e.g. inflating its own revenue).

The expected consequences, which the resilience tests assert, are those of the
paper's analysis: observable deviations drive correct providers to ⊥ (so nobody —
including the deviator — gets paid), and unobservable ones cannot change the outcome
of the correct providers except towards ⊥.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Sequence

from repro.auctions.base import AllocationAlgorithm, AuctionResult, Payments
from repro.core.config import FrameworkConfig
from repro.core.provider_protocol import FrameworkProviderNode, ProviderInput
from repro.net.message import Message
from repro.net.node import NodeContext

__all__ = [
    "DeviantProviderNode",
    "InputForgingProviderNode",
    "EquivocatingProviderNode",
    "MessageDroppingProviderNode",
    "CrashingProviderNode",
    "OutputTamperingProviderNode",
]


class _TamperingContext(NodeContext):
    """A NodeContext that lets the owning node rewrite or drop outgoing messages."""

    def __init__(self, inner: NodeContext, owner: "DeviantProviderNode") -> None:
        self._inner = inner
        self._owner = owner

    @property
    def node_id(self) -> str:
        return self._inner.node_id

    @property
    def peers(self) -> Sequence[str]:
        return self._inner.peers

    @property
    def rng(self) -> random.Random:
        return self._inner.rng

    def now(self) -> float:
        return self._inner.now()

    def charge(self, seconds: float) -> None:
        self._inner.charge(seconds)

    def set_timer(self, delay: float, tag: str) -> None:
        self._inner.set_timer(delay, tag)

    def send(self, recipient: str, payload: Any, tag: str = "") -> None:
        decision = self._owner.transform_send(recipient, payload, tag)
        if decision is None:
            return
        new_payload, new_tag = decision
        self._inner.send(recipient, new_payload, tag=new_tag)


class DeviantProviderNode(FrameworkProviderNode):
    """Base class: an honest provider whose outgoing messages pass through a filter.

    Subclasses override :meth:`transform_send` (return ``None`` to drop the message,
    or a ``(payload, tag)`` pair to forward something — possibly different from what
    the protocol intended).
    """

    #: The filter around the network's context, built once per context.  The
    #: node's blocks keep it and it keeps the node, so :meth:`close` cuts it.
    _tampering: Optional[_TamperingContext] = None

    def _filtered(self, ctx: NodeContext) -> _TamperingContext:
        tampering = self._tampering
        if tampering is None or tampering._inner is not ctx:
            tampering = self._tampering = _TamperingContext(ctx, self)
        return tampering

    def on_start(self, ctx: NodeContext) -> None:
        super().on_start(self._filtered(ctx))

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        super().on_message(self._filtered(ctx), message)

    def close(self) -> None:
        super().close()
        if self._tampering is not None:
            self._tampering._owner = None

    def transform_send(self, recipient: str, payload: Any, tag: str):
        """Default: behave honestly."""
        return payload, tag


class InputForgingProviderNode(FrameworkProviderNode):
    """Feeds a forged view of the received bids into the protocol.

    Args:
        forge: a function rewriting the provider's input before the protocol starts
            (for instance, dropping a competitor's bid or inflating one).
    """

    def __init__(
        self,
        provider_input: ProviderInput,
        algorithm: AllocationAlgorithm,
        config: FrameworkConfig,
        expected_users: Sequence[str],
        providers: Sequence[str],
        forge: Callable[[ProviderInput], ProviderInput],
    ) -> None:
        super().__init__(forge(provider_input), algorithm, config, expected_users, providers)


class EquivocatingProviderNode(DeviantProviderNode):
    """Sends a corrupted payload to a subset of peers for matching protocol messages.

    Args:
        tag_substring: only messages whose tag contains this substring are affected
            (default ``"|value"`` — the first round of agreement blocks).
        victim_fraction: fraction of the peer set (by sorted order) receiving the
            corrupted variant.
        corrupt: payload rewriting function; the default replaces the payload with a
            recognisable sentinel, which is enough to create disagreement.
    """

    def __init__(
        self,
        *args,
        tag_substring: str = "|value",
        victim_fraction: float = 0.5,
        corrupt: Optional[Callable[[Any], Any]] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.tag_substring = tag_substring
        self.victim_fraction = victim_fraction
        self.corrupt = corrupt if corrupt is not None else (lambda payload: "equivocated")

    def _victims(self) -> set:
        peers = sorted(p for p in self.participants if p != self.node_id)
        count = max(1, int(len(peers) * self.victim_fraction)) if peers else 0
        return set(peers[:count])

    def transform_send(self, recipient: str, payload: Any, tag: str):
        if self.tag_substring in tag and recipient in self._victims():
            return self.corrupt(payload), tag
        return payload, tag


class MessageDroppingProviderNode(DeviantProviderNode):
    """Omits protocol messages whose tag contains a given substring.

    Dropping messages cannot corrupt the outcome — it can only prevent termination at
    other providers, which the outcome combination treats as ⊥.
    """

    def __init__(self, *args, tag_substring: str = "|echo", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tag_substring = tag_substring

    def transform_send(self, recipient: str, payload: Any, tag: str):
        if self.tag_substring in tag:
            return None
        return payload, tag


class CrashingProviderNode(DeviantProviderNode):
    """Participates honestly for a while, then stops sending anything at all."""

    def __init__(self, *args, max_sends: int = 5, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.max_sends = max_sends
        self._sent = 0

    def transform_send(self, recipient: str, payload: Any, tag: str):
        if self._sent >= self.max_sends:
            return None
        self._sent += 1
        return payload, tag


class OutputTamperingProviderNode(FrameworkProviderNode):
    """Runs the protocol honestly but reports a doctored result as its output.

    The default doctoring inflates the provider's own revenue by ``bonus``.  Because
    the other providers output the honest pair, the combined outcome (Definition 1)
    becomes ⊥ — the deviation is unprofitable, which is what the resilience tests
    verify.
    """

    def __init__(self, *args, bonus: float = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bonus = bonus

    def _on_root_done(self, block) -> None:  # type: ignore[override]
        result = block.result
        if isinstance(result, AuctionResult):
            revenues = dict(result.payments.provider_revenues)
            revenues[self.node_id] = revenues.get(self.node_id, 0.0) + self.bonus
            result = AuctionResult(
                result.allocation,
                Payments(
                    result.payments.user_payments,
                    tuple(sorted(revenues.items())),
                ),
            )
        self.finish(result)
