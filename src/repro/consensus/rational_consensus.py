"""Rational consensus (full-information broadcast/echo with equivocation detection).

The framework's bid agreement builds on the rational consensus abstraction of Afek et
al. (PODC 2014): a protocol among ``m`` providers with the guarantees

1. if all providers follow the protocol, then they all eventually output the same
   value, and that value was the *input of some provider*; and
2. the protocol is a k-resilient equilibrium under *solution preference* (providers
   prefer any agreed valid outcome over ⊥) and ``m > 2k``.

We implement the full-information variant:

* **value round** — every provider broadcasts its input to all participants;
* **echo round** — once a provider has collected a value from every participant it
  broadcasts the collected vector;
* **decision** — when all echo vectors have been received the provider checks that
  every peer reported the *same* value vector (any mismatch means some provider
  equivocated, and the correct response under solution preference is to output ⊥);
  if consistent, the decision is the *majority* input, with ties broken towards the
  value of the lexicographically smallest provider id holding a majority value.

The decision rule makes the output the input of some provider (condition 1) and is a
symmetric function of the agreed vector, so all correct providers decide identically.
Deviations that are observable (equivocation, malformed values) lead to ⊥; deviations
that are not observable (lying about one's own input) cannot increase the deviator's
utility because the allocator's input-validation step forces all providers to input
the same agreed vector (see Theorem 1 in the paper and DESIGN.md).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Hashable, Optional

from repro.common import ABORT
from repro.net.protocol import BlockContext, ProtocolBlock

__all__ = ["RationalConsensusBlock", "BinaryConsensusBlock", "majority_decision"]


def majority_decision(values: Dict[str, Any]) -> Any:
    """Deterministic symmetric decision rule over a provider->value mapping.

    Returns the most frequent value; ties are broken in favour of the value proposed
    by the smallest provider id among the tied values.  Unhashable values are
    compared by repr for counting purposes (protocol payloads are plain data, so this
    is only a defensive fallback).
    """
    if not values:
        raise ValueError("cannot decide over an empty value set")
    # Unanimity on one shared object (what every provider holds after relaying
    # a bidder's message) needs no counting.  Identity only: values that are
    # merely equal are counted below, where unhashable ones are handled.
    candidates = iter(values.values())
    first = next(candidates)
    for value in candidates:
        if value is not first:
            break
    else:
        return first

    def key_of(value: Any) -> Hashable:
        try:
            hash(value)
            return value
        except TypeError:
            return repr(value)

    counts: Counter = Counter(key_of(v) for v in values.values())
    best_count = max(counts.values())
    tied_keys = {key for key, count in counts.items() if count == best_count}
    for provider_id in sorted(values):
        if key_of(values[provider_id]) in tied_keys:
            return values[provider_id]
    raise AssertionError("unreachable: some provider must hold a tied value")


class RationalConsensusBlock(ProtocolBlock):
    """Single-shot consensus over values from an arbitrary (finite) domain.

    Args:
        name: block name (used for tag namespacing by the host).
        my_input: this provider's input value.
        validator: optional predicate; a received input that fails validation is
            treated as an observable deviation and leads to ⊥.
    """

    VALUE = "value"
    ECHO = "echo"

    def __init__(
        self,
        name: str,
        my_input: Any,
        validator: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        super().__init__(name)
        self.my_input = my_input
        self.validator = validator
        self._values: Dict[str, Any] = {}
        self._echoes: Dict[str, Dict[str, Any]] = {}
        self._echo_sent = False

    # -- protocol ---------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        if self.validator is not None and not self.validator(self.my_input):
            # A correct provider never has an invalid input; treat as local fault.
            self.complete(ABORT)
            return
        self._values[ctx.node_id] = self.my_input
        ctx.broadcast(self.my_input, subtag=self.VALUE)
        self._maybe_echo(ctx)

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        if self.done:
            return
        if sender not in ctx.participants:
            return
        if subtag == self.VALUE:
            self._on_value(ctx, sender, payload)
        elif subtag == self.ECHO:
            self._on_echo(ctx, sender, payload)

    # -- rounds ----------------------------------------------------------------
    def _on_value(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        if sender in self._values:
            # Duplicate value message from the same provider: equivocation.
            if self._values[sender] != payload:
                self.complete(ABORT)
            return
        if self.validator is not None and not self.validator(payload):
            self.complete(ABORT)
            return
        self._values[sender] = payload
        self._maybe_echo(ctx)

    def _maybe_echo(self, ctx: BlockContext) -> None:
        if self._echo_sent or self.done:
            return
        if set(self._values) != set(ctx.participants):
            return
        self._echo_sent = True
        snapshot = dict(self._values)
        ctx.broadcast(snapshot, subtag=self.ECHO)
        self._echoes[ctx.node_id] = snapshot
        self._maybe_decide(ctx)

    def _on_echo(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        if not isinstance(payload, dict):
            self.complete(ABORT)
            return
        if sender in self._echoes:
            if self._echoes[sender] != payload:
                self.complete(ABORT)
            return
        self._echoes[sender] = dict(payload)
        self._maybe_decide(ctx)

    def _maybe_decide(self, ctx: BlockContext) -> None:
        if self.done or not self._echo_sent:
            return
        if set(self._echoes) != set(ctx.participants):
            return
        reference = self._echoes[ctx.node_id]
        for echo in self._echoes.values():
            if set(echo) != set(reference):
                self.complete(ABORT)
                return
            for provider_id, value in reference.items():
                if echo.get(provider_id) != value:
                    # Some provider equivocated about its input.
                    self.complete(ABORT)
                    return
        self.complete(majority_decision(reference))


class BinaryConsensusBlock(RationalConsensusBlock):
    """The paper's binary building block: inputs restricted to {0, 1}."""

    def __init__(self, name: str, my_input: int) -> None:
        super().__init__(name, my_input, validator=lambda value: value in (0, 1))
