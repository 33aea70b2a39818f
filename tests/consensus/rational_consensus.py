"""Single-instance rational consensus: the oracle for the batched block.

The full-information broadcast/echo protocol of Afek et al. (PODC 2014) for one
value, written independently of
:class:`~repro.consensus.multi_consensus.BatchedConsensusBlock`, which runs the
same protocol over a labelled batch and is the only implementation the package
ships.  ``tests/consensus/test_batched_consensus.py`` checks that a batch
decides, label by label, what one instance of this block per label decides.

* **value round** — every provider broadcasts its input to all participants;
* **echo round** — once a provider has collected a value from every participant it
  broadcasts the collected vector;
* **decision** — when all echo vectors have been received the provider checks that
  every peer reported the *same* value vector (any mismatch means some provider
  equivocated, and the output is ⊥); if consistent, the decision is the majority
  input, with ties broken towards the value of the lexicographically smallest
  provider id holding a majority value.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.common import ABORT
from repro.consensus.multi_consensus import majority_decision
from repro.net.protocol import BlockContext, ProtocolBlock


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
