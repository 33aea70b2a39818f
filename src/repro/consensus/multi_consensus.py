"""Batched consensus: many labelled instances over shared messages.

Running one :class:`~repro.consensus.rational_consensus.RationalConsensusBlock` per
bidder (or per bit) is faithful to the paper's description but wasteful on the wire:
with ``n`` bidders and ``m`` providers it sends ``O(n·m²)`` small messages.  A real
deployment (and the paper's prototype, which finishes 1000-user auctions in under a
second over a WAN) batches the instances: each provider sends *one* message per peer
per round carrying the values for every label.

:class:`BatchedConsensusBlock` implements exactly the same two-round
broadcast/echo/decide structure as the single-instance block, but over a labelled
dictionary of inputs.  Per-label decisions use the same majority rule, so the batched
and per-instance modes agree on the output whenever both terminate (a property checked
by the test suite).

Batches are :class:`~repro.net.serialization.FrozenMap` values shared by reference: a
provider freezes its inputs once, every receiver keeps that same object, and an echo
is a frozen map of those objects.  Comparing two honest echoes is then ``m`` identity
hits and sizing one ``m`` memo reads, where copying each batch on receipt and on echo
made both a walk over ``m·n`` entries.
"""

from __future__ import annotations

from operator import is_
from typing import Any, Callable, Dict, Mapping, Optional

from repro.common import ABORT
from repro.consensus.rational_consensus import majority_decision
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.net.serialization import FrozenMap

__all__ = ["BatchedConsensusBlock"]


def _frozen(mapping: Mapping[Any, Any]) -> FrozenMap:
    """``mapping`` itself if nobody can change it, else a frozen copy.

    Exact type only: what a deviant sends — a plain dict, or a subclass that
    hands the mutators back — is copied, so a sender cannot change what a
    receiver holds.
    """
    return mapping if type(mapping) is FrozenMap else FrozenMap(mapping)


class BatchedConsensusBlock(ProtocolBlock):
    """Agree on one value per label, using two batched rounds.

    Args:
        name: block name.
        my_inputs: mapping label -> this provider's input for that label.
        labels: the full set of labels every provider must cover; a received batch
            with a different label set is an observable deviation (⊥).
        validator: optional per-value predicate applied to every received value.
        round_timeout: virtual-time budget per round (``None`` waits forever,
            the reliable-substrate default).  With a timeout, a round that does
            not fill its quorum in time closes with the batches/echoes received
            so far — the block *terminates* instead of hanging on a crashed or
            partitioned peer, and sets :attr:`degraded` so the caller can
            surface the partial view.  Degraded decisions merge the received
            echoes label by label; a genuine conflict between views still
            outputs ⊥.
    """

    VALUE = "value"
    ECHO = "echo"
    TIMER_VALUE = "round/value"
    TIMER_ECHO = "round/echo"

    def __init__(
        self,
        name: str,
        my_inputs: Dict[str, Any],
        labels: Optional[list] = None,
        validator: Optional[Callable[[Any], bool]] = None,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.my_inputs = _frozen(my_inputs)
        self.labels = sorted(my_inputs.keys()) if labels is None else sorted(labels)
        self._label_set = frozenset(self.labels)
        self.validator = validator
        self.round_timeout = round_timeout
        #: True when a round closed by timeout with a partial quorum.
        self.degraded = False
        self._batches: Dict[str, FrozenMap] = {}
        self._echoes: Dict[str, Mapping[str, Any]] = {}
        self._echo_sent = False

    # -- helpers -----------------------------------------------------------------
    def _covers_labels(self, batch: Any) -> bool:
        """True if ``batch`` is a mapping over exactly the label set.

        Compared as sets, never sorted: the keys of a deviant's batch need not
        order.  A label list with duplicates matches no batch (the length differs).
        """
        return (
            isinstance(batch, dict)
            and len(batch) == len(self.labels)
            and batch.keys() == self._label_set
        )

    def _valid_batch(self, batch: Any) -> bool:
        if not self._covers_labels(batch):
            return False
        if self.validator is not None:
            return all(self.validator(value) for value in batch.values())
        return True

    # -- protocol -----------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        if not self._valid_batch(self.my_inputs):
            self.complete(ABORT)
            return
        self._batches[ctx.node_id] = self.my_inputs
        ctx.broadcast(self.my_inputs, subtag=self.VALUE)
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_VALUE)
        self._maybe_echo(ctx)

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        if self.done or sender not in ctx.participants:
            return
        if subtag == self.VALUE:
            self._on_value(ctx, sender, payload)
        elif subtag == self.ECHO:
            self._on_echo(ctx, sender, payload)

    def _on_value(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        if sender in self._batches:
            if self._batches[sender] != payload:
                self.complete(ABORT)
            return
        if not self._valid_batch(payload):
            self.complete(ABORT)
            return
        self._batches[sender] = _frozen(payload)
        self._maybe_echo(ctx)

    def _maybe_echo(self, ctx: BlockContext, force: bool = False) -> None:
        if self._echo_sent or self.done:
            return
        if not force and set(self._batches) != set(ctx.participants):
            return
        self._echo_sent = True
        snapshot = FrozenMap(self._batches)
        ctx.broadcast(snapshot, subtag=self.ECHO)
        self._echoes[ctx.node_id] = snapshot
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_ECHO)
        self._maybe_decide(ctx)

    def _on_echo(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        if not isinstance(payload, dict):
            self.complete(ABORT)
            return
        if sender in self._echoes:
            if self._echoes[sender] != payload:
                self.complete(ABORT)
            return
        self._echoes[sender] = payload
        self._maybe_decide(ctx)

    # -- timeout quorum ----------------------------------------------------------
    def on_timer(self, ctx: BlockContext, subtag: str) -> None:
        if self.done:
            return
        if subtag == self.TIMER_VALUE and not self._echo_sent:
            # The value round ran out of budget: echo what we have.
            self.degraded = True
            self._maybe_echo(ctx, force=True)
        elif subtag == self.TIMER_ECHO and self._echo_sent:
            # The echo round ran out of budget: decide over the echoes we have.
            self.degraded = True
            self._maybe_decide(ctx, force=True)

    def _maybe_decide(self, ctx: BlockContext, force: bool = False) -> None:
        if self.done or not self._echo_sent:
            return
        if set(self._echoes) != set(ctx.participants):
            if not force:
                return
            self.degraded = True
        if self.round_timeout is not None:
            # Timeout-quorum mode merges the received echoes label by label:
            # identical full views decide exactly as the strict path below,
            # partial views still terminate, and a genuine conflict is ⊥.
            self._decide_merged(ctx)
            return
        reference = self._echoes[ctx.node_id]
        for echo in self._echoes.values():
            # Honest echoes hold the very objects ``reference`` holds, so this
            # is an identity hit per provider; contents are compared only
            # where the objects differ.
            if echo != reference:
                # Two providers hold different views of the first round: someone
                # equivocated, so the correct output is ⊥.
                self.complete(ABORT)
                return
        self._decide(reference)

    def _decide_merged(self, ctx: BlockContext) -> None:
        """Decide from the union of the received echo views (timeout mode only)."""
        merged: Dict[str, FrozenMap] = {}
        for echo in self._echoes.values():
            for provider, batch in echo.items():
                known = merged.get(provider)
                if known is None:
                    if not self._covers_labels(batch):
                        self.complete(ABORT)  # malformed view: observable deviation
                        return
                    merged[provider] = _frozen(batch)
                elif known is not batch and known != batch:
                    # Two views disagree about the same provider's first-round
                    # batch: someone equivocated, the correct output is ⊥.
                    self.complete(ABORT)
                    return
        if not merged:
            self.complete(ABORT)
            return
        if set(merged) != set(ctx.participants):
            self.degraded = True  # deciding without some provider's batch
        self._decide(merged)

    def _decide(self, batches: Mapping[str, FrozenMap]) -> None:
        """Complete with the per-label majority over ``batches`` (provider -> batch).

        Every batch covers exactly the label set.  When the providers relayed
        the same objects — each label unanimous *by identity*, the case
        ``majority_decision`` answers without counting — the batch of the
        lowest provider id is the decision, so that providers with the same
        view decide the same *object* and share what they derive from it;
        otherwise the majority rule runs label by label.
        """
        # Ordered as strings: the keys of a deviant's echo need not order.
        first = batches[min(batches, key=str)]
        values = list(first.values())
        for batch in batches.values():
            if batch is not first and not all(
                map(is_, values, map(batch.__getitem__, first))
            ):
                break
        else:
            self.complete(first)
            return
        self.complete(
            FrozenMap(
                (
                    label,
                    majority_decision(
                        {provider: batch[label] for provider, batch in batches.items()}
                    ),
                )
                for label in self.labels
            )
        )
