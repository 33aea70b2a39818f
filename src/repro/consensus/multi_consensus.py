"""Rational consensus (Afek et al., PODC 2014) over labelled batches of values.

The framework's bid agreement builds on the rational consensus abstraction: a
protocol among ``m`` providers with the guarantees

1. if all providers follow the protocol, then they all eventually output the same
   value, and that value was the *input of some provider*; and
2. the protocol is a k-resilient equilibrium under *solution preference* (providers
   prefer any agreed valid outcome over ⊥) and ``m > 2k``.

:class:`BatchedConsensusBlock` is the full-information variant, run over a
labelled dictionary of inputs — one consensus instance per label, all sharing
two broadcast rounds:

* **value round** — every provider broadcasts its batch (label -> input);
* **echo round** — once a provider holds a batch from every participant it
  broadcasts what it collected: one :class:`~repro.net.serialization.Digest`
  per batch (:func:`digest_echo`), or the batches themselves under a
  ``round_timeout``;
* **decision** — when all echoes have arrived the provider checks that every peer
  reported the *same* batches (any mismatch means some provider equivocated, and
  the correct response under solution preference is ⊥); if consistent, each label
  decides its :func:`majority_decision` input.

The decision only needs to know that every provider holds the same ``m``
batches, and a digest of each tells it that: the strict echo costs ``m``
digests of 32 bytes where it cost ``m`` batches, so its size does not grow
with the number of labels.  A batch no larger than its digest is echoed as it
is.  The timeout mode's merged decision takes a batch it never received from a
peer's echo, which a digest cannot stand in for, so that mode echoes batches.

The decision rule makes each output the input of some provider and is a symmetric
function of the agreed batches, so all correct providers decide identically.  The
bid agreement runs every instance in one block, whose batch carries each bid as
the 128 bits the paper's binary instances agree on (one message per peer per
round); ``tests/consensus/rational_consensus.py`` keeps an independent
single-value implementation the suite compares this block against.

Batches are :class:`~repro.net.serialization.FrozenMap` values shared by reference: a
provider freezes its inputs once, every receiver keeps that same object, and an echo
is a frozen map of those objects or of digests holding them.  Comparing two honest
echoes is then ``m`` identity hits and sizing one ``m`` memo reads or constants, where
copying each batch on receipt and on echo made both a walk over ``m·n`` entries.
Honest providers of a round also share the :class:`LabelSet` their batch is
checked against, and a relayed batch that *is* the receiver's own input —
validated when the block started — is accepted by identity; any other object,
however equal, gets the full label check.
"""

from __future__ import annotations

from collections import Counter
from operator import is_
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.common import ABORT
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.net.serialization import FROZEN_MAPS, FrozenMap, digest_or_self

__all__ = [
    "BatchedConsensusBlock",
    "LabelSet",
    "digest_echo",
    "label_set",
    "majority_decision",
]


class LabelSet(NamedTuple):
    """The labels a batch must cover: sorted with duplicates kept, and as a set."""

    ordered: Tuple[str, ...]
    members: FrozenSet[str]


def label_set(labels: Iterable[str]) -> LabelSet:
    ordered = tuple(sorted(labels))
    return LabelSet(ordered, frozenset(ordered))


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


def _frozen(mapping: Mapping[Any, Any]) -> FrozenMap:
    """``mapping`` itself if nobody can change it, else a frozen copy.

    Exact types only (:data:`~repro.net.serialization.FROZEN_MAPS`): what a
    deviant sends — a plain dict, or a subclass that hands the mutators back
    — is copied, so a sender cannot change what a receiver holds.
    """
    return mapping if type(mapping) in FROZEN_MAPS else FrozenMap(mapping)


def digest_echo(batches: Mapping[str, Any]) -> FrozenMap:
    """The strict echo of ``batches`` (provider -> batch): one digest per batch.

    A batch whose wire size is at most a digest's is carried as it is
    (:func:`~repro.net.serialization.digest_or_self`), so an echo never costs
    more than the batches it stands for.  Providers holding one batch *object*
    share one stand-in: honest providers of a ``run_from_bids`` round hold one
    batch, so a round builds ``m`` digests, not ``m²``.  Not remembered on the
    batch, where the digest holding it would make a reference cycle.
    """
    stand_ins: Dict[int, Any] = {}  # ``batches`` keeps every batch alive for the call
    echo = {}
    for provider, batch in batches.items():
        stand_in = stand_ins.get(id(batch))
        if stand_in is None:
            stand_in = stand_ins[id(batch)] = digest_or_self(batch)
        echo[provider] = stand_in
    return FrozenMap(echo)


class BatchedConsensusBlock(ProtocolBlock):
    """Agree on one value per label, using two batched rounds.

    Args:
        name: block name.
        my_inputs: mapping label -> this provider's input for that label.
        labels: the full set of labels every provider must cover, or a prebuilt
            :class:`LabelSet` shared with other blocks; a received batch with a
            different label set is an observable deviation (⊥).
        round_timeout: virtual-time budget per round (``None`` waits forever,
            the reliable-substrate default).  With a timeout, a round that does
            not fill its quorum in time closes with the batches/echoes received
            so far — the block *terminates* instead of hanging on a crashed or
            partitioned peer, and sets :attr:`degraded` so the caller can
            surface the partial view.  Degraded decisions merge the received
            echoes label by label, so in this mode an echo carries batches
            rather than digests; a genuine conflict between views still
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
        labels: Optional[Iterable[str]] = None,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.my_inputs = _frozen(my_inputs)
        if not isinstance(labels, LabelSet):
            labels = label_set(my_inputs.keys() if labels is None else labels)
        self.labels, self._label_set = labels
        self.round_timeout = round_timeout
        self._batches: Dict[str, FrozenMap] = {}
        self._echoes: Dict[str, Mapping[str, Any]] = {}
        self._echo_sent = False

    # -- helpers -----------------------------------------------------------------
    def _valid_batch(self, batch: Any) -> bool:
        """True if ``batch`` is a mapping over exactly the label set.

        Compared as sets, never sorted: the keys of a deviant's batch need not
        order.  A label list with duplicates matches no batch (the length differs).
        """
        return (
            isinstance(batch, dict)
            and len(batch) == len(self.labels)
            and batch.keys() == self._label_set
        )

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
        # Our own input passed on_start's check.  Identity only: equality
        # walks the batch too, and a deviant's object defines its own __eq__.
        if payload is not self.my_inputs and not self._valid_batch(payload):
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
        if self.round_timeout is None:
            snapshot = digest_echo(self._batches)
        else:
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
            # Honest echoes hold digests of the very objects ``reference``'s
            # digests hold, so this is an identity hit per provider; contents
            # are compared only where the objects differ.
            if echo != reference:
                # Two providers hold different views of the first round: someone
                # equivocated, so the correct output is ⊥.
                self.complete(ABORT)
                return
        # Every echo agrees with ours, which digests the batches we hold.
        self._decide(self._batches)

    def _decide_merged(self, ctx: BlockContext) -> None:
        """Decide from the union of the received echo views (timeout mode only)."""
        merged: Dict[str, FrozenMap] = {}
        for echo in self._echoes.values():
            for provider, batch in echo.items():
                known = merged.get(provider)
                if known is None:
                    if not self._valid_batch(batch):
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
