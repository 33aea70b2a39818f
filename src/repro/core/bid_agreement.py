"""Bid agreement block (Property 1 of the paper).

Every bidder is expected to submit its bid to *all* providers, but bidders may be
faulty or malicious: they can send different bids to different providers, send
garbage, or send nothing.  Before the allocation algorithm can be simulated, the
providers must therefore agree on a single vector of bids such that

* **eventual agreement** — all providers output the same vector, and
* **validity** — a bidder that sent the same bid to every provider sees exactly that
  bid in the agreed vector.

The paper implements this on top of the rational consensus of Afek et al., one binary
consensus instance per bit of a per-bidder bit stream.  Every mode runs the one
consensus block, :class:`~repro.consensus.multi_consensus.BatchedConsensusBlock`; a
mode only decides how the label batch is split into blocks:

* ``batched`` (the default) — one block over every label, so all instances share two
  broadcast/echo rounds: the message pattern a real deployment uses, and the one the
  benchmark harness exercises;
* ``per_label`` — one single-label block per bidder (and per ask);
* ``per_bit`` — the paper's faithful mode: one single-label block per bit of each
  user bid, its values checked to be bits, plus one per ask.

All three modes produce identical outputs when they terminate, and all three honour
``round_timeout``.

Whatever a bidder's misbehaviour, the agreed value for it is post-processed by the
validity rule of §4.1: an invalid or missing bid is replaced by a pre-determined
neutral bid that excludes the bidder from the auction.

In the double auction the providers are bidders too (they submit asks); their asks
travel through the same agreement under ``ask:`` labels.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.auctions.base import BidVector, UserBid
from repro.auctions.validation import (
    coerce_user_bid,
    is_valid_provider_ask,
    neutral_provider_ask,
)
from repro.common import ABORT, is_abort, memoise
from repro.consensus.bit_encoding import BID_BIT_LENGTH, bid_to_bits, bits_to_bid
from repro.consensus.multi_consensus import BatchedConsensusBlock, LabelSet, label_set
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.net.serialization import DERIVED_ATTR, FrozenMap
from repro.obs.context import current_observation

__all__ = ["BidAgreementBlock", "AGREEMENT_MODES", "agreement_messages"]

AGREEMENT_MODES = ("batched", "per_label", "per_bit")

_USER_PREFIX = "user:"
_ASK_PREFIX = "ask:"


def _kept_or_copied(mapping: Mapping[str, Any]) -> Mapping[str, Any]:
    """``mapping`` itself if nobody can change it, else a copy of one's own.

    Exact type only, as for the batched block's received batches: the honest
    maps of ``DistributedAuctioneer.run_from_bids`` are shared by reference,
    anything else — a caller's dict, a deviant's forged view — is copied.
    """
    return mapping if type(mapping) is FrozenMap else dict(mapping)


def _is_bit(value: Any) -> bool:
    """The per-bit mode's validator: a decided value is a bit (§4.1)."""
    return value in (0, 1)


def agreement_messages(m: int) -> int:
    """Messages of an honest batched agreement of ``m`` providers (§4.1): value + echo."""
    return 2 * m * (m - 1)


class BidAgreementBlock(ProtocolBlock):
    """Agree on a :class:`~repro.auctions.base.BidVector` starting from local views.

    Args:
        name: block name.
        expected_users: ids of the users that may participate (the label set).
        expected_providers: ids of all providers (their asks are agreed as well).
        received_user_bids: mapping user id -> the bid this provider received from
            that user (or ``None`` / anything invalid if nothing usable arrived).
        received_provider_asks: mapping provider id -> the ask this provider received
            (its own ask included).
        mode: ``"batched"`` (default), ``"per_label"`` or ``"per_bit"``.
        round_timeout: per-round virtual-time budget of every consensus block
            (see :class:`~repro.consensus.multi_consensus.BatchedConsensusBlock`).
    """

    def __init__(
        self,
        name: str,
        expected_users: Sequence[str],
        expected_providers: Sequence[str],
        received_user_bids: Mapping[str, Any],
        received_provider_asks: Mapping[str, Any],
        mode: str = "batched",
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        if mode not in AGREEMENT_MODES:
            raise ValueError(f"unknown agreement mode {mode!r}; choose from {AGREEMENT_MODES}")
        self.mode = mode
        self.round_timeout = round_timeout
        self.expected_users = sorted(expected_users)
        self.expected_providers = sorted(expected_providers)
        self.received_user_bids = _kept_or_copied(received_user_bids)
        self.received_provider_asks = _kept_or_copied(received_provider_asks)
        self._decisions: Dict[str, Any] = {}
        self._pending = 0

    # -- label helpers -------------------------------------------------------------
    def _labels(self) -> List[str]:
        return [f"{_USER_PREFIX}{uid}" for uid in self.expected_users] + [
            f"{_ASK_PREFIX}{pid}" for pid in self.expected_providers
        ]

    def _my_inputs(self) -> FrozenMap:
        """This provider's label-keyed batch: its input to the consensus."""
        return self._shared_input()[0]

    def _shared_input(self) -> Tuple[FrozenMap, LabelSet]:
        """The batch and the label set it is checked against.

        Both are pure functions of the two received maps and the expected ids,
        so they are built once per bids map *object*: honest providers of one
        ``run_from_bids`` round hold the same two maps and broadcast one
        batch, frozen and sized once, checked against one label set.  The memo
        is one slot on the bids map naming the asks map and the ids it was
        built for; a provider holding maps of its own (a forged copy, on-line
        collection) builds its own.
        """
        bids, asks = self.received_user_bids, self.received_provider_asks
        ids = (self.expected_users, self.expected_providers)
        memo = getattr(bids, DERIVED_ATTR, None)
        if memo is None or memo[0] is not asks or memo[1] != ids:
            built = (self._build_batch(), label_set(self._labels()))
            memo = memoise(bids, DERIVED_ATTR, (asks, ids, built))
        return memo[2]

    def _build_batch(self) -> FrozenMap:
        batch: Dict[str, Any] = {}
        for uid in self.expected_users:
            batch[f"{_USER_PREFIX}{uid}"] = self.received_user_bids.get(uid)
        for pid in self.expected_providers:
            batch[f"{_ASK_PREFIX}{pid}"] = self.received_provider_asks.get(pid)
        return FrozenMap(batch)

    # -- protocol -------------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        instances = self._instances()
        # Set the pending counter *before* spawning: a child block can complete
        # synchronously during activation (its peers' traffic may already be
        # buffered), and its callback decrements the counter.
        self._pending = len(instances)
        for name, inputs, labels, validator in instances:
            if self.done:
                return
            ctx.spawn(
                name,
                BatchedConsensusBlock(
                    name,
                    inputs,
                    labels=labels,
                    validator=validator,
                    round_timeout=self.round_timeout,
                ),
                self._on_decided,
            )

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        # All traffic flows through child blocks; nothing is addressed to this block
        # directly.
        return None

    def _instances(
        self,
    ) -> List[Tuple[str, FrozenMap, Optional[LabelSet], Optional[Callable[[Any], bool]]]]:
        """The consensus blocks of this mode: ``(name, inputs, labels, validator)``.

        ``batched`` is one block named ``batch`` over the shared batch and label
        set.  The faithful modes run one single-label block per instance, named
        by its label: ``per_label`` one per label, ``per_bit`` one per bit of each
        user bid (labels ``user:<id>/bitNNN``, values checked to be bits, §4.1)
        and one per ask — the bit-stream construction targets the (user)
        bidders, whose bids are the adversarial input, while the ask of a
        provider is that provider's own protocol input.
        """
        batch, labels = self._shared_input()
        if self.mode == "batched":
            return [("batch", batch, labels, None)]
        if self.mode == "per_label":
            return [
                (label, FrozenMap({label: value}), None, None)
                for label, value in sorted(batch.items())
            ]
        instances = []
        for uid in self.expected_users:
            bid = coerce_user_bid(uid, self.received_user_bids.get(uid))
            for position, bit in enumerate(bid_to_bits(bid.unit_value, bid.demand)):
                label = f"{_USER_PREFIX}{uid}/bit{position:03d}"
                instances.append((label, FrozenMap({label: bit}), None, _is_bit))
        for pid in self.expected_providers:
            label = f"{_ASK_PREFIX}{pid}"
            instances.append((label, FrozenMap({label: batch[label]}), None, None))
        return instances

    def _on_decided(self, block: ProtocolBlock) -> None:
        """One consensus block decided; the last one assembles the vector.

        The batched block's decision is adopted as it is — honest providers
        decide one object and share what ``_assemble`` derives from it.  The
        faithful modes merge their single-label decisions into a ``dict`` of
        their own, and ``per_bit`` decodes each user's decided bits into a bid.
        """
        if self.done:
            return
        if is_abort(block.result):
            self.complete(ABORT)
            return
        if self.mode == "batched":
            self._decisions = block.result
        else:
            self._decisions.update(block.result)
        self._pending -= 1
        if self._pending:
            return
        if self.mode == "per_bit":
            for uid in self.expected_users:
                label = f"{_USER_PREFIX}{uid}"
                bits = [
                    self._decisions.pop(f"{label}/bit{position:03d}")
                    for position in range(BID_BIT_LENGTH)
                ]
                self._decisions[label] = UserBid(uid, *bits_to_bid(bits))
        self._assemble()

    # -- assembly ---------------------------------------------------------------------
    def _assemble(self) -> None:
        """Complete with the agreed bid vector of the decided values.

        The vector is a pure function of the decisions and the expected ids, so
        it is built once per decided *object*: honest providers of a batched
        round hold the same :class:`~repro.net.serialization.FrozenMap` and
        complete with the same vector.  Any other view — a majority decision,
        a deviant's own container, the faithful modes' merged dict — is
        another object and builds its own.
        """
        if self.done:
            return
        vectors = getattr(self._decisions, DERIVED_ATTR, None)
        if vectors is None:
            vectors = memoise(self._decisions, DERIVED_ATTR, {})
        key = (tuple(self.expected_users), tuple(self.expected_providers))
        bids = vectors.get(key)
        shared = bids is not None
        if not shared:
            # Builders racing on one table adopt the first's vector (the barrier
            # test in tests/core/test_shared_agreement.py races them).
            bids = vectors.setdefault(key, self._build_vector())
        obs = current_observation()
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("core.assemblies").inc()
            obs.metrics.counter("core.assemblies_shared").inc(shared)
        self.complete(bids)

    def _build_vector(self) -> BidVector:
        """Apply the validity rule of §4.1 to every decided value."""
        users = []
        for uid in self.expected_users:
            decided = self._decisions.get(f"{_USER_PREFIX}{uid}")
            users.append(coerce_user_bid(uid, decided))
        providers = []
        for pid in self.expected_providers:
            decided = self._decisions.get(f"{_ASK_PREFIX}{pid}")
            if is_valid_provider_ask(decided) and decided.provider_id == pid:
                providers.append(decided)
            else:
                providers.append(neutral_provider_ask(pid))
        return BidVector(tuple(users), tuple(providers))
