"""Bid agreement block (Property 1 of the paper).

Every bidder is expected to submit its bid to *all* providers, but bidders may be
faulty or malicious: they can send different bids to different providers, send
garbage, or send nothing.  Before the allocation algorithm can be simulated, the
providers must therefore agree on a single vector of bids such that

* **eventual agreement** — all providers output the same vector, and
* **validity** — a bidder that sent the same bid to every provider sees exactly that
  bid in the agreed vector.

The paper implements this on top of the rational consensus of Afek et al., one binary
consensus instance per bit of a per-bidder bit stream.  This block supports that
faithful mode (``per_bit``), a per-bidder mode (one consensus instance per bidder,
``per_label``), and a batched mode (``batched``, the default) in which all instances
share two broadcast/echo rounds — the message pattern a real deployment uses, and the
one the benchmark harness exercises.  All three modes produce identical outputs when
they terminate.

Whatever a bidder's misbehaviour, the agreed value for it is post-processed by the
validity rule of §4.1: an invalid or missing bid is replaced by a pre-determined
neutral bid that excludes the bidder from the auction.

In the double auction the providers are bidders too (they submit asks); their asks
travel through the same agreement under ``ask:`` labels.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.validation import (
    coerce_user_bid,
    is_valid_provider_ask,
    neutral_provider_ask,
    neutral_user_bid,
)
from repro.common import ABORT, is_abort, memoise
from repro.consensus.bit_encoding import BID_BIT_LENGTH, bid_to_bits, bits_to_bid
from repro.consensus.multi_consensus import BatchedConsensusBlock
from repro.consensus.rational_consensus import BinaryConsensusBlock, RationalConsensusBlock
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.net.serialization import DERIVED_ATTR
from repro.obs.context import current_observation

__all__ = ["BidAgreementBlock", "AGREEMENT_MODES"]

AGREEMENT_MODES = ("batched", "per_label", "per_bit")

_USER_PREFIX = "user:"
_ASK_PREFIX = "ask:"


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
        round_timeout: per-round virtual-time budget for the batched mode (see
            :class:`~repro.consensus.multi_consensus.BatchedConsensusBlock`);
            ignored by the faithful per-label/per-bit modes.
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
        #: True when the underlying consensus closed a round on a partial quorum.
        self.degraded = False
        self.expected_users = sorted(expected_users)
        self.expected_providers = sorted(expected_providers)
        self.received_user_bids = dict(received_user_bids)
        self.received_provider_asks = dict(received_provider_asks)
        self._decisions: Dict[str, Any] = {}
        self._pending = 0

    # -- label helpers -------------------------------------------------------------
    def _labels(self) -> List[str]:
        return [f"{_USER_PREFIX}{uid}" for uid in self.expected_users] + [
            f"{_ASK_PREFIX}{pid}" for pid in self.expected_providers
        ]

    def _my_inputs(self) -> Dict[str, Any]:
        inputs: Dict[str, Any] = {}
        for uid in self.expected_users:
            inputs[f"{_USER_PREFIX}{uid}"] = self.received_user_bids.get(uid)
        for pid in self.expected_providers:
            inputs[f"{_ASK_PREFIX}{pid}"] = self.received_provider_asks.get(pid)
        return inputs

    # -- protocol -------------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        if self.mode == "batched":
            ctx.spawn(
                "batch",
                BatchedConsensusBlock(
                    "batch",
                    self._my_inputs(),
                    labels=self._labels(),
                    round_timeout=self.round_timeout,
                ),
                self._on_batch_done,
            )
        elif self.mode == "per_label":
            inputs = self._my_inputs()
            self._pending = len(inputs)
            for label, value in sorted(inputs.items()):
                ctx.spawn(
                    label,
                    RationalConsensusBlock(label, value),
                    self._make_label_callback(label),
                )
        else:  # per_bit
            self._start_per_bit(ctx)

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        # All traffic flows through child blocks; nothing is addressed to this block
        # directly.
        return None

    # -- batched mode -----------------------------------------------------------------
    def _on_batch_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        if is_abort(block.result):
            self.complete(ABORT)
            return
        self._decisions = block.result
        self._assemble()

    # -- per-label mode -----------------------------------------------------------------
    def _make_label_callback(self, label: str):
        def callback(block: ProtocolBlock) -> None:
            if self.done:
                return
            if is_abort(block.result):
                self.complete(ABORT)
                return
            self._decisions[label] = block.result
            self._pending -= 1
            if self._pending == 0:
                self._assemble()

        return callback

    # -- per-bit mode -----------------------------------------------------------------
    def _start_per_bit(self, ctx: BlockContext) -> None:
        """One binary consensus instance per bit of each user bid (§4.1, faithful mode).

        Provider asks still go through per-label consensus: the paper's bit-stream
        construction targets the (user) bidders, whose bids are the adversarial
        input, while the ask of a provider is that provider's own protocol input.
        """
        self._bit_results: Dict[str, List[Optional[int]]] = {}
        # Set the pending counter *before* spawning: a child block can complete
        # synchronously during activation (its peers' traffic may already be
        # buffered), and its callback decrements the counter.
        self._pending = len(self.expected_users) * BID_BIT_LENGTH + len(self.expected_providers)
        for uid in self.expected_users:
            received = self.received_user_bids.get(uid)
            bid = coerce_user_bid(uid, received)
            bits = bid_to_bits(bid.unit_value, bid.demand)
            self._bit_results[uid] = [None] * BID_BIT_LENGTH
            for position, bit in enumerate(bits):
                if self.done:
                    return
                block_name = f"{_USER_PREFIX}{uid}/bit{position:03d}"
                ctx.spawn(
                    block_name,
                    BinaryConsensusBlock(block_name, bit),
                    self._make_bit_callback(uid, position),
                )
        for pid in self.expected_providers:
            if self.done:
                return
            label = f"{_ASK_PREFIX}{pid}"
            ctx.spawn(
                label,
                RationalConsensusBlock(label, self.received_provider_asks.get(pid)),
                self._make_label_callback(label),
            )

    def _make_bit_callback(self, uid: str, position: int):
        def callback(block: ProtocolBlock) -> None:
            if self.done:
                return
            if is_abort(block.result):
                self.complete(ABORT)
                return
            self._bit_results[uid][position] = block.result
            self._pending -= 1
            if all(b is not None for b in self._bit_results[uid]):
                unit_value, demand = bits_to_bid(self._bit_results[uid])
                self._decisions[f"{_USER_PREFIX}{uid}"] = UserBid(uid, unit_value, demand)
            if self._pending == 0:
                self._assemble()

        return callback

    # -- assembly ---------------------------------------------------------------------
    def _assemble(self) -> None:
        """Complete with the agreed bid vector of the decided values.

        The vector is a pure function of the decisions and the expected ids, so
        it is built once per decided *object*: honest providers of a batched
        round hold the same :class:`~repro.net.serialization.FrozenMap` and
        complete with the same vector.  Any other view — a majority decision,
        a deviant's own container, the per-label modes' plain dict — is
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
            # Builders racing on one table (ThreadedNetwork) adopt the first's vector.
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
