"""Bid agreement block (Property 1 of the paper).

Every bidder is expected to submit its bid to *all* providers, but bidders may be
faulty or malicious: they can send different bids to different providers, send
garbage, or send nothing.  Before the allocation algorithm can be simulated, the
providers must therefore agree on a single vector of bids such that

* **eventual agreement** — all providers output the same vector, and
* **validity** — a bidder that sent the same bid to every provider sees exactly that
  bid in the agreed vector.

The paper implements this on top of the rational consensus of Afek et al., one binary
consensus instance per bit of a fixed 128-bit stream per bidder.  The agreement runs
every instance in one :class:`~repro.consensus.multi_consensus.BatchedConsensusBlock`
named ``batch``: its input is a :class:`~repro.net.serialization.LabelBatch` that
carries each well-formed bid as exactly those 128 bits (its two float64s), and all the
instances share one broadcast/echo pair.  The block honours ``round_timeout``.

Whatever a bidder's misbehaviour, the agreed value for it is post-processed by the
validity rule of §4.1: an invalid or missing bid is replaced by a pre-determined
neutral bid that excludes the bidder from the auction.

In the double auction the providers are bidders too (they submit asks); their asks
travel through the same agreement under ``ask:`` labels.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.validation import (
    coerce_user_bid,
    is_valid_provider_ask,
    neutral_provider_ask,
)
from repro.common import ABORT, is_abort, memoise
from repro.consensus.multi_consensus import (
    BatchedConsensusBlock,
    LabelSet,
    digest_echo,
    label_set,
)
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.net.serialization import (
    DERIVED_ATTR,
    FROZEN_MAPS,
    LabelBatch,
    estimate_size,
)
from repro.obs.context import current_observation

__all__ = [
    "BidAgreementBlock",
    "agreement_batch",
    "agreement_bytes",
    "agreement_messages",
]

_USER_PREFIX = "user:"
_ASK_PREFIX = "ask:"
#: What a well-formed batch entry is, in the order its wire marker names them.
_RECORDS = (UserBid, ProviderAsk)


def _kept_or_copied(mapping: Mapping[str, Any]) -> Mapping[str, Any]:
    """``mapping`` itself if nobody can change it, else a copy of one's own.

    Exact types only, as for the batched block's received batches: the honest
    maps of ``DistributedAuctioneer.run_from_bids`` are shared by reference,
    anything else — a caller's dict, a deviant's forged view — is copied.
    """
    return mapping if type(mapping) in FROZEN_MAPS else dict(mapping)


def agreement_messages(m: int) -> int:
    """Messages of an honest batched agreement of ``m`` providers (§4.1): value + echo."""
    return 2 * m * (m - 1)


def agreement_batch(
    user_bids: Mapping[str, Any],
    provider_asks: Mapping[str, Any],
    users: Sequence[str],
    providers: Sequence[str],
) -> LabelBatch:
    """The batch a provider puts to the agreement: its received bid per user, ask per provider.

    A :class:`~repro.net.serialization.LabelBatch` over the ``user:<id>`` and
    ``ask:<id>`` labels, so a bid or ask received intact travels as its two
    floats: ``36 + 4 + 17·(n + a)`` bytes for ``n`` users and ``a`` asks.
    """
    batch: Dict[str, Any] = {}
    for uid in users:
        batch[f"{_USER_PREFIX}{uid}"] = user_bids.get(uid)
    for pid in providers:
        batch[f"{_ASK_PREFIX}{pid}"] = provider_asks.get(pid)
    return LabelBatch(batch, _RECORDS)


def agreement_bytes(batch: Mapping[str, Any], providers: Sequence[str]) -> int:
    """Payload bytes of an honest batched agreement of ``providers`` on ``batch`` (§4.1).

    Each of the ``m`` providers sends ``batch``, then an echo of ``m`` digests,
    to its ``m − 1`` peers: ``m·(m−1)·(|batch| + |echo|)``.  The value term
    grows with the batch (17 bytes a well-formed entry of an
    :func:`agreement_batch`), the echo term only with ``m``.  Every message
    adds its tag to these bytes.
    """
    m = len(providers)
    echo = digest_echo(dict.fromkeys(providers, batch))
    return m * (m - 1) * (estimate_size(batch) + estimate_size(echo))


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
        round_timeout: per-round virtual-time budget of the consensus block
            (see :class:`~repro.consensus.multi_consensus.BatchedConsensusBlock`).
    """

    def __init__(
        self,
        name: str,
        expected_users: Sequence[str],
        expected_providers: Sequence[str],
        received_user_bids: Mapping[str, Any],
        received_provider_asks: Mapping[str, Any],
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.round_timeout = round_timeout
        self.expected_users = sorted(expected_users)
        self.expected_providers = sorted(expected_providers)
        self.received_user_bids = _kept_or_copied(received_user_bids)
        self.received_provider_asks = _kept_or_copied(received_provider_asks)
        self._decisions: Mapping[str, Any] = {}

    # -- label helpers -------------------------------------------------------------
    def _labels(self) -> List[str]:
        return [f"{_USER_PREFIX}{uid}" for uid in self.expected_users] + [
            f"{_ASK_PREFIX}{pid}" for pid in self.expected_providers
        ]

    def _my_inputs(self) -> LabelBatch:
        """This provider's label-keyed batch: its input to the consensus."""
        return self._shared_input()[0]

    def _shared_input(self) -> Tuple[LabelBatch, LabelSet]:
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

    def _build_batch(self) -> LabelBatch:
        return agreement_batch(
            self.received_user_bids,
            self.received_provider_asks,
            self.expected_users,
            self.expected_providers,
        )

    # -- protocol -------------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        batch, labels = self._shared_input()
        ctx.spawn(
            "batch",
            BatchedConsensusBlock("batch", batch, labels=labels, round_timeout=self.round_timeout),
            self._on_decided,
        )

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        # All traffic flows through the child block; nothing is addressed to this
        # block directly.
        return None

    def _on_decided(self, block: ProtocolBlock) -> None:
        """The consensus block decided: adopt its decision as it is and assemble.

        Honest providers decide one object and share what ``_assemble``
        derives from it.
        """
        if self.done:
            return
        if is_abort(block.result):
            self.complete(ABORT)
            return
        self._decisions = block.result
        self._assemble()

    # -- assembly ---------------------------------------------------------------------
    def _assemble(self) -> None:
        """Complete with the agreed bid vector of the decided values.

        The vector is a pure function of the decisions and the expected ids, so
        it is built once per decided *object*: honest providers of a batched
        round hold the same :class:`~repro.net.serialization.FrozenMap` and
        complete with the same vector.  Any other view — a majority decision,
        a deviant's own container — is another object and builds its own.
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
