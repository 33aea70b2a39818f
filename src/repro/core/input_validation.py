"""Input validation block (Property 3 of the paper).

Before the providers simulate the allocation algorithm, they must make sure they are
all starting from the same input vector; otherwise a coalition could feed a doctored
vector to part of the simulation.  The implementation is the simple one the paper
suggests: every provider broadcasts (a digest of) its input vector and outputs ⊥ as
soon as it sees two different vectors; if all inputs match, the block outputs the
input unchanged.

Broadcasting a SHA-256 digest instead of the full vector keeps the message size
constant — the full vectors were already exchanged during bid agreement — without
weakening the detection property in the rational (non-cryptanalytic) threat model.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common import ABORT, memoise
from repro.consensus.commitment import CommitmentScheme
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.net.serialization import deep_immutable
from repro.obs.context import current_observation

__all__ = ["InputValidationBlock", "validation_messages"]

#: Where a deep-immutable input keeps its validation digest (64 hex characters).
_DIGEST_ATTR = "_repro_validation_digest"


def validation_messages(m: int) -> int:
    """Messages of an honest validation of ``m`` providers (Property 3): one digest each."""
    return m * (m - 1)


class InputValidationBlock(ProtocolBlock):
    """Broadcast-and-compare validation of the allocator's input vector.

    Args:
        name: block name.
        my_input: this provider's input (any canonically-encodable value).
        full_broadcast: if True, send the full input instead of its digest.  The
            digest mode is the default because it is what a deployment would do; the
            full mode is useful in tests that want to inspect traffic.
        round_timeout: virtual-time budget for the announce round (``None``
            waits forever).  On timeout the cross-check clears with the
            announcements received — a partial check, flagged via
            :attr:`degraded`; any conflict among them is still ⊥.
    """

    ANNOUNCE = "announce"
    TIMER_ANNOUNCE = "round/announce"
    _FIXED_NONCE = b"input-validation"

    def __init__(
        self,
        name: str,
        my_input: Any,
        full_broadcast: bool = False,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.my_input = my_input
        self.full_broadcast = full_broadcast
        self.round_timeout = round_timeout
        self._received: Dict[str, Any] = {}

    # -- helpers ------------------------------------------------------------------
    def _fingerprint(self, value: Any) -> Any:
        """The announcement: ``value`` itself, or its digest.

        The digest depends on the contents alone, so a deep-immutable value
        keeps it (:func:`~repro.net.serialization.deep_immutable`, the gate of
        the codec's size memo): the honest providers of a round — and the
        rounds of one instance — hold one agreed vector and digest it once.
        Any other object, a forged or copied view included, digests its own.
        """
        if self.full_broadcast:
            return value
        kept = deep_immutable(value)
        digest = getattr(value, _DIGEST_ATTR, None) if kept else None
        shared = digest is not None
        if not shared:
            digest = CommitmentScheme.digest_of(value, self._FIXED_NONCE)
            if kept:
                memoise(value, _DIGEST_ATTR, digest)
        obs = current_observation()
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("core.validations").inc()
            obs.metrics.counter("core.validations_shared").inc(shared)
        return digest

    # -- protocol -----------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        fingerprint = self._fingerprint(self.my_input)
        self._received[ctx.node_id] = fingerprint
        ctx.broadcast(fingerprint, subtag=self.ANNOUNCE)
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_ANNOUNCE)
        self._maybe_finish(ctx)

    def on_timer(self, ctx: BlockContext, subtag: str) -> None:
        if self.done or subtag != self.TIMER_ANNOUNCE:
            return
        # Announce round out of budget: clear with the received cross-checks.
        # Everything received already matched our own fingerprint (a mismatch
        # completes with ⊥ on arrival), so the partial check passes.
        self.degraded = True
        self.complete(self.my_input)

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        if self.done or subtag != self.ANNOUNCE or sender not in ctx.participants:
            return
        if sender in self._received:
            if self._received[sender] != payload:
                self.complete(ABORT)
            return
        self._received[sender] = payload
        if payload != self._received[ctx.node_id]:
            # Two providers hold different inputs: both must output ⊥ (condition (1)
            # of Property 3), which punishes whoever forged its vector upstream.
            self.complete(ABORT)
            return
        self._maybe_finish(ctx)

    def _maybe_finish(self, ctx: BlockContext) -> None:
        if self.done:
            return
        if set(self._received) != set(ctx.participants):
            return
        mine = self._received[ctx.node_id]
        if all(value == mine for value in self._received.values()):
            self.complete(self.my_input)
        else:
            self.complete(ABORT)
