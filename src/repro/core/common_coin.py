"""Common coin block (Property 4 of the paper).

Whenever the allocation algorithm needs a random number distributed according to some
distribution Π, the providers invoke the common coin with input Π.  The implementation
follows the scheme of Abraham, Dolev and Halpern the paper points to:

1. every provider j draws a random number ``r_j ∈ [0, 1)`` and broadcasts a hash
   *commitment* to it — before learning anyone else's number;
2. once a provider holds commitments from everyone, it *reveals* ``r_j`` (value and
   nonce);
3. the combined uniform sample is ``sum_j r_j mod 1``; each provider applies Π's
   inverse-CDF transform to it and outputs the result.

If any provider reveals a value outside [0, 1), a value inconsistent with its
commitment, or equivocates, the block outputs ⊥.  As long as at least one participant
outside the coalition draws its number honestly at random, the sum modulo 1 is uniform
and no coalition of size < m can bias it — it can only force ⊥, which solution
preference makes unattractive.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.common import ABORT
from repro.consensus.commitment import Commitment, CommitmentScheme
from repro.core.distributions import Distribution, UniformDistribution
from repro.net.protocol import BlockContext, ProtocolBlock

__all__ = ["CommonCoinBlock", "coin_messages"]


def coin_messages(m: int) -> int:
    """Messages of an honest coin of ``m`` providers (Property 4): commit + reveal."""
    return 2 * m * (m - 1)


class CommonCoinBlock(ProtocolBlock):
    """Commit–reveal shared randomness transformed to a target distribution Π.

    ``round_timeout`` bounds each round in virtual time.  A coin round that
    times out completes with ⊥ rather than a partial sum: two sides of a
    partition would combine different reveal subsets into *different* "shared"
    values, which is worse than no value — randomness is the one building block
    that cannot degrade gracefully.  The timeout still guarantees termination,
    and :attr:`degraded` records why the coin failed.
    """

    COMMIT = "commit"
    REVEAL = "reveal"
    TIMER_COMMIT = "round/commit"
    TIMER_REVEAL = "round/reveal"

    def __init__(
        self,
        name: str,
        distribution: Distribution | None = None,
        round_timeout: float | None = None,
    ) -> None:
        super().__init__(name)
        self.distribution = distribution if distribution is not None else UniformDistribution()
        self.round_timeout = round_timeout
        self._my_value: float = 0.0
        self._my_nonce: bytes = b""
        self._commitments: Dict[str, Commitment] = {}
        self._reveals: Dict[str, float] = {}
        self._pending_reveals: Dict[str, Any] = {}
        self._revealed = False

    # -- protocol ------------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        self._my_value = ctx.rng.random()
        commitment, nonce = CommitmentScheme.commit(self._my_value, ctx.rng)
        self._my_nonce = nonce
        self._commitments[ctx.node_id] = commitment
        ctx.broadcast(commitment.digest, subtag=self.COMMIT)
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_COMMIT)
        self._maybe_reveal(ctx)

    def on_timer(self, ctx: BlockContext, subtag: str) -> None:
        if self.done:
            return
        if (subtag == self.TIMER_COMMIT and not self._revealed) or (
            subtag == self.TIMER_REVEAL and self._revealed
        ):
            self.degraded = True
            self.complete(ABORT)

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        if self.done or sender not in ctx.participants:
            return
        if subtag == self.COMMIT:
            self._on_commit(ctx, sender, payload)
        elif subtag == self.REVEAL:
            self._on_reveal(ctx, sender, payload)

    # -- rounds -------------------------------------------------------------------
    def _on_commit(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        if not isinstance(payload, str):
            self.complete(ABORT)
            return
        if sender in self._commitments:
            if self._commitments[sender].digest != payload:
                self.complete(ABORT)
            return
        self._commitments[sender] = Commitment(payload)
        if sender in self._pending_reveals:
            # A reveal raced ahead of its commit (asynchrony); process it now.
            self._on_reveal(ctx, sender, self._pending_reveals.pop(sender))
            if self.done:
                return
        self._maybe_reveal(ctx)

    def _maybe_reveal(self, ctx: BlockContext) -> None:
        if self._revealed or self.done:
            return
        if set(self._commitments) != set(ctx.participants):
            return
        self._revealed = True
        ctx.broadcast((self._my_value, self._my_nonce), subtag=self.REVEAL)
        self._reveals[ctx.node_id] = self._my_value
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_REVEAL)
        self._maybe_finish(ctx)

    def _on_reveal(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        commitment = self._commitments.get(sender)
        if commitment is None:
            # The reveal overtook its commit on the wire (channels are reliable but
            # not ordered).  Buffer it; it is re-processed when the commit arrives.
            self._pending_reveals[sender] = payload
            return
        try:
            value, nonce = payload
        except (TypeError, ValueError):
            self.complete(ABORT)
            return
        if not isinstance(value, float) or not 0.0 <= value < 1.0:
            self.complete(ABORT)
            return
        if not commitment.verify(value, bytes(nonce)):
            self.complete(ABORT)
            return
        if sender in self._reveals:
            if self._reveals[sender] != value:
                self.complete(ABORT)
            return
        self._reveals[sender] = value
        self._maybe_finish(ctx)

    def _maybe_finish(self, ctx: BlockContext) -> None:
        if self.done or not self._revealed:
            return
        if set(self._reveals) != set(ctx.participants):
            return
        # Sum in provider-id order: floating-point addition is not associative, so a
        # per-provider insertion order would let clocks (not values) change the result.
        combined = sum(self._reveals[pid] for pid in sorted(self._reveals)) % 1.0
        # Guard against floating-point summation landing exactly on 1.0.
        if combined >= 1.0:
            combined = 0.0
        self.complete(self.distribution.transform(combined))
