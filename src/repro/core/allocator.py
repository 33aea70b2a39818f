"""Allocator blocks: simulate the allocation algorithm ``A`` (Property 2 of the paper).

Two implementations are provided, matching the two regimes the paper evaluates:

* :class:`SequentialAllocatorBlock` — input validation (a
  :class:`~repro.core.data_transfer.DataTransferBlock` of the vector's digest
  from every provider to every provider), one common-coin invocation to
  agree on the random seed (skipped when ``A`` is deterministic), then every
  provider runs ``A`` locally on the agreed input.  This is the right choice when
  ``A`` is cheap (the double auction of §5.2.1): the framework's overhead is pure
  coordination, which is exactly what Figure 4 measures.

* :class:`ParallelAllocatorBlock` — the parallel allocator framework of §4.2
  (Figure 3) running Algorithm 1: after input validation and the common coin, every
  provider computes the allocation, each group of at least ``k + 1`` providers
  computes the payments of its share of the users, the payments move between groups
  through :class:`~repro.core.data_transfer.DataTransferBlock` instances, and every
  provider assembles the output pair (x, p).  This is what makes the expensive
  standard auction of §5.2.2 scale (Figure 5).

Both blocks share :class:`SeededAllocatorBlock`'s validate-then-seed prefix and
output either an :class:`~repro.auctions.base.AuctionResult` or ⊥.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.auctions.base import Allocation, AllocationAlgorithm, BidVector
from repro.auctions.decomposable import DecomposableMechanism
from repro.common import ABORT, is_abort, memoise
from repro.core.common_coin import CommonCoinBlock
from repro.core.data_transfer import DataTransferBlock
from repro.net.protocol import TAG_SEPARATOR, BlockContext, ProtocolBlock
from repro.net.serialization import Digest, estimate_size
from repro.obs.context import current_observation

__all__ = [
    "SequentialAllocatorBlock",
    "ParallelAllocatorBlock",
    "assign_provider_groups",
    "partition_users",
    "transfer_messages",
    "validation_bytes",
    "validation_messages",
]

#: Where a bid vector keeps the results of the mechanisms run on it by
#: :class:`SequentialAllocatorBlock`: ``(mechanism, seed) -> result``, the seed
#: ``None`` for a mechanism that never draws from its RNG.
_RESULTS_ATTR = "_repro_results"


# -- provider grouping and user partitioning -------------------------------------------
def assign_provider_groups(
    providers: Sequence[str], k: int, num_groups: Optional[int] = None
) -> List[List[str]]:
    """Partition providers into ``c`` groups of at least ``k + 1`` members each.

    The maximum level of parallelism is ``p = ⌊m / (k + 1)⌋`` (Section 6); fewer
    groups may be requested.  Providers are assigned contiguously in sorted-id order,
    with any remainder spread over the first groups.
    """
    ordered = sorted(providers)
    m = len(ordered)
    if k < 0:
        raise ValueError("k must be non-negative")
    max_groups = m // (k + 1)
    if max_groups < 1:
        raise ValueError(f"need at least k+1={k + 1} providers, have {m}")
    c = max_groups if num_groups is None else num_groups
    if c < 1 or c > max_groups:
        raise ValueError(f"num_groups must be in [1, {max_groups}], got {c}")
    base, extra = divmod(m, c)
    groups: List[List[str]] = []
    cursor = 0
    for index in range(c):
        size = base + (1 if index < extra else 0)
        groups.append(ordered[cursor : cursor + size])
        cursor += size
    return groups


def partition_users(user_ids: Sequence[str], num_groups: int) -> List[List[str]]:
    """Split users into ``num_groups`` balanced chunks (some possibly empty).

    Users are dealt round-robin by sorted id, so the chunks differ by at most one
    *user*.  They do not balance *winners*, although a payment task's cost is one
    re-solve per winner: on Figure 5's n = 125 point, p = 4's chunks hold 5, 12, 9
    and 6 of the 32 winners (ROADMAP item 15).
    """
    ordered = sorted(user_ids)
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    chunks: List[List[str]] = [[] for _ in range(num_groups)]
    for index, user_id in enumerate(ordered):
        chunks[index % num_groups].append(user_id)
    return chunks


def transfer_messages(groups: Sequence[Sequence[str]]) -> int:
    """Messages of an honest parallel allocator's data transfers (§4.2, Property 5).

    Each group ``G_g`` sends its payments to the ``m − |G_g|`` providers outside
    it: ``Σ_g |G_g|·(m − |G_g|)``, none when one group holds everyone.
    """
    m = sum(len(group) for group in groups)
    return sum(len(group) * (m - len(group)) for group in groups)


def validation_messages(m: int) -> int:
    """Messages of an honest input validation of ``m`` providers (Property 3): one digest each."""
    return m * (m - 1)


def validation_bytes(m: int) -> int:
    """Bytes of an honest input validation of ``m`` providers, tags included.

    Each message is the vector's :class:`~repro.net.serialization.Digest`
    under the framework's ``framework/alloc/iv`` transfer tag: 68 bytes.
    """
    tag = f"framework/alloc/iv{TAG_SEPARATOR}{DataTransferBlock.VALUE}"
    return validation_messages(m) * estimate_size((tag, Digest(None)))


class SeededAllocatorBlock(ProtocolBlock):
    """Validate the agreed vector, agree on a seed, then run :meth:`_execute` on it.

    The seed is agreed through the common coin exactly when ``algorithm``
    declares ``randomized = True``; an algorithm that reads no seed runs on
    the fixed seed 0, since the coin would only cost ``2·m·(m−1)`` messages
    and two hops.

    Args:
        name: block name.
        bids: the agreed bid vector (output of the bid agreement).
        algorithm: the allocation algorithm ``A`` (for the parallel allocator,
            its allocation / payments / assemble split).
        round_timeout: per-round virtual-time budget forwarded to the child
            blocks (validation clears on a partial, consistent view, the coin
            outputs ⊥); ``None`` waits forever.
    """

    def __init__(
        self,
        name: str,
        bids: BidVector,
        algorithm: AllocationAlgorithm,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.bids = bids
        self.algorithm = algorithm
        self.round_timeout = round_timeout
        self._ctx: Optional[BlockContext] = None

    @abc.abstractmethod
    def _execute(self, seed: int) -> None:
        """Run ``A`` on the agreed vector and seed, and complete with its output."""

    def on_start(self, ctx: BlockContext) -> None:
        self._ctx = ctx
        # Input validation (Property 3) is a data transfer of the vector's
        # digest from every provider to every provider: two differ, ⊥.
        everyone = ctx.participants
        ctx.spawn(
            "iv",
            DataTransferBlock(
                "iv",
                everyone,
                everyone,
                my_value=Digest(self.bids),
                round_timeout=self.round_timeout,
            ),
            self._on_iv_done,
        )

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        return None  # all traffic flows through the child blocks

    # -- chaining ------------------------------------------------------------------
    def _on_iv_done(self, block: ProtocolBlock) -> None:
        if is_abort(block.result):
            self.complete(ABORT)
            return
        if self.algorithm.randomized:
            assert self._ctx is not None
            self._ctx.spawn(
                "coin",
                CommonCoinBlock("coin", round_timeout=self.round_timeout),
                self._on_coin_done,
            )
        else:
            self._execute(seed=0)

    def _on_coin_done(self, block: ProtocolBlock) -> None:
        if is_abort(block.result):
            self.complete(ABORT)
            return
        self._execute(seed=block.result)


class SequentialAllocatorBlock(SeededAllocatorBlock):
    """Validate inputs, agree on a seed, then run ``A`` locally at every provider.

    Args: see :class:`SeededAllocatorBlock`.
    """

    def _execute(self, seed: int) -> None:
        """Complete with ``A(bids, seed)``, computed by the first provider to ask.

        ``A`` is a deterministic function of the agreed vector and the agreed
        seed, so providers holding the same vector *object* and running the same
        mechanism *object* read one execution.  A mechanism that declares
        ``randomized = False`` ignores the seed, so it is left out of the key:
        rounds that share the vector but drew different coins read one
        execution too.  The memo sits here, on the vector, and not in ``run``:
        whoever calls the mechanism directly — the trusted-auctioneer baseline a
        round is checked against — computes.
        """
        results = getattr(self.bids, _RESULTS_ATTR, None)
        if results is None:
            results = memoise(self.bids, _RESULTS_ATTR, {})
        key = (self.algorithm, seed if self.algorithm.randomized else None)
        result = results.get(key)
        shared = result is not None
        if not shared:
            # Executions racing on one table adopt the first's result (the barrier
            # test in tests/core/test_shared_agreement.py races them).
            result = results.setdefault(
                key, self.algorithm.run(self.bids, random.Random(seed))
            )
        obs = current_observation()
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("core.executions").inc()
            obs.metrics.counter("core.executions_shared").inc(shared)
        self.complete(result)


class ParallelAllocatorBlock(SeededAllocatorBlock):
    """Run Algorithm 1 over provider groups (§4.2, Figure 3).

    Every provider solves the allocation.  Group ``g`` computes the payments of
    the ``g``-th chunk of users (:func:`partition_users`) and ships them through a
    ``dt:pay/<g>`` :class:`~repro.core.data_transfer.DataTransferBlock` to every
    provider outside it.  Every provider then merges the ``p`` payment maps in
    group order and assembles the output pair (x, p).

    Args:
        name: block name.
        bids: the agreed bid vector.
        algorithm: the allocation / payments / assemble split of ``A``.
        groups: the provider groups (:func:`assign_provider_groups`): at least
            ``k + 1`` providers each, every provider in exactly one.
        round_timeout: see :class:`SeededAllocatorBlock`; every step derives
            its randomness from the one agreed seed.
    """

    def __init__(
        self,
        name: str,
        bids: BidVector,
        algorithm: DecomposableMechanism,
        groups: Sequence[Sequence[str]],
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name, bids, algorithm, round_timeout)
        self.groups = [list(group) for group in groups]
        self._everyone = sorted(p for group in self.groups for p in group)
        self._seed: int = 0
        self._mine: int = 0
        self._allocation: Optional[Tuple[Allocation, float]] = None
        self._payments: Dict[int, Dict[str, float]] = {}

    def _execute(self, seed: int) -> None:
        assert self._ctx is not None
        # Derive the task seed the same way AllocationAlgorithm.run derives its
        # internal seed from an RNG seeded with the coin value, so the sequential and
        # parallel allocators produce bit-identical results for the same coin.
        self._seed = random.Random(seed).getrandbits(63)
        me = self._ctx.node_id
        self._mine = next(g for g, group in enumerate(self.groups) if me in group)
        # Receive every other group's payments.  Activating early is safe: traffic
        # that arrives before the senders are ready is buffered by the block host.
        for g in range(len(self.groups)):
            if self.done:
                return
            if g != self._mine:
                self._spawn_transfer(g)
        self._progress()

    def _spawn_transfer(self, g: int, **my_value: Any) -> None:
        assert self._ctx is not None
        senders = self.groups[g]
        receivers = [p for p in self._everyone if p not in senders]
        name = f"dt:pay/{g}"

        def on_done(block: ProtocolBlock) -> None:
            if self.done:
                return
            if is_abort(block.result):
                self.complete(ABORT)
                return
            self._payments.setdefault(g, block.result)
            self._progress()

        self._ctx.spawn(
            name,
            DataTransferBlock(
                name, senders, receivers, round_timeout=self.round_timeout, **my_value
            ),
            on_done,
            participants=self._everyone,
        )

    def _progress(self) -> None:
        """Take Algorithm 1 as far as the payments in hand allow.

        Re-entrant: a transfer spawned here can complete inside ``spawn`` (the
        host replays buffered traffic on activation) and call back in.
        """
        if self.done:
            return
        if self._allocation is None:
            self._allocation = self.algorithm.solve_allocation(self.bids, self._seed)
        allocation, welfare = self._allocation
        if self._mine not in self._payments:
            users = partition_users(self.bids.user_ids, len(self.groups))[self._mine]
            own = self.algorithm.payments_for_users(
                self.bids, users, allocation, welfare, self._seed
            )
            # Stored before the send, so a re-entrant call sees it.
            self._payments[self._mine] = own
            if len(self.groups[self._mine]) < len(self._everyone):
                self._spawn_transfer(self._mine, my_value=own)
        if self.done or len(self._payments) < len(self.groups):
            return
        merged: Dict[str, float] = {}
        for g in range(len(self.groups)):
            merged.update(self._payments[g])
        self.complete(self.algorithm.assemble(self.bids, allocation, merged))
