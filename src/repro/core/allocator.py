"""Allocator blocks: simulate the allocation algorithm ``A`` (Property 2 of the paper).

Two implementations are provided, matching the two regimes the paper evaluates:

* :class:`SequentialAllocatorBlock` — input validation, one common-coin invocation to
  agree on the random seed, then every provider runs ``A`` locally on the agreed
  input.  This is the right choice when ``A`` is cheap (the double auction of
  §5.2.1): the framework's overhead is pure coordination, which is exactly what
  Figure 4 measures.

* :class:`ParallelAllocatorBlock` — the parallel allocator framework of §4.2
  (Figure 3): after input validation and the common coin, the execution of ``A`` is
  decomposed into a :class:`~repro.core.task_graph.TaskGraph`; each task runs on a
  group of at least ``k + 1`` providers, results move between groups through
  :class:`~repro.core.data_transfer.DataTransferBlock` instances, and a final task
  executed by every provider assembles the output pair (x, p).  This is what makes
  the expensive standard auction of §5.2.2 scale (Figure 5).

Both blocks output either an :class:`~repro.auctions.base.AuctionResult` or ⊥.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set

from repro.auctions.base import AllocationAlgorithm, BidVector
from repro.common import ABORT, is_abort, memoise
from repro.core.common_coin import CommonCoinBlock
from repro.core.data_transfer import DataTransferBlock
from repro.core.distributions import SeedDistribution
from repro.core.input_validation import InputValidationBlock
from repro.core.task_graph import TaskGraph
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.obs.context import current_observation

__all__ = ["SequentialAllocatorBlock", "ParallelAllocatorBlock"]

#: Where a bid vector keeps the results of the mechanisms run on it by
#: :class:`SequentialAllocatorBlock`: ``(mechanism, seed) -> result``.
_RESULTS_ATTR = "_repro_results"


class SequentialAllocatorBlock(ProtocolBlock):
    """Validate inputs, agree on a seed, then run ``A`` locally at every provider.

    Args:
        name: block name.
        bids: the agreed bid vector (output of the bid agreement).
        algorithm: the allocation algorithm ``A``.
        use_common_coin: if True (default), agree on the seed through the common
            coin; if False, use a fixed seed of 0 (only sensible for deterministic
            algorithms — still correct, but skips one round of messages).
        round_timeout: per-round virtual-time budget forwarded to the child
            blocks (validation clears on a partial view, the coin outputs ⊥);
            ``None`` waits forever.
    """

    def __init__(
        self,
        name: str,
        bids: BidVector,
        algorithm: AllocationAlgorithm,
        use_common_coin: bool = True,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.bids = bids
        self.algorithm = algorithm
        self.use_common_coin = use_common_coin
        self.round_timeout = round_timeout
        #: True when a child block closed a round on a timeout quorum.
        self.degraded = False
        self._ctx: Optional[BlockContext] = None

    def on_start(self, ctx: BlockContext) -> None:
        self._ctx = ctx
        ctx.spawn(
            "iv",
            InputValidationBlock("iv", self.bids, round_timeout=self.round_timeout),
            self._on_iv_done,
        )

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        return None  # all traffic flows through the child blocks

    # -- chaining ------------------------------------------------------------------
    def _on_iv_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        if is_abort(block.result):
            self.complete(ABORT)
            return
        if self.use_common_coin:
            assert self._ctx is not None
            self._ctx.spawn(
                "coin",
                CommonCoinBlock(
                    "coin", SeedDistribution(), round_timeout=self.round_timeout
                ),
                self._on_coin_done,
            )
        else:
            self._execute(seed=0)

    def _on_coin_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        if is_abort(block.result):
            self.complete(ABORT)
            return
        self._execute(seed=int(block.result))

    def _execute(self, seed: int) -> None:
        """Complete with ``A(bids, seed)``, computed by the first provider to ask.

        ``A`` is a deterministic function of the agreed vector and the agreed
        seed, so providers holding the same vector *object* and running the same
        mechanism *object* read one execution.  The memo sits here, on the
        vector, and not in ``run``: whoever calls the mechanism directly — the
        trusted-auctioneer baseline a round is checked against — computes.
        """
        results = getattr(self.bids, _RESULTS_ATTR, None)
        if results is None:
            results = memoise(self.bids, _RESULTS_ATTR, {})
        key = (self.algorithm, seed)
        result = results.get(key)
        shared = result is not None
        if not shared:
            # Executions racing on one table (ThreadedNetwork) adopt the first's result.
            result = results.setdefault(
                key, self.algorithm.run(self.bids, random.Random(seed))
            )
        obs = current_observation()
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("core.executions").inc()
            obs.metrics.counter("core.executions_shared").inc(shared)
        self.complete(result)


class ParallelAllocatorBlock(ProtocolBlock):
    """Execute ``A`` as a task graph distributed over provider groups (Figure 3).

    Args:
        name: block name.
        bids: the agreed bid vector.
        graph: the task decomposition of ``A`` (see
            :func:`repro.core.task_graph.build_standard_auction_graph`).
        use_common_coin: if True (default), one common-coin invocation fixes the seed
            every task derives its randomness from.
        round_timeout: per-round virtual-time budget forwarded to the child
            blocks; ``None`` waits forever.
    """

    def __init__(
        self,
        name: str,
        bids: BidVector,
        graph: TaskGraph,
        use_common_coin: bool = True,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.bids = bids
        self.graph = graph
        self.use_common_coin = use_common_coin
        self.round_timeout = round_timeout
        #: True when a child block closed a round on a timeout quorum.
        self.degraded = False
        self._ctx: Optional[BlockContext] = None
        self._seed: int = 0
        self._values: Dict[str, Any] = {}
        self._computed: Set[str] = set()
        self._dt_spawned: Set[str] = set()
        # The graph is fixed once execution begins; both are taken once, there.
        self._order: List[str] = []
        self._receivers: Dict[str, List[str]] = {}

    # -- graph helpers ----------------------------------------------------------------
    def _receivers_of(self, task_name: str) -> List[str]:
        """Providers that need the result of ``task_name`` but do not compute it."""
        executors = set(self.graph.task(task_name).executors)
        needed_by: Set[str] = set()
        for successor in self.graph.successors(task_name):
            needed_by.update(successor.executors)
        return sorted(needed_by - executors)

    def _i_execute(self, task_name: str, node_id: str) -> bool:
        return node_id in self.graph.task(task_name).executors

    # -- protocol -----------------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        self._ctx = ctx
        ctx.spawn(
            "iv",
            InputValidationBlock("iv", self.bids, round_timeout=self.round_timeout),
            self._on_iv_done,
        )

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        return None  # all traffic flows through the child blocks

    def _on_iv_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        if is_abort(block.result):
            self.complete(ABORT)
            return
        assert self._ctx is not None
        if self.use_common_coin:
            self._ctx.spawn(
                "coin",
                CommonCoinBlock(
                    "coin", SeedDistribution(), round_timeout=self.round_timeout
                ),
                self._on_coin_done,
            )
        else:
            self._begin_execution(seed=0)

    def _on_coin_done(self, block: ProtocolBlock) -> None:
        if getattr(block, "degraded", False):
            self.degraded = True
        if is_abort(block.result):
            self.complete(ABORT)
            return
        self._begin_execution(seed=int(block.result))

    # -- task-graph execution -------------------------------------------------------------
    def _begin_execution(self, seed: int) -> None:
        assert self._ctx is not None
        # Derive the task seed the same way AllocationAlgorithm.run derives its
        # internal seed from an RNG seeded with the coin value, so the sequential and
        # parallel allocators produce bit-identical results for the same coin.
        self._seed = random.Random(seed).getrandbits(63)
        self._order = self.graph.topological_order()
        self._receivers = {name: self._receivers_of(name) for name in self._order}
        me = self._ctx.node_id
        # Register (as a receiver) for the transfers of every task whose result this
        # provider needs but does not compute.  Activating early is safe: traffic that
        # arrives before the senders are ready is buffered by the block host.
        for task_name in self._order:
            if self.done:
                return
            if me in self._receivers[task_name]:
                self._spawn_data_transfer(task_name, as_sender=False)
        self._run_ready_tasks()

    def _spawn_data_transfer(self, task_name: str, as_sender: bool) -> None:
        assert self._ctx is not None
        if task_name in self._dt_spawned or self.done:
            return
        receivers = self._receivers[task_name]
        if not receivers:
            return
        senders = list(self.graph.task(task_name).executors)
        self._dt_spawned.add(task_name)
        block_name = f"dt:{task_name}"
        kwargs: Dict[str, Any] = {}
        if as_sender:
            kwargs["my_value"] = self._values[task_name]
        self._ctx.spawn(
            block_name,
            DataTransferBlock(
                block_name, senders, receivers, round_timeout=self.round_timeout, **kwargs
            ),
            self._make_dt_callback(task_name),
            participants=sorted(set(senders) | set(receivers)),
        )

    def _make_dt_callback(self, task_name: str):
        def callback(block: ProtocolBlock) -> None:
            if self.done:
                return
            if getattr(block, "degraded", False):
                self.degraded = True
            if is_abort(block.result):
                self.complete(ABORT)
                return
            if task_name not in self._values:
                self._values[task_name] = block.result
            self._run_ready_tasks()

        return callback

    def _run_ready_tasks(self) -> None:
        """Execute every local task whose dependencies are satisfied; repeat to fixpoint."""
        assert self._ctx is not None
        me = self._ctx.node_id
        progressed = True
        while progressed and not self.done:
            progressed = False
            for task_name in self._order:
                if task_name in self._computed or not self._i_execute(task_name, me):
                    continue
                task = self.graph.task(task_name)
                if any(dep not in self._values for dep in task.depends_on):
                    continue
                inputs = {dep: self._values[dep] for dep in task.depends_on}
                self._values[task_name] = task.fn(inputs, self.bids, self._seed)
                self._computed.add(task_name)
                progressed = True
                # Ship the result to the groups that need it.
                self._spawn_data_transfer(task_name, as_sender=True)
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.done:
            return
        final = self.graph.final_task
        if final is not None and final in self._values and final in self._computed:
            self.complete(self._values[final])
