"""The four closed-loop workloads of the benchmark (why each: perf/README.md).

One client, one process, ops issued serially.  Op ``i`` derives its bids from
``(seed, i)`` and no index is reused inside a run, so the process-wide solve
memo is cold across ops and warm only within one — what a fresh round pays.
Every spec runs with ``measure_compute=False`` and no observation installed,
so the simulated statistics of an op are a pure function of ``(seed, i)``.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

PERF_DIR = Path(__file__).resolve().parent
# The benchmark runs the program from the checkout's own source tree, never
# from a copy installed elsewhere.
_SRC = PERF_DIR.parent / "src"
if not (_SRC / "repro").is_dir():
    raise SystemExit(f"perf: no program source under {_SRC}; run from a checkout")
sys.path.insert(0, str(_SRC))

from repro.community.workload import default_provider_ids  # noqa: E402
from repro.core.framework import DistributedAuctioneer  # noqa: E402
from repro.net.faults import FaultPlan  # noqa: E402
from repro.scenarios import (  # noqa: E402
    ChaosSpec,
    ComponentCache,
    ResultsStore,
    ScenarioSpec,
    figure4_sweep,
    figure5_sweep,
    run_chaos,
    run_scenario,
    run_sweep,
    spec_with_overrides,
)

#: Where a run may write: the journal of the op in flight, the spans.
OUT_DIR = PERF_DIR / "out"

#: Untimed ops run by set-up; their indices are never used by a measured op.
WARMUP_OPS = 3
_WARMUP_BASE = 900_000

#: One distributed round as the exact metrics see it:
#: (simulated seconds, messages delivered).
Round = Tuple[float, int]


class Workload:
    """Build once, then ``op(i)`` / ``check`` / ``rounds`` per operation."""

    name = ""
    #: Rounds one op executes, centralised baselines and chaos replays included.
    rounds_per_op = 1
    #: Ops per timed pass: about one second on the 2-core sizing host.
    ops_per_pass = 1
    #: Users per round; sized so a 20 s run holds at least 100 ops.
    users = 0

    def __init__(self, seed: int, scratch: Path, users: Optional[int] = None) -> None:
        self.seed = seed
        self.users = users or self.users
        self.scratch = scratch
        self.journal = scratch / "op.rcol"
        self.cache = ComponentCache()

    def op_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    def op(self, i: int) -> Any:
        """Run operation ``i`` end to end and return what ``check`` inspects."""
        raise NotImplementedError

    def check(self, output: Any) -> bool:
        raise NotImplementedError

    def records(self, output: Any) -> Sequence[Any]:
        """The op's records (each has ``to_dict``), for the outcome digest."""
        raise NotImplementedError

    def _distributed(self, output: Any) -> List[Any]:
        return [r for r in self.records(output) if r.runner != "centralized"]

    def rounds(self, output: Any) -> List[Round]:
        """The distributed rounds of an op (untimed accounting)."""
        return [(r.elapsed_seconds, r.messages) for r in self._distributed(output)]

    def round_bytes(self, i: int, output: Any) -> List[int]:
        """Bytes delivered in each distributed round of op ``i``."""
        return [r.bytes_transferred for r in self._distributed(output)]

    def round_spec(self, i: int) -> ScenarioSpec:
        """The op's heaviest distributed round: what the layer probes replay."""
        raise NotImplementedError

    def components(self, spec: ScenarioSpec):
        """``(mechanism, workload generator, latency model)``, amortised."""
        return (
            self.cache.mechanism(spec),
            self.cache.workload(spec),
            self.cache.latency(spec),
        )

    def bids(self, i: int):
        """The bid vector of ``round_spec(i)``."""
        spec = self.round_spec(i)
        return self.cache.workload(spec).generate(
            spec.users,
            spec.providers,
            provider_ids=default_provider_ids(spec.providers),
            instance=self.instance(i),
        )

    def instance(self, i: int) -> int:
        """The workload-generator instance op ``i`` draws (its seed varies instead)."""
        return 0

    def distributed_round(self, spec: ScenarioSpec, bids, fault_plan=None):
        """``spec`` through ``DistributedAuctioneer``, as the runners build it."""
        mechanism, _generator, latency = self.components(spec)
        return DistributedAuctioneer(
            mechanism,
            providers=default_provider_ids(spec.providers)[: spec.executors],
            config=spec.config.to_config(),
            latency_model=latency,
            seed=spec.seed,
            measure_compute=False,
            fault_plan=fault_plan,
        ).run_from_bids(bids)

    def dispatch_grid(self):
        """A 16-cell sweep for the worker-pool probe, or ``None`` to skip it."""
        return None

    def close(self) -> None:
        self.cache.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


class _FigureSweep(Workload):
    """Shared shape of the two paper figures: one sweep + journal + summary."""

    def sweep(self, i: int):
        raise NotImplementedError

    def op(self, i: int):
        """``run_sweep`` into a fresh columnar journal, then summarize it."""
        try:
            result = run_sweep(self.sweep(i), store=self.journal, store_format="columnar")
            summary = ResultsStore(self.journal).summary()
        finally:
            self.journal.unlink(missing_ok=True)
        return result.records, summary

    def records(self, output):
        return output[0]

    def round_spec(self, i: int) -> ScenarioSpec:
        return self.sweep(i).scenarios()[-1]


class Fig4Sweep(_FigureSweep):
    name = "fig4_sweep"
    rounds_per_op = 4  # centralised + k=1,2,3 on 3/5/7 of 8 sellers
    ops_per_pass = 6
    users = 300

    def sweep(self, i: int, n_values: Optional[Sequence[int]] = None):
        return figure4_sweep(
            n_values=n_values or (self.users,), seed=self.op_seed(i)
        ).with_base_overrides({"measure_compute": False})

    def dispatch_grid(self):
        # Four sizes x four series = 16 cells, none larger than the op's own.
        sizes = tuple(self.users * sixths // 6 for sixths in (2, 3, 4, 5))
        return self.sweep(_WARMUP_BASE, n_values=sizes)

    def check(self, output) -> bool:
        records, summary = output
        # Definition 1: every simulation outputs what the trusted auctioneer would.
        outcomes = {(r.winners, r.total_paid, r.total_received) for r in records}
        return (
            len(records) == summary["records"] == self.rounds_per_op
            and not any(r.aborted for r in records)
            and len(outcomes) == 1
            and records[0].total_paid >= records[0].total_received
        )


class Fig5Sweep(_FigureSweep):
    name = "fig5_sweep"
    rounds_per_op = 3  # p=1 centralised, p=2 (k=3), p=4 (k=1)
    ops_per_pass = 5
    users = 50

    def sweep(self, i: int):
        return figure5_sweep(
            n_values=(self.users,), seed=self.op_seed(i)
        ).with_base_overrides({"measure_compute": False})

    def check(self, output) -> bool:
        records, summary = output
        # The centralised run draws its own coin, so only p=2 and p=4 must agree.
        _central, p2, p4 = records
        return (
            summary["records"] == self.rounds_per_op
            and not any(r.aborted for r in records)
            and (p2.winners, p2.total_paid, p2.total_received)
            == (p4.winners, p4.total_paid, p4.total_received)
            and all(abs(r.total_paid - r.total_received) <= 1e-9 for r in records)
        )


class ChattyBidders(Workload):
    name = "chatty_bidders"
    rounds_per_op = 1
    ops_per_pass = 40
    users = 40

    def __init__(self, seed: int, scratch: Path, users: Optional[int] = None) -> None:
        super().__init__(seed, scratch, users)
        self.spec = ScenarioSpec(
            name=self.name,
            mechanism="double",
            users=self.users,
            providers=8,
            runner="auction_run",
            config={"k": 2},
            latency="wan",
            seed=seed,
            measure_compute=False,
        )
        self.mechanism, self.generator, self.latency = self.components(self.spec)

    def op(self, i: int):
        return run_scenario(
            self.spec,
            instance=self.instance(i),
            mechanism=self.mechanism,
            workload=self.generator,
            latency_model=self.latency,
        )

    def check(self, record) -> bool:
        return (
            not record.aborted
            and record.messages > 0
            and record.total_paid >= record.total_received
        )

    def records(self, record):
        return [record]

    def round_spec(self, i: int) -> ScenarioSpec:
        return self.spec

    def instance(self, i: int) -> int:
        return i


class ChaosGrid(Workload):
    name = "chaos_grid"
    rounds_per_op = 12  # 6 fault cells, each run twice for the replay invariant
    ops_per_pass = 8
    users = 80

    FAULTS = (
        {"kind": "loss", "rate": 0.05},
        {"kind": "loss", "rate": 0.2, "label": "heavy-loss"},
        "duplicate",
        "reorder",
        {"kind": "latency_spike", "at": 0.001, "duration": 0.004, "extra": 0.05},
        {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002},
    )

    def __init__(self, seed: int, scratch: Path, users: Optional[int] = None) -> None:
        super().__init__(seed, scratch, users)
        self.base = ScenarioSpec(
            name=self.name,
            mechanism="double",
            users=self.users,
            providers=5,
            config={"k": 2},
            latency="constant",
            seed=seed,
            measure_compute=False,
        )

    def chaos_spec(self, i: int) -> ChaosSpec:
        return ChaosSpec(
            name=self.name, base=self.base, faults=self.FAULTS, seeds=(self.op_seed(i),)
        )

    def op(self, i: int):
        try:
            return run_chaos(
                self.chaos_spec(i), store=self.journal, store_format="columnar"
            )
        finally:
            self.journal.unlink(missing_ok=True)

    def check(self, result) -> bool:
        return (
            len(result.records) == len(self.FAULTS)
            and all(record.ok for record in result.records)
            and result.is_clean()
        )

    def records(self, result):
        return result.records

    def round_spec(self, i: int) -> ScenarioSpec:
        return spec_with_overrides(self.base, {"seed": self.op_seed(i)})

    def fault_plan(self, i: int, point: int) -> FaultPlan:
        """A fresh plan for fault cell ``point`` of op ``i``, as ``run_chaos`` arms it."""
        chaos = self.chaos_spec(i)
        return FaultPlan(
            [chaos.faults[point].build(f"faults[{point}]")],
            seed=self.op_seed(i),
            recovery=chaos.effective_recovery(),
        )

    def rounds(self, result) -> List[Round]:
        return [(r.elapsed_seconds, r.messages_delivered) for r in result.records]

    def round_bytes(self, i: int, result) -> List[int]:
        # A ChaosRecord carries no byte count: replay each cell for it, and
        # hold the replay to the record's own message count.
        spec, bids = self.round_spec(i), self.bids(i)
        sizes = []
        for point, record in enumerate(result.records):
            stats = self.distributed_round(spec, bids, self.fault_plan(i, point)).stats
            if stats.messages_delivered != record.messages_delivered:
                raise AssertionError(
                    f"{self.name}: replay of op {i} cell {point} delivered "
                    f"{stats.messages_delivered} messages, the audit "
                    f"{record.messages_delivered}"
                )
            sizes.append(stats.bytes_delivered)
        return sizes


WORKLOADS = {
    cls.name: cls for cls in (Fig4Sweep, Fig5Sweep, ChattyBidders, ChaosGrid)
}


def setup(name: str, seed: int, users: Optional[int] = None) -> Workload:
    """Build the workload's components and run the untimed warm-up ops.

    With the imports above, this is what ``setup_s`` times.  ``users``
    overrides the workload's size (the self-check runs toy sizes).
    """
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, scratch, users)
    for j in range(WARMUP_OPS):
        workload.op(_WARMUP_BASE + j)
    return workload
