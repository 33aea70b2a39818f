"""Chaos audits: scenarios under injected faults, with invariants machine-checked.

The fault plane (:mod:`repro.net.faults`) can perturb any simulated run; this
module makes those perturbations *first-class and sweepable*, mirroring the
resilience layer one-to-one:

* :class:`FaultSpec` — one fault model from the :data:`~repro.net.faults.FAULTS`
  registry, referenced by string kind (``loss``, ``duplicate``, ``reorder``,
  ``latency_spike``, ``partition``, ``crash``, ``torn_append``, plus anything
  user-registered);
* :class:`ChaosSpec` — a frozen, JSON/TOML-serializable audit: a base
  :class:`~repro.scenarios.spec.ScenarioSpec` (``distributed`` runner), the
  fault grid, the :class:`~repro.net.faults.RecoveryPolicy` and the seeds;
* :class:`ChaosRecord` — the uniform, JSON-round-trippable result of one cell
  ``fault x seed``: the full fault-plane counter set plus one verdict per
  audited invariant;
* :func:`run_chaos` — the audit's declaration (:data:`CHAOS_GRID`) run through
  the grid engine (:mod:`repro.scenarios.grid`): sequential or ``workers=N``,
  journaled resume, crash-tolerant ``failure_mode="quarantine"``.

Invariants audited per cell
---------------------------

==================  ===========================================================
verdict field       what it checks
==================  ===========================================================
``terminated``      the run quiesced (no livelock within the step budget);
                    aborting with ⊥ still terminates — hanging does not
``conservation_ok``  ``sent == delivered + dropped + lost`` on the final
                    network statistics (the fault plane settles the books)
``replay_ok``       a second run of the identical cell — fresh fault plan,
                    fresh network — reproduces the outcome, every counter and
                    the fault journal digest bit-for-bit
``store_repair_ok``  for ``torn_append`` faults: a results journal torn mid-
                    append repairs on resume and completes to the full record
                    set (vacuously true for network-level faults)
==================  ===========================================================

A cell is ``ok`` exactly when all four hold.  Everything in a record except
wall-clock-measured elapsed time is a pure function of ``(spec, seed)``: the
fault schedule is drawn from the plan's own seeded RNG and journaled, and
:meth:`~repro.net.faults.FaultPlan.digest` is what the determinism lock
compares across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.context import current_observation
from repro.net.faults import FAULTS, FaultPlan, RecoveryPolicy, make_fault
from repro.net.network import QuiescenceError
from repro.scenarios.grid import Grid, run_grid
from repro.scenarios.runner import FlatRecord, RunRecord, SeededContext, record_from_outcome
from repro.scenarios.spec import (
    LabelledComponentSpec,
    ScenarioSpec,
    SpecError,
    check_fields,
    spec_fingerprint,
    spec_to_dict,
)

__all__ = [
    "FaultSpec",
    "ChaosSpec",
    "ChaosRecord",
    "ChaosResult",
    "ChaosContext",
    "run_chaos",
    "CHAOS_GRID",
]


@dataclass(frozen=True)
class FaultSpec(LabelledComponentSpec):
    """One fault model, referenced by ``FAULTS`` kind.

    A bare string (``"loss"``, all defaults) or a table of model parameters
    with an optional ``label`` (``{"kind": "loss", "rate": 0.2}``).
    """

    NOUN = "fault"
    FIELD = "faults"

    def build(self, path: str):
        """Instantiate the fault model (path-precise ``SpecError`` on failure)."""
        return make_fault(self.kind, dict(self.params), path)


@dataclass(frozen=True)
class ChaosSpec:
    """A complete, serializable description of one chaos audit.

    Attributes:
        name: free-form label, echoed into every record and the journal manifest.
        base: the scenario being perturbed.  Must use the ``distributed``
            runner — the fault plane lives on the provider protocol's network.
        faults: the fault grid; each entry becomes one row of cells (one per
            seed).  At least one fault is required: a fault-free grid would
            vacuously report a clean audit (the *empty-plan differential lock*
            lives in the network test suite instead).
        recovery: the retransmission policy armed alongside every fault
            (``None`` means the :class:`~repro.net.faults.RecoveryPolicy`
            defaults).
        seeds: master seeds; each reruns the whole fault grid with the base
            scenario reseeded.  Empty means the base scenario's own seed.
    """

    name: str = "chaos"
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    faults: Tuple[FaultSpec, ...] = ()
    recovery: Optional[RecoveryPolicy] = None
    seeds: Tuple[int, ...] = ()

    NOUN = "chaos"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.base.runner != "distributed":
            raise SpecError(
                "base.runner",
                "chaos audits inject faults into the provider protocol's network, "
                f"which only the 'distributed' runner hosts (got runner={self.base.runner!r})",
            )
        if not self.faults:
            raise SpecError(
                "faults",
                "a chaos audit needs at least one fault model; registered kinds: "
                + ", ".join(FAULTS.available()),
            )

    def effective_seeds(self) -> Tuple[int, ...]:
        return self.seeds if self.seeds else (self.base.seed,)

    def effective_recovery(self) -> RecoveryPolicy:
        return self.recovery if self.recovery is not None else RecoveryPolicy()

    def cells(self) -> List[int]:
        """The ordered fault grid: one point per fault (seeds are instances)."""
        return list(range(len(self.faults)))


# ---------------------------------------------------------------------- records --
@dataclass(frozen=True)
class ChaosRecord(FlatRecord):
    """The uniform result of one chaos cell: one fault model x one seed.

    All fields are JSON scalars; the :meth:`to_dict` / :meth:`from_dict` round
    trip (:class:`~repro.scenarios.runner.FlatRecord`) is lossless.  With ``measure_compute=false`` every field — the
    counters, the verdicts and the virtual ``elapsed_seconds`` — is a pure
    function of ``(spec, seed)``; ``fault_digest`` additionally pins the
    injected schedule itself (the determinism lock compares it across
    processes and ``PYTHONHASHSEED`` values).
    """

    name: str
    mechanism: str
    fault: str
    label: str
    instance: int
    seed: int
    users: int
    providers: int
    executors: int
    k: int
    recovery_enabled: bool
    max_retries: int
    aborted: bool
    degraded: bool
    terminated: bool
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    messages_lost: int
    faults_injected: int
    retransmissions: int
    duplicates_suppressed: int
    conservation_ok: bool
    replay_ok: bool
    store_repair_ok: bool
    fault_digest: str
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        """The cell's verdict: every audited invariant held."""
        return (
            self.terminated
            and self.conservation_ok
            and self.replay_ok
            and self.store_repair_ok
        )


@dataclass
class ChaosResult:
    """All records of one audit, in grid order, plus the aggregate verdict."""

    name: str
    base: Dict[str, Any]
    records: List[ChaosRecord] = field(default_factory=list)
    executed_cells: int = 0
    resumed_cells: int = 0
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failing_cells(self) -> List[ChaosRecord]:
        return [record for record in self.records if not record.ok]

    def is_clean(self) -> bool:
        """True when every cell held every invariant and nothing was quarantined."""
        return not self.failing_cells and not self.quarantined

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "chaos": self.name,
            "base": self.base,
            "clean": self.is_clean(),
            "records": [record.to_dict() for record in self.records],
        }
        if self.quarantined:
            data["quarantined"] = [dict(entry) for entry in self.quarantined]
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# --------------------------------------------------------------------- execution --
class ChaosContext(SeededContext):
    """Per-executor state of one audit: components and per-seed workloads.

    One instance backs one executor — the sequential loop or one parallel
    worker's chunk.  It memoises the mechanism once per audit and the workload
    / bids / latency model / provider ids once per seed
    (:class:`~repro.scenarios.runner.SeededContext`); the fault plan and the
    network are deliberately rebuilt per run (a plan is stateful, and the
    replay invariant *requires* a from-scratch second run).
    """

    def group_key(self, point: int, instance: int) -> int:
        """The seed: one generated workload serves every fault of that seed."""
        return instance

    # -- one perturbed run --------------------------------------------------------
    def _run_once(self, point: int, instance: int) -> Dict[str, Any]:
        """One from-scratch run of the cell: fresh plan, fresh network."""
        state = self._seed_state(instance)
        scenario: ScenarioSpec = state["scenario"]
        model = self.spec.faults[point].build(f"faults[{point}]")
        plan = FaultPlan(
            [model], seed=scenario.seed, recovery=self.spec.effective_recovery()
        )
        try:
            report = self._auctioneer(instance, fault_plan=plan).run_from_bids(state["bids"])
        except QuiescenceError:
            return {"terminated": False, "report": None, "plan": plan}
        return {"terminated": True, "report": report, "plan": plan}

    @staticmethod
    def _replay_payload(run: Dict[str, Any], measure_compute: bool) -> Tuple[Any, ...]:
        """Everything the replay invariant compares between the two runs."""
        if not run["terminated"]:
            return ("hung", run["plan"].digest())
        report = run["report"]
        stats = report.stats
        payload: Tuple[Any, ...] = (
            run["plan"].digest(),
            report.outcome.aborted,
            report.outcome.degraded,
            stats.messages_sent,
            stats.messages_delivered,
            stats.messages_dropped,
            stats.messages_lost,
            stats.faults_injected,
            stats.retransmissions,
            stats.duplicates_suppressed,
        )
        if not measure_compute:
            # Virtual clocks are deterministic; measured handler CPU is not.
            payload += (report.outcome.elapsed_time,)
        return payload

    # -- cells ---------------------------------------------------------------------
    def run_cell(self, point: int, instance: int) -> ChaosRecord:
        """Run one ``fault x seed`` cell (twice: the replay invariant needs both)."""
        state = self._seed_state(instance)
        scenario: ScenarioSpec = state["scenario"]
        fault = self.spec.faults[point]
        recovery = self.spec.effective_recovery()

        first = self._run_once(point, instance)
        second = self._run_once(point, instance)
        replay_ok = self._replay_payload(
            first, scenario.measure_compute
        ) == self._replay_payload(second, scenario.measure_compute)

        terminated = first["terminated"] and second["terminated"]
        if first["terminated"]:
            report = first["report"]
            stats = report.stats
            conservation_ok = stats.messages_sent == (
                stats.messages_delivered + stats.messages_dropped + stats.messages_lost
            )
            aborted = report.outcome.aborted
            degraded = report.outcome.degraded
            elapsed = report.outcome.elapsed_time
            counters = (
                stats.messages_sent,
                stats.messages_delivered,
                stats.messages_dropped,
                stats.messages_lost,
                stats.faults_injected,
                stats.retransmissions,
                stats.duplicates_suppressed,
            )
            record = record_from_outcome(
                scenario, instance, report.outcome, self.mechanism, len(state["executor_ids"])
            )
        else:
            conservation_ok = False
            aborted = True
            degraded = False
            elapsed = 0.0
            counters = (0, 0, 0, 0, 0, 0, 0)
            record = None

        store_repair_ok = True
        torn = [m for m in first["plan"].torn_appends()]
        if torn and record is not None:
            store_repair_ok = all(
                _torn_repair_ok(self.spec, record, model.drop_bytes) for model in torn
            )

        return ChaosRecord(
            name=self.spec.name,
            mechanism=self.mechanism.name,
            fault=fault.kind,
            label=fault.display_label,
            instance=instance,
            seed=scenario.seed,
            users=scenario.users,
            providers=scenario.providers,
            executors=len(state["executor_ids"]),
            k=scenario.config.k,
            recovery_enabled=recovery.enabled,
            max_retries=recovery.max_retries,
            aborted=aborted,
            degraded=degraded,
            terminated=terminated,
            messages_sent=counters[0],
            messages_delivered=counters[1],
            messages_dropped=counters[2],
            messages_lost=counters[3],
            faults_injected=counters[4],
            retransmissions=counters[5],
            duplicates_suppressed=counters[6],
            conservation_ok=conservation_ok,
            replay_ok=replay_ok,
            store_repair_ok=store_repair_ok,
            fault_digest=first["plan"].digest(),
            elapsed_seconds=elapsed,
        )


def _torn_repair_ok(spec: ChaosSpec, record: RunRecord, drop_bytes: int) -> bool:
    """The ``torn_append`` invariant: a torn journal repairs on resume.

    Journals two copies of the cell's record, tears ``drop_bytes`` off the
    file tail (the crash-mid-append signature), then resumes: the repaired
    journal must return a bit-identical prefix of what was appended, and
    re-appending the missing rounds must complete it to the full record set.
    The journal lives in a throwaway directory; nothing about the cell's
    verdict depends on the path.
    """
    from repro.scenarios.store import JsonlStoreBackend

    fingerprint = spec_fingerprint(spec) + ":torn"
    records = {(0, 0): record, (0, 1): record}
    workdir = tempfile.mkdtemp(prefix="repro-chaos-torn-")
    try:
        path = os.path.join(workdir, "journal.jsonl")
        backend = JsonlStoreBackend(path, record_type=RunRecord)
        backend.begin(spec.base, total_rounds=2, fingerprint=fingerprint)
        for (point, instance), row in sorted(records.items()):
            backend.append(point, instance, row)
        backend.close()

        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(0, size - drop_bytes))

        backend = JsonlStoreBackend(path, record_type=RunRecord)
        completed = backend.begin(
            spec.base, total_rounds=2, resume=True, fingerprint=fingerprint
        )
        if set(completed) - set(records):
            return False
        if any(completed[key] != records[key] for key in completed):
            return False
        for key in sorted(set(records) - set(completed)):
            backend.append(key[0], key[1], records[key])
        backend.close()

        _manifest, final = JsonlStoreBackend(path, record_type=RunRecord).read(
            expected_fingerprint=fingerprint
        )
        return final == records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: The audit as a grid: a point is one fault model, an instance one seed;
#: workers amortise by seed (workload generation, latency model, provider ids).
CHAOS_GRID = Grid(
    record_type=ChaosRecord,
    spec_type=ChaosSpec,
    context=ChaosContext,
)


def run_chaos(spec: ChaosSpec, **engine: Any) -> ChaosResult:
    """Run the full fault grid and collect the records in grid order.

    Args:
        spec: the audit specification.
        engine: the grid engine's options (``workers``, ``store``,
            ``store_format``, ``resume``, ``failure_mode``), see
            :func:`~repro.scenarios.grid.run_grid`.  Chunks are
            grouped by seed so workload generation stays amortised; records
            are bit-identical to the sequential path on all deterministic
            fields, in the same grid order; cells the executor quarantined
            are listed in :attr:`ChaosResult.quarantined`.
    """
    # Resolve every fault model up front (and discard the results): a typo'd
    # fault kind or bad parameter fails with its path-precise SpecError here,
    # before any journal is opened or simulation runs.
    for index, fault in enumerate(spec.faults):
        fault.build(f"faults[{index}]")
    run = run_grid(CHAOS_GRID, spec, **engine)
    result = ChaosResult(
        name=spec.name,
        base=spec_to_dict(spec.base),
        records=run.records,
        executed_cells=len(run.fresh),
        resumed_cells=len(run.reused),
        quarantined=run.quarantined,
    )
    # Observability hook (see repro.obs): audit-level counters only — the
    # per-injection instants and network counters are emitted by the fault
    # plane and SimNetwork themselves when cells run in this process.
    obs = current_observation()
    if obs is not None and obs.metrics is not None:
        obs.metrics.counter("chaos.cells_executed").inc(len(run.fresh))
        obs.metrics.counter("chaos.cells_reused").inc(len(run.reused))
        obs.metrics.counter("chaos.cells_quarantined").inc(len(run.quarantined))
        obs.metrics.counter("chaos.cells_failed").inc(
            sum(1 for record in result.records if not record.ok)
        )
    return result
