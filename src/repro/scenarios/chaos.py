"""Chaos audits: scenarios under injected faults, with invariants machine-checked.

The fault plane (:mod:`repro.net.faults`) can perturb any simulated run; this
module makes those perturbations *first-class and sweepable*, mirroring the
resilience layer one-to-one:

* :class:`FaultSpec` — one fault model from the :data:`~repro.scenarios.registry.FAULTS`
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
  journaled, fail-fast, resumable.

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

A cell is ``ok`` exactly when all four hold.  Everything in a record, the
modelled elapsed time included, is a pure function of ``(spec, seed)``: the
fault schedule is drawn from the plan's own seeded RNG and journaled, and
:meth:`~repro.net.faults.FaultPlan.digest` is what the determinism lock
compares across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.net.faults import CrashFault, FaultPlan, PartitionFault, RecoveryPolicy, make_fault
from repro.net.network import QuiescenceError
from repro.scenarios.grid import Grid, GridResult, run_grid
from repro.scenarios.registry import FAULTS
from repro.scenarios.runner import FlatRecord, RunRecord, check_node, record_from_outcome
from repro.scenarios.spec import (
    LabelledComponentSpec,
    ScenarioSpec,
    SpecError,
    check_fields,
    spec_fingerprint,
)
from repro.scenarios.sweep import SeededContext

__all__ = [
    "FaultSpec",
    "ChaosSpec",
    "ChaosRecord",
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
    trip (:class:`~repro.scenarios.runner.FlatRecord`) is lossless.  Every
    field — the counters, the verdicts and the modelled ``elapsed_seconds`` —
    is a pure function of ``(spec, seed)``; ``fault_digest`` additionally pins the
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


# --------------------------------------------------------------------- execution --
class ChaosContext(SeededContext):
    """Per-executor state of one audit: components and per-seed workloads.

    One instance backs one executor — the sequential loop or one parallel
    worker's chunk.  It memoises the mechanism once per audit and the workload
    / bids / latency model / provider ids once per seed
    (:class:`~repro.scenarios.sweep.SeededContext`).  Only the fault plan and
    the network are rebuilt per run (a plan is stateful).  Under modelled time
    every run of a seed reads what the first honest round derived from the
    seed's vector — the received maps, the agreement batch, the agreed vector,
    its digest and ``A``'s results (see
    :meth:`~repro.core.framework.DistributedAuctioneer.run_from_bids`) — so
    the replay invariant re-checks the plan and the network, not the
    determinism of that input path.  ``TestInputLinkZero``'s
    ``test_rounds_of_one_vector_share_every_link``
    (``tests/core/test_shared_agreement.py``) checks that path instead: shared
    rounds must observe what rounds with every memo forgotten observe.
    """

    def _check_spec(self) -> None:
        """Build every fault model (and discard it); refuse a crash / partition
        aimed at a node that does not execute: it would inject nothing."""
        spec = self.spec
        targets = []
        for index, fault in enumerate(spec.faults):
            model = fault.build(f"faults[{index}]")
            if isinstance(model, CrashFault):
                targets.append((f"faults[{index}].node", model.node))
            elif isinstance(model, PartitionFault):
                targets.extend((f"faults[{index}].nodes", node) for node in sorted(model.nodes))
        for instance in range(len(spec.effective_seeds())) if targets else ():
            executor_ids = self._executor_ids(instance)
            for path, node in targets:
                check_node(path, node, executor_ids)

    def group_key(self, point: int, instance: int) -> int:
        """The seed: one generated workload serves every fault of that seed."""
        return instance

    # -- one perturbed run --------------------------------------------------------
    def _run_once(self, point: int, instance: int) -> Dict[str, Any]:
        """One from-scratch run of the cell: fresh plan, fresh network.

        The plan's journal is hashed here, once per run, for both the replay
        payload and the record's ``fault_digest``.
        """
        state = self._seed_state(instance)
        scenario: ScenarioSpec = state["scenario"]
        model = self.spec.faults[point].build(f"faults[{point}]")
        plan = FaultPlan(
            [model], seed=scenario.seed, recovery=self.spec.effective_recovery()
        )
        try:
            report = self._auctioneer(instance, fault_plan=plan).run_from_bids(state["bids"])
        except QuiescenceError:
            report = None
        return {
            "terminated": report is not None,
            "report": report,
            "plan": plan,
            "digest": plan.digest(),
        }

    @staticmethod
    def _replay_payload(run: Dict[str, Any]) -> Tuple[Any, ...]:
        """Everything the replay invariant compares between the two runs."""
        if not run["terminated"]:
            return ("hung", run["digest"])
        report = run["report"]
        stats = report.stats
        return (
            run["digest"],
            report.outcome.aborted,
            report.outcome.degraded,
            stats.messages_sent,
            stats.messages_delivered,
            stats.messages_dropped,
            stats.messages_lost,
            stats.faults_injected,
            stats.retransmissions,
            stats.duplicates_suppressed,
            report.outcome.elapsed_time,
        )

    # -- cells ---------------------------------------------------------------------
    def run_cell(self, point: int, instance: int) -> ChaosRecord:
        """Run one ``fault x seed`` cell (twice: the replay invariant needs both)."""
        state = self._seed_state(instance)
        scenario: ScenarioSpec = state["scenario"]
        fault = self.spec.faults[point]
        recovery = self.spec.effective_recovery()

        first = self._run_once(point, instance)
        second = self._run_once(point, instance)
        replay_ok = self._replay_payload(first) == self._replay_payload(second)

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
                _torn_repair_ok(self.spec, record, model.drop_bytes, f"faults[{point}]")
                for model in torn
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
            fault_digest=first["digest"],
            elapsed_seconds=elapsed,
        )


def _torn_repair_ok(
    spec: ChaosSpec, record: RunRecord, drop_bytes: int, fault_path: str
) -> bool:
    """The ``torn_append`` invariant: a torn journal repairs on resume.

    Journals two copies of the cell's record, tears ``drop_bytes`` off the
    file tail (the crash-mid-append signature), then resumes: the repaired
    journal must return a bit-identical prefix of what was appended, and
    re-appending the missing rounds must complete it to the full record set.
    A tear into the manifest is no append's signature: it is a
    :class:`SpecError` at ``fault_path``.  The journal lives in a throwaway
    directory; nothing about the cell's verdict depends on the path.
    """
    from repro.scenarios.store import JsonlStoreBackend

    fingerprint = spec_fingerprint(spec) + ":torn"
    records = {(0, 0): record, (0, 1): record}
    workdir = tempfile.mkdtemp(prefix="repro-chaos-torn-")
    try:
        path = os.path.join(workdir, "journal.jsonl")
        backend = JsonlStoreBackend(path, record_type=RunRecord)
        backend.begin(spec.base, total_rounds=2, fingerprint=fingerprint)
        backend.flush()
        manifest_bytes = os.path.getsize(path)
        for (point, instance), row in sorted(records.items()):
            backend.append(point, instance, row)
        backend.close()

        size = os.path.getsize(path)
        if drop_bytes > size - manifest_bytes:
            raise SpecError(
                f"{fault_path}.drop_bytes",
                f"tears {drop_bytes} bytes, but the cell journal holds "
                f"{size - manifest_bytes} record bytes",
            )
        with open(path, "r+b") as handle:
            handle.truncate(size - drop_bytes)

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
    kind="chaos",
    unit="cells",
    verdict="ok",
    record_type=ChaosRecord,
    spec_type=ChaosSpec,
    context=ChaosContext,
)


def run_chaos(spec: ChaosSpec, **engine: Any) -> GridResult:
    """Run the full fault grid and collect the records in grid order.

    The result is clean when every cell held every invariant
    (:attr:`ChaosRecord.ok`).

    Args:
        spec: the audit specification.
        engine: the grid engine's options (``workers``, ``store``,
            ``store_format``, ``resume``), see
            :func:`~repro.scenarios.grid.run_grid`.  Chunks are
            grouped by seed so workload generation stays amortised; records
            are bit-identical to the sequential path on all deterministic
            fields, in the same grid order.
    """
    return run_grid(CHAOS_GRID, spec, **engine)
