"""First-class resilience audits: the paper's k-resilience claim as a workload.

Definition 2 of the paper makes the repo's central scientific claim: the
distributed simulation is a *k-resilient ex-post equilibrium* — no coalition of
at most ``k`` providers can profit by deviating, under every fair schedule.
:func:`repro.gametheory.resilience.check_k_resilience` verifies that claim for
one hand-wired ``(auctioneer, bids, coalitions)`` triple and remains the
supported low-level API.  This module promotes it to a declarative, sweepable
subsystem mirroring the scenario layer:

* :class:`AdversarySpec` — one deviation from the library in
  :mod:`repro.adversary.provider_behaviors`, referenced by string kind through
  the ``ADVERSARIES`` registry (``equivocate``, ``drop_messages``, ``crash``,
  ``tamper_output``, ``forge_bids``, plus anything user-registered);
* :class:`ResilienceSpec` — a frozen, JSON/TOML-serializable audit: a base
  :class:`~repro.scenarios.spec.ScenarioSpec` (mechanism, workload, size,
  config, latency), the coalition bound ``k`` (or explicit coalitions), the
  deviation library, the schedules (``SCHEDULERS`` registry) and the seeds;
* :class:`ResilienceRecord` — the uniform, JSON-round-trippable result of one
  audit cell ``(schedule x coalition x deviation) x seed``;
* :func:`run_resilience` — the audit's declaration (:data:`RESILIENCE_GRID`)
  run through the grid engine (:mod:`repro.scenarios.grid`): sequential or
  ``workers=N``, journaled resume, bit-identical on all deterministic fields.

**Honest-baseline memoisation guarantee**: within one executor (the sequential
loop or one worker chunk) the honest run is solved exactly once per
``(schedule, seed)`` group and shared by every cell of that group — and because
the simulation is a pure function of ``(mechanism, workload, schedule, seed)``,
recomputing it in another worker yields the bit-identical baseline, so chunking
can never change a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.adversary.coalition import Coalition
from repro.core.framework import DistributedAuctioneer, SimulationReport
from repro.gametheory.resilience import score_deviation
from repro.scenarios.grid import Grid, GridResult, run_grid
from repro.scenarios.registry import ADVERSARIES, SCHEDULERS
from repro.scenarios.runner import FlatRecord
from repro.scenarios.spec import (
    ComponentSpec,
    LabelledComponentSpec,
    ScenarioSpec,
    SpecError,
    check_fields,
    read_list,
)
from repro.scenarios.sweep import SeededContext

__all__ = [
    "AdversarySpec",
    "ResilienceSpec",
    "ResilienceRecord",
    "AuditContext",
    "run_resilience",
    "RESILIENCE_GRID",
]

#: The default deviation library of :meth:`ResilienceSpec.effective_adversaries`:
#: one representative of every deviation family in
#: :mod:`repro.adversary.provider_behaviors`.
DEFAULT_ADVERSARIES = (
    ("equivocate", {}),
    ("tamper_output", {"bonus": 5.0}),
    ("drop_messages", {}),
    ("crash", {"max_sends": 4}),
)


@dataclass(frozen=True)
class AdversarySpec(LabelledComponentSpec):
    """One deviation from the library, referenced by ``ADVERSARIES`` kind.

    A bare string (``"equivocate"``) or a table of factory parameters with an
    optional ``label`` (``{"kind": "tamper_output", "bonus": 5.0}``).
    """

    NOUN = "adversary"
    FIELD = "adversaries"

    def component(self) -> ComponentSpec:
        return ComponentSpec(self.kind, self.params)


#: One coalition selector: provider ids (strings) and/or executor indices (ints).
CoalitionSelector = Tuple[Union[str, int], ...]

#: One audit cell before the seed dimension: indices into the spec's
#: ``schedules`` / expanded coalition list / effective adversary list.
Cell = Tuple[int, int, int]

#: The schedule parameter that names network nodes, per built-in schedule kind.
_SCHEDULE_NODE_FIELDS = {"adversarial": "targets", "round_robin": "order"}


def _coalition_selector(selectors: Any, path: str) -> CoalitionSelector:
    if isinstance(selectors, (str, int)):
        selectors = (selectors,)
    if not isinstance(selectors, (list, tuple)) or not selectors:
        raise SpecError(
            path, "a coalition must be a non-empty list of provider ids or executor indices"
        )
    members: List[Union[str, int]] = []
    for j, member in enumerate(selectors):
        if isinstance(member, bool) or not isinstance(member, (str, int)):
            raise SpecError(
                f"{path}[{j}]",
                f"coalition members are provider-id strings or executor indices, "
                f"got {type(member).__name__}",
            )
        if isinstance(member, int) and member < 0:
            raise SpecError(f"{path}[{j}]", "executor indices must be non-negative")
        members.append(member)
    if len(set(members)) != len(members):
        raise SpecError(path, "coalition members must be distinct")
    return tuple(members)


def _write_coalitions(coalitions: Tuple[CoalitionSelector, ...]) -> List[List[Union[str, int]]]:
    return [list(selectors) for selectors in coalitions]


@dataclass(frozen=True)
class ResilienceSpec:
    """A complete, serializable description of one resilience audit.

    Attributes:
        name: free-form label, echoed into every record and the journal manifest.
        base: the honest scenario being audited.  Must use the ``distributed``
            runner — k-resilience is a claim about the provider protocol.
        k: maximum coalition size for generated coalitions; defaults to the
            base config's ``k`` (the paper audits exactly the bound it claims).
        coalitions: explicit coalition selectors — each a list of provider ids
            (strings) and/or executor indices (ints).  Empty means *generate*:
            every subset of the executors of size ``1..k`` in lexicographic
            index order, capped by ``max_coalitions``.
        max_coalitions: cap on the number of generated coalitions (``None`` =
            no cap).  Ignored for explicit ``coalitions``.
        adversaries: the deviation library; empty means the built-in default
            library (one representative per deviation family).
        schedules: message schedules to audit under (``SCHEDULERS`` registry
            kinds); the paper quantifies over fair schedules, so the default is
            the deterministic earliest-arrival ``fair`` schedule.
        seeds: master seeds; each reruns the whole grid with the base scenario
            reseeded (fresh workload, jitter and protocol randomness).  Empty
            means the base scenario's own seed.
    """

    name: str = "resilience"
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    k: Optional[int] = None
    coalitions: Tuple[CoalitionSelector, ...] = field(
        default=(), metadata={"spec": (read_list(_coalition_selector), _write_coalitions)}
    )
    max_coalitions: Optional[int] = None
    adversaries: Tuple[AdversarySpec, ...] = ()
    schedules: Tuple[ComponentSpec, ...] = (ComponentSpec("fair"),)
    seeds: Tuple[int, ...] = ()

    NOUN = "resilience"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.base.runner != "distributed":
            raise SpecError(
                "base.runner",
                "resilience audits simulate deviating *providers*, which only the "
                f"'distributed' runner hosts (got runner={self.base.runner!r})",
            )
        if not self.schedules:
            raise SpecError("schedules", "need at least one schedule")
        executors = self.executor_count()
        if self.k is not None:
            if self.k < 1:
                raise SpecError("k", "coalition bound k must be at least 1")
            if self.k >= executors:
                raise SpecError(
                    "k",
                    f"coalition bound k={self.k} leaves no honest executor "
                    f"(executors={executors})",
                )
        if self.max_coalitions is not None and self.max_coalitions < 1:
            raise SpecError("max_coalitions", "max_coalitions must be at least 1")
        if not self.coalitions and self.effective_k() < 1:
            # Without this guard a base config of k=0 expands to an empty grid
            # and the audit would report "resilient" (and exit 0) vacuously.
            raise SpecError(
                "k",
                f"the audit grid is empty: the base config has k={self.base.config.k} "
                "and no explicit coalitions; set 'k' or 'coalitions'",
            )

    # -- derived defaults ---------------------------------------------------------
    def executor_count(self) -> int:
        """Providers that execute the protocol (coalition members come from these)."""
        return self.base.executors if self.base.executors is not None else self.base.providers

    def effective_k(self) -> int:
        """The audited coalition bound: explicit ``k`` or the base config's."""
        if self.k is not None:
            return self.k
        return min(self.base.config.k, max(1, self.executor_count() - 1))

    def effective_adversaries(self) -> Tuple[AdversarySpec, ...]:
        if self.adversaries:
            return self.adversaries
        return tuple(AdversarySpec(kind, dict(params)) for kind, params in DEFAULT_ADVERSARIES)

    def effective_seeds(self) -> Tuple[int, ...]:
        return self.seeds if self.seeds else (self.base.seed,)

    def coalition_selectors(self) -> Tuple[CoalitionSelector, ...]:
        """The audited coalitions: explicit selectors, or all subsets of size 1..k.

        Generated coalitions are executor *indices* (resolved against the real
        provider ids at run time, so they work with generated topologies too),
        enumerated sizes-first in lexicographic index order and capped by
        ``max_coalitions``.
        """
        if self.coalitions:
            return self.coalitions
        executors = self.executor_count()
        generated: List[CoalitionSelector] = []
        for size in range(1, self.effective_k() + 1):
            for combo in itertools.combinations(range(executors), size):
                generated.append(tuple(combo))
                if self.max_coalitions is not None and len(generated) >= self.max_coalitions:
                    return tuple(generated)
        return tuple(generated)

    def cells(self) -> List[Cell]:
        """The ordered audit grid: schedules (outer) x coalitions x adversaries."""
        return [
            (si, ci, ai)
            for si in range(len(self.schedules))
            for ci in range(len(self.coalition_selectors()))
            for ai in range(len(self.effective_adversaries()))
        ]


# ---------------------------------------------------------------------- records --
@dataclass(frozen=True)
class ResilienceRecord(FlatRecord):
    """The uniform result of one audit cell: one coalition deviation vs honest.

    All fields are JSON scalars or string-keyed mappings of scalars; the
    :meth:`to_dict` / :meth:`from_dict` round trip is lossless (``json``
    round-trips floats exactly).  Every field except the two ``*_elapsed``
    readings is deterministic in ``(spec, schedule, seed)``; with
    ``measure_compute=false`` the virtual clocks make those deterministic too.
    """

    name: str
    mechanism: str
    schedule: str
    adversary: str
    label: str
    coalition: Tuple[str, ...]
    users: int
    providers: int
    executors: int
    k: int
    audit_k: int
    instance: int
    seed: int
    honest_aborted: bool
    deviating_aborted: bool
    altered_result: bool
    profitable: bool
    max_gain: float
    member_gains: Mapping[str, float]
    honest_messages: int
    deviating_messages: int
    honest_elapsed: float
    deviating_elapsed: float

    def __post_init__(self) -> None:
        # Canonical member order, so journal bytes and equality are stable
        # however the caller assembled the coalition.
        object.__setattr__(self, "coalition", tuple(sorted(self.coalition)))
        object.__setattr__(
            self, "member_gains", {m: self.member_gains[m] for m in sorted(self.member_gains)}
        )

    @property
    def coalition_size(self) -> int:
        return len(self.coalition)

    @property
    def resilient(self) -> bool:
        """The cell's verdict: the deviation neither profited nor steered the result."""
        return not self.profitable and not self.altered_result

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data["coalition"] = list(self.coalition)
        data["member_gains"] = dict(self.member_gains)
        return data


# --------------------------------------------------------------------- execution --
class AuditContext(SeededContext):
    """Per-executor state of one audit: components, baselines, coalitions.

    One instance backs one executor — the sequential loop or one parallel
    worker's chunk.  It memoises exactly what the honest-baseline guarantee
    promises: the mechanism once per audit, the workload / bids / latency model
    / provider ids once per seed (:class:`~repro.scenarios.sweep.SeededContext`),
    the auctioneer (and its scheduler instance) once per ``(schedule, seed)``,
    and the honest run once per ``(schedule, seed)``.
    """

    def __init__(self, spec: ResilienceSpec) -> None:
        super().__init__(spec)
        self.cells = spec.cells()
        self.adversaries = spec.effective_adversaries()
        self.selectors = spec.coalition_selectors()
        self._auctioneers: Dict[Tuple[int, int], DistributedAuctioneer] = {}
        self._honest: Dict[Tuple[int, int], SimulationReport] = {}

    def group_key(self, point: int, instance: int) -> Tuple[int, int]:
        """``(schedule, seed)``: one auctioneer and one honest baseline per group."""
        return (self.cells[point][0], instance)

    # -- memoised components ------------------------------------------------------
    def _seed_state(self, instance: int) -> Dict[str, Any]:
        state = super()._seed_state(instance)
        if "coalitions" not in state:
            self._check_schedule_nodes(state["executor_ids"])
            state["coalitions"] = [
                self._resolve_coalition(selectors, state["executor_ids"], index)
                for index, selectors in enumerate(self.selectors)
            ]
        return state

    def _check_schedule_nodes(self, executor_ids: Sequence[str]) -> None:
        """Refuse a schedule parameter that names a node which does not execute:
        the name schedules nothing, so the audit would silently run another
        schedule than its spec reads (no targets at all is earliest-first)."""
        for index, schedule in enumerate(self.spec.schedules):
            field = _SCHEDULE_NODE_FIELDS.get(schedule.kind)
            named = schedule.params.get(field, ()) if field else ()
            for node in (named,) if isinstance(named, str) else named:
                if node not in executor_ids:
                    raise SpecError(
                        f"schedules[{index}].{field}",
                        f"unknown provider id {node!r}; executing providers: "
                        f"{', '.join(executor_ids)}",
                    )

    def _resolve_coalition(
        self, selectors: CoalitionSelector, executor_ids: Sequence[str], index: int
    ) -> Tuple[str, ...]:
        members: List[str] = []
        known = set(executor_ids)
        for j, member in enumerate(selectors):
            path = f"coalitions[{index}][{j}]"
            if isinstance(member, int):
                if member >= len(executor_ids):
                    raise SpecError(
                        path,
                        f"executor index {member} out of range for "
                        f"{len(executor_ids)} executors",
                    )
                member = executor_ids[member]
            elif member not in known:
                raise SpecError(
                    path,
                    f"unknown provider id {member!r}; executing providers: "
                    f"{', '.join(executor_ids)}",
                )
            if member in members:
                raise SpecError(path, f"provider {member!r} selected twice in one coalition")
            members.append(member)
        if len(members) >= len(executor_ids):
            raise SpecError(
                f"coalitions[{index}]",
                "a coalition must leave at least one honest executor",
            )
        return tuple(members)

    def auctioneer(self, schedule_index: int, instance: int) -> DistributedAuctioneer:
        key = (schedule_index, instance)
        auctioneer = self._auctioneers.get(key)
        if auctioneer is None:
            scheduler = SCHEDULERS.create(
                self.spec.schedules[schedule_index], f"schedules[{schedule_index}]"
            )
            auctioneer = self._auctioneers[key] = self._auctioneer(instance, scheduler=scheduler)
        return auctioneer

    def honest(self, schedule_index: int, instance: int) -> SimulationReport:
        """The honest baseline — solved once per ``(schedule, seed)`` group."""
        key = (schedule_index, instance)
        report = self._honest.get(key)
        if report is None:
            state = self._seed_state(instance)
            report = self.auctioneer(schedule_index, instance).run_from_bids(state["bids"])
            self._honest[key] = report
        return report

    # -- cells ---------------------------------------------------------------------
    def run_cell(self, point: int, instance: int) -> ResilienceRecord:
        """Run one ``(schedule x coalition x adversary) x seed`` cell."""
        schedule_index, coalition_index, adversary_index = self.cells[point]
        state = self._seed_state(instance)
        scenario: ScenarioSpec = state["scenario"]
        bids = state["bids"]
        members: Tuple[str, ...] = state["coalitions"][coalition_index]
        adversary = self.adversaries[adversary_index]
        deviant_factory = ADVERSARIES.create(
            adversary.component(), f"adversaries[{adversary_index}]"
        )
        auctioneer = self.auctioneer(schedule_index, instance)
        honest = self.honest(schedule_index, instance)

        coalition = Coalition.of(members, deviant_factory)
        deviating = auctioneer.run(
            auctioneer.consistent_inputs(bids),
            expected_users=[u.user_id for u in bids.users],
            node_factory=coalition.factory(),
        )

        score = score_deviation(
            coalition, adversary.display_label, bids, honest.outcome, deviating.outcome
        )

        return ResilienceRecord(
            name=self.spec.name,
            mechanism=self.mechanism.name,
            schedule=self.spec.schedules[schedule_index].kind,
            adversary=adversary.kind,
            label=adversary.display_label,
            coalition=tuple(sorted(members)),
            users=scenario.users,
            providers=scenario.providers,
            executors=len(state["executor_ids"]),
            k=scenario.config.k,
            audit_k=self.spec.effective_k(),
            instance=instance,
            seed=scenario.seed,
            honest_aborted=honest.outcome.aborted,
            deviating_aborted=deviating.outcome.aborted,
            altered_result=score.altered_result,
            profitable=score.profitable,
            max_gain=max(score.member_gains.values()),
            member_gains=score.member_gains,
            honest_messages=honest.outcome.messages,
            deviating_messages=deviating.outcome.messages,
            honest_elapsed=honest.outcome.elapsed_time,
            deviating_elapsed=deviating.outcome.elapsed_time,
        )


#: The audit as a grid: a point is one ``(schedule, coalition, deviation)``
#: triple, an instance one seed; workers amortise the honest baseline.
RESILIENCE_GRID = Grid(
    kind="resilience",
    unit="cells",
    verdict="resilient",
    record_type=ResilienceRecord,
    spec_type=ResilienceSpec,
    context=AuditContext,
)


def run_resilience(spec: ResilienceSpec, **engine: Any) -> GridResult:
    """Run the full audit grid and collect the records in grid order.

    The result is clean when no cell found a profitable or outcome-steering
    deviation (:attr:`ResilienceRecord.resilient`).

    Args:
        spec: the audit specification.
        engine: the grid engine's options (``workers``, ``store``,
            ``store_format``, ``resume``), see
            :func:`~repro.scenarios.grid.run_grid`.  Chunks are grouped by
            ``(schedule, seed)`` so the honest-baseline memoisation survives
            chunking; verdicts are bit-identical to the sequential path on
            all deterministic fields, in the same grid order.
    """
    # Resolve every registry reference up front (and discard the results): a
    # typo'd adversary kind or bad parameter fails with its path-precise
    # SpecError here, before any journal is opened or simulation runs.
    for index, adversary in enumerate(spec.effective_adversaries()):
        ADVERSARIES.create(adversary.component(), f"adversaries[{index}]")
    for index, schedule in enumerate(spec.schedules):
        SCHEDULERS.create(schedule, f"schedules[{index}]")
    return run_grid(RESILIENCE_GRID, spec, **engine)
