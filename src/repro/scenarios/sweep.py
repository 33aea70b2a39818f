"""Sweep execution: run every point of a :class:`SweepSpec`, amortising state.

Mechanisms, workloads, topologies and latency models are resolved once per
distinct configuration (:class:`ComponentCache`) and shared across grid
points, so a mechanism (and the solve memo it fills) survives the
whole sweep — the same amortisation the hand-written figure experiments
performed, now applied to every sweep automatically.  Components the sweep
itself created are closed when the sweep finishes, even when a grid point
raises.

:func:`run_sweep` is the sweep's declaration (:data:`SWEEP_GRID`) run through
the grid engine (:mod:`repro.scenarios.grid`), which supplies **parallel
execution** (``workers=N``: amortisation-preserving chunks, records in grid
order whatever the completion order, bit-identical to a sequential run on
every deterministic :class:`RunRecord` field) and **a persistent results
store** (``store=path``: every record journaled as it completes;
``resume=True`` skips grid rounds the journal already holds).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.net.latency import LatencyModel
from repro.obs.context import current_observation
from repro.scenarios.grid import Cell, Grid, GridRun, run_grid
from repro.scenarios.runner import (
    RunRecord,
    build_latency_model,
    build_mechanism,
    build_topology,
    build_workload,
    run_scenario,
)
from repro.scenarios.spec import ScenarioSpec, SpecError, SweepSpec, spec_to_dict
__all__ = ["ComponentCache", "SweepContext", "SweepResult", "SWEEP_GRID", "run_sweep"]


@dataclass
class SweepResult:
    """All records of one sweep, in grid order, with JSON export.

    ``executed_rounds`` counts the rounds this invocation actually ran;
    ``resumed_rounds`` counts the rounds served from a results journal
    (``run_sweep(..., store=..., resume=True)``).  For a store-less sweep
    ``executed_rounds == len(records)`` and ``resumed_rounds == 0``.

    ``quarantined`` lists the rounds the crash-tolerant executor gave up on
    (``run_sweep(..., failure_mode="quarantine")``): one ``{"point",
    "instance", "error"}`` dict per skipped round, in completion order.
    Those rounds have no :class:`RunRecord` in ``records``; with a store
    they are journaled as ``quarantine`` entries and a later ``--resume``
    re-executes exactly them.
    """

    name: str
    base: Dict[str, Any]
    records: List[RunRecord] = field(default_factory=list)
    executed_rounds: int = 0
    resumed_rounds: int = 0
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "sweep": self.name,
            "base": self.base,
            "records": [record.to_dict() for record in self.records],
        }
        if self.quarantined:
            data["quarantined"] = [dict(entry) for entry in self.quarantined]
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def series(self) -> Dict[str, List[RunRecord]]:
        """Records grouped by series label, preserving grid order."""
        groups: Dict[str, List[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.series, []).append(record)
        return groups


class ComponentCache:
    """Memoised spec-to-component resolution shared across grid points.

    One instance backs one executor — the sequential sweep loop, a parallel
    worker's chunk, or any caller that runs many related scenarios.  Each
    component family is built once per distinct canonical configuration key
    and shared by every round that hashes to it, so mechanism construction
    and the solves it memoises are amortised across the whole grid.  Sharing
    is bit-exact: workloads and latency models are pure functions of their
    construction parameters (every ``generate``/``delay`` call derives its
    randomness from explicit seeds), and mechanism caches only memoise pure
    solves.

    :meth:`close` shuts down every mechanism the cache created (idempotent);
    always call it — or use the cache as a context manager — so a mechanism
    that owns resources does not outlive the sweep, even when a grid point raises.
    """

    def __init__(self) -> None:
        self._mechanisms: Dict[Tuple[Any, ...], Any] = {}
        self._workloads: Dict[Tuple[Any, ...], Any] = {}
        self._topologies: Dict[Tuple[Any, ...], Any] = {}
        self._latencies: Dict[Tuple[Any, ...], Any] = {}

    def mechanism(self, spec: ScenarioSpec):
        return _cached(self._mechanisms, _mechanism_key(spec), build_mechanism, spec)

    def workload(self, spec: ScenarioSpec):
        return _cached(self._workloads, _workload_key(spec), build_workload, spec)

    def topology(self, spec: ScenarioSpec):
        if spec.topology is None:
            return None
        return _cached(self._topologies, _topology_key(spec), build_topology, spec)

    def latency(self, spec: ScenarioSpec, topology=None) -> LatencyModel:
        key = _latency_key(spec)
        if key not in self._latencies:
            self._latencies[key] = build_latency_model(spec, topology)
        return self._latencies[key]

    def close(self) -> None:
        """Release engine resources held by cached mechanisms (idempotent)."""
        mechanisms = list(self._mechanisms.values())
        self._mechanisms.clear()
        for mechanism in mechanisms:
            close = getattr(mechanism, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ComponentCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SweepContext:
    """Per-executor state of one sweep: the expanded grid and its components.

    One instance backs one executor — the sequential loop or one parallel
    worker's chunk.  ``scenarios`` holds one fully-validated spec per grid
    point, in grid order; every round of a point reuses the components its
    first round resolved through the :class:`ComponentCache`.  :meth:`close`
    closes the cache (idempotent).
    """

    def __init__(self, sweep: SweepSpec, latency_model: Optional[LatencyModel] = None) -> None:
        self.scenarios = sweep.scenarios()
        self.latency_model = latency_model
        self.cache = ComponentCache()
        self._components: Dict[int, Dict[str, Any]] = {}

    def run_order(self) -> List[Cell]:
        """Grid order: the cache amortises across points wherever they sit."""
        return [
            (point, instance)
            for point, spec in enumerate(self.scenarios)
            for instance in range(spec.rounds)
        ]

    def group_key(self, point: int, instance: int) -> Tuple[Any, ...]:
        """The state-sharing key of one grid point: what a worker can amortise."""
        spec = self.scenarios[point]
        return (
            _mechanism_key(spec),
            _workload_key(spec),
            _topology_key(spec) if spec.topology is not None else None,
        )

    def run_cell(self, point: int, instance: int) -> RunRecord:
        spec = self.scenarios[point]
        components = self._components.get(point)
        if components is None:
            mechanism = self.cache.mechanism(spec)
            workload = self.cache.workload(spec)
            topology = self.cache.topology(spec)
            model = self.latency_model
            if model is None and spec.runner != "centralized":
                # The centralised baseline never consumes latency; keep it unbuilt so
                # the cached path stays semantically identical to bare run_scenario.
                model = self.cache.latency(spec, topology)
            components = self._components[point] = {
                "mechanism": mechanism,
                "workload": workload,
                "latency_model": model,
                "topology": topology,
            }
        return run_scenario(spec, instance, **components)

    def close(self) -> None:
        self.cache.close()


#: The sweep as a grid: a point is one expanded scenario, an instance one of
#: its rounds; workers amortise by ``(mechanism, workload, topology)``.
SWEEP_GRID = Grid(
    record_type=RunRecord,
    spec_type=SweepSpec,
    context=SweepContext,
)


def run_sweep(
    sweep: SweepSpec, *, latency_model: Optional[LatencyModel] = None, **engine: Any
) -> SweepResult:
    """Run every grid point of the sweep and collect the records in grid order.

    Args:
        sweep: the sweep specification.
        latency_model: optional pre-built model overriding every point's
            ``latency`` reference (used by the figure experiments to honour a
            caller-supplied model object that has no spec representation).
            Raises :class:`SpecError` when the sweep itself varies ``latency``
            — the override would silently swallow that axis.  A parallel
            run ships it to the workers, so it must pickle.
        engine: the grid engine's options (``workers``, ``store``,
            ``store_format``, ``resume``, ``failure_mode``), see
            :func:`~repro.scenarios.grid.run_grid`.
            Chunking preserves the per-configuration state amortisation
            (all rounds of a point share one worker and one cache); rounds
            the executor quarantined are listed in
            :attr:`SweepResult.quarantined`.
    """
    if latency_model is not None:
        conflict = _latency_override_conflict(sweep)
        if conflict is not None:
            raise SpecError(
                conflict,
                "this sweep varies the latency model, but the caller-supplied "
                "latency_model override applies to every grid point and would "
                "silently ignore the variation; drop the override or the "
                "latency override in the sweep grid",
            )
    run = run_grid(SWEEP_GRID, sweep, (latency_model,), **engine)
    _observe_sweep(sweep, run)
    return SweepResult(
        name=sweep.name,
        base=spec_to_dict(sweep.base),
        records=run.records,
        executed_rounds=len(run.fresh),
        resumed_rounds=len(run.reused),
        quarantined=run.quarantined,
    )


def _observe_sweep(sweep: SweepSpec, run: GridRun) -> None:
    """Observability hook: per-grid-point executor spans + sweep counters.

    Emitted here — from the grid-order reassembly, on the parent process —
    rather than inside the executors, so the trace is identical whether the
    rounds ran serially, in a worker pool, or came out of a resumed journal.
    Executor spans have no sim clock; their timeline is the grid itself
    (``ts`` = grid index, ``dur`` = the point's total modelled elapsed).
    """
    obs = current_observation()
    if obs is None:
        return
    tracer = obs.tracer
    metrics = obs.metrics
    scenarios = run.context.scenarios
    if tracer is not None and tracer.active:
        # [elapsed, executed, reused] per point, from one grid-order walk.
        tally: List[List[Any]] = [[0, 0, 0] for _spec in scenarios]
        for point, _instance, record, executed in run.in_grid_order():
            if executed:
                tally[point][0] += record.elapsed_seconds
                tally[point][1] += 1
            else:
                tally[point][2] += 1
        for index, spec in enumerate(scenarios):
            elapsed, executed, reused = tally[index]
            tracer.emit(
                "grid_point",
                "executor",
                ts=float(index),
                dur=float(max(elapsed, 0.0)),
                sweep=sweep.name,
                point=index,
                scenario=spec.name,
                executed=executed,
                reused=reused,
            )
    if metrics is not None:
        metrics.counter("sweep.points").inc(len(scenarios))
        metrics.counter("sweep.rounds_executed").inc(len(run.fresh))
        metrics.counter("sweep.rounds_reused").inc(len(run.reused))
        metrics.counter("executor.quarantined").inc(len(run.quarantined))
        for _key, record in sorted(run.fresh.items()):
            metrics.histogram("executor.round_elapsed").observe(record.elapsed_seconds)


def _latency_override_conflict(sweep: SweepSpec) -> Optional[str]:
    """The spec path of a latency variation in the grid, or ``None``."""
    for i, point in enumerate(sweep.points):
        for key in point:
            if key == "latency" or key.startswith("latency."):
                return f"points[{i}].{key}"
    for key, _values in sweep.axes:
        if key == "latency" or key.startswith("latency."):
            return f"axes.{key}"
    return None


# ----------------------------------------------------------------- cache keys --
def _cached(cache: Dict, key, builder, spec: ScenarioSpec):
    if key not in cache:
        cache[key] = builder(spec)
    return cache[key]


def _canonical(value: Any) -> Tuple[Any, ...]:
    """A hashable, order-insensitive canonical form of a spec parameter value.

    Mappings are sorted by key at every nesting level, so semantically equal
    params that differ only in dict insertion order produce the same key.
    Scalars — mapping keys included — are tagged with their type: conflating
    ``1``/``1.0``/``True`` (or the keys ``2``/``"2"``) could alias two
    configurations that build different components, whereas distinguishing
    them merely costs a cache miss.
    """
    if isinstance(value, Mapping):
        # Mapping keys are hashable scalars, so their canonical forms are
        # mutually comparable tuples — sortable without stringification.
        return (
            "map",
            tuple(sorted((_canonical(k), _canonical(v)) for k, v in value.items())),
        )
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(item) for item in value))
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, numbers.Integral):
        return ("int", int(value))
    if isinstance(value, numbers.Real):
        return ("float", float(value))
    if isinstance(value, str):
        return ("str", value)
    if value is None:
        return ("none",)
    return ("repr", type(value).__name__, repr(value))


def _component_key(component) -> Tuple[Any, ...]:
    return (component.kind, _canonical(component.params))


def _mechanism_key(spec: ScenarioSpec) -> Tuple[Any, ...]:
    return (_component_key(spec.mechanism), spec.engine)


def _workload_key(spec: ScenarioSpec) -> Tuple[Any, ...]:
    return (_component_key(spec.effective_workload()), spec.seed)


def _topology_key(spec: ScenarioSpec) -> Tuple[Any, ...]:
    return (_component_key(spec.topology), spec.seed, spec.providers, spec.users)


def _latency_key(spec: ScenarioSpec) -> Tuple[Any, ...]:
    key = _component_key(spec.latency)
    if spec.latency.kind == "community":
        # The model is derived from the generated topology: key it like one.
        return key + _topology_key(spec)
    return key
