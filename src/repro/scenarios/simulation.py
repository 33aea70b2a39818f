"""The :class:`Simulation` facade — the library's single front door.

One object, three verbs::

    sim = Simulation(spec)            # or Simulation.from_file("scenario.toml")
    record  = sim.run()               # one round -> RunRecord
    batch   = sim.run_batch()         # spec.rounds rounds -> BatchResult
    result  = sim.sweep(axes={...})   # a grid around this spec -> SweepResult

All three dispatch to the pre-existing runners (``DistributedAuctioneer``,
``CentralizedAuctioneer``, ``AuctionRun``), which remain fully supported as
the low-level API; the facade adds the declarative layer, state amortisation
across rounds, and the uniform record schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.scenarios.chaos import ChaosResult, ChaosSpec, run_chaos
from repro.scenarios.grid import ENGINE_KEYWORDS
from repro.scenarios.io import load_spec
from repro.scenarios.resilience import ResilienceResult, ResilienceSpec, run_resilience
from repro.scenarios.runner import (
    RunRecord,
    build_latency_model,
    build_mechanism,
    build_topology,
    build_workload,
    run_scenario,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    SpecError,
    SweepSpec,
    spec_from_dict,
    spec_with_overrides,
)
from repro.scenarios.sweep import SweepResult, run_sweep

__all__ = ["Simulation", "BatchResult"]


@dataclass
class BatchResult:
    """Per-round records of a batch plus their aggregate."""

    records: List[RunRecord] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return len(self.records)

    @property
    def aborted_rounds(self) -> int:
        return sum(1 for record in self.records if record.aborted)

    @property
    def total_elapsed_seconds(self) -> float:
        return sum(record.elapsed_seconds for record in self.records)

    @property
    def mean_elapsed_seconds(self) -> float:
        return self.total_elapsed_seconds / len(self.records) if self.records else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rounds": self.total_rounds,
            "aborted_rounds": self.aborted_rounds,
            "total_elapsed_seconds": self.total_elapsed_seconds,
            "mean_elapsed_seconds": self.mean_elapsed_seconds,
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class Simulation:
    """Run a declarative scenario: one round, many rounds, or a sweep.

    The facade resolves the spec's registry references lazily and caches them,
    so repeated rounds share the mechanism (and the solve memo it fills),
    the workload generator and the generated topology.  Use it as a context
    manager (or call :meth:`close`) to release engine resources.
    """

    def __init__(self, spec: Union[ScenarioSpec, Mapping[str, Any]]) -> None:
        if isinstance(spec, Mapping):
            spec = spec_from_dict(spec)
        if not isinstance(spec, ScenarioSpec):
            raise SpecError("spec", f"expected a ScenarioSpec, got {type(spec).__name__}")
        self.spec = spec
        self._mechanism = None
        self._workload = None
        self._topology = None
        self._topology_built = False
        self._latency = None

    # -- constructors --------------------------------------------------------------
    @classmethod
    def from_file(
        cls, path, overrides: Optional[Mapping[str, Any]] = None
    ) -> "Simulation":
        """Load a scenario spec file and (optionally) apply dotted-path overrides."""
        spec = load_spec(path)
        if overrides:
            spec = spec_with_overrides(spec, overrides)
        return cls(spec)

    # -- cached components ---------------------------------------------------------
    @property
    def mechanism(self):
        if self._mechanism is None:
            self._mechanism = build_mechanism(self.spec)
        return self._mechanism

    @property
    def workload(self):
        if self._workload is None:
            self._workload = build_workload(self.spec)
        return self._workload

    @property
    def topology(self):
        if not self._topology_built:
            self._topology = build_topology(self.spec)
            self._topology_built = True
        return self._topology

    @property
    def latency_model(self):
        if self._latency is None:
            self._latency = build_latency_model(self.spec, self.topology)
        return self._latency

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Release engine resources the facade created (idempotent)."""
        if self._mechanism is not None:
            close = getattr(self._mechanism, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------------
    def run(self, instance: int = 0) -> RunRecord:
        """Run one round of the scenario (workload instance ``instance``)."""
        return run_scenario(
            self.spec,
            instance,
            mechanism=self.mechanism,
            workload=self.workload,
            # The centralised baseline never consumes latency; keep it unbuilt
            # so facade and bare run_scenario stay semantically identical.
            latency_model=(
                self.latency_model if self.spec.runner != "centralized" else None
            ),
            topology=self.topology,
        )

    def run_batch(
        self, rounds: Optional[int] = None, instances: Optional[Iterable[int]] = None
    ) -> BatchResult:
        """Run many rounds over fresh workload instances, amortising all setup.

        ``instances`` wins over ``rounds``; the default is the spec's own
        ``rounds`` field (instances ``0 .. rounds-1``).
        """
        if instances is None:
            instances = range(rounds if rounds is not None else self.spec.rounds)
        result = BatchResult()
        for instance in instances:
            result.records.append(self.run(instance))
        return result

    def _grid(self, spec_type, run, suffix: str, fields: Dict[str, Any]):
        """Build ``spec_type(base=self.spec, **fields)`` and run it.

        ``fields`` mixes the spec's own fields — in keyword or file form, the
        constructors accept both — with the grid engine's options
        (:data:`~repro.scenarios.grid.ENGINE_KEYWORDS`: ``workers``, ``store``,
        ``store_format``, ``resume``, ``failure_mode``), which go to ``run``.
        """
        engine = {key: fields.pop(key) for key in ENGINE_KEYWORDS if key in fields}
        fields.setdefault("name", f"{self.spec.name}-{suffix}")
        return run(spec_type(base=self.spec, **fields), **engine)

    def sweep(self, **fields: Any) -> SweepResult:
        """Run a grid of variations around this scenario.

        ``fields`` are :class:`SweepSpec`'s (``axes={"users": [30, 60]}``,
        ``points=[...]``, ``name``) plus the grid engine's options, see
        :func:`repro.scenarios.sweep.run_sweep`.
        """
        return self._grid(SweepSpec, run_sweep, "sweep", fields)

    def audit_resilience(self, **fields: Any) -> ResilienceResult:
        """Audit the paper's k-resilience claim around this scenario.

        ``fields`` are :class:`~repro.scenarios.resilience.ResilienceSpec`'s
        (``k``, ``coalitions``, ``adversaries``, ``schedules``, ``seeds`` …)
        plus the grid engine's options, see
        :func:`~repro.scenarios.resilience.run_resilience`.  With no arguments
        it audits every coalition up to the scenario's configured ``k`` against
        the built-in deviation library under the fair schedule.
        """
        return self._grid(ResilienceSpec, run_resilience, "resilience", fields)

    def run_chaos(self, faults: Iterable[Any], **fields: Any) -> ChaosResult:
        """Chaos-audit this scenario under injected faults.

        ``faults`` entries are fault kinds (``"loss"``) or parameter tables
        (``{"kind": "loss", "rate": 0.2}``); ``fields`` are the rest of
        :class:`~repro.scenarios.chaos.ChaosSpec`'s (``recovery``, ``seeds``,
        ``name``) plus the grid engine's options, see
        :func:`~repro.scenarios.chaos.run_chaos`.
        """
        return self._grid(ChaosSpec, run_chaos, "chaos", dict(fields, faults=faults))
