"""The :class:`Simulation` facade — the library's single front door.

One object, one round or a grid::

    sim = Simulation(spec)            # or Simulation.from_file("scenario.toml")
    record  = sim.run()               # one round -> RunRecord
    batch   = sim.sweep()             # spec.rounds rounds -> GridResult
    result  = sim.sweep(axes={...})   # a grid around this spec -> GridResult

``run`` dispatches to the pre-existing runners (``DistributedAuctioneer``,
``CentralizedAuctioneer``, ``AuctionRun``), which remain fully supported as
the low-level API; the grid methods (``sweep``, ``audit_resilience``,
``run_chaos``) run a spec built around this scenario through the grid
engine.  A batch of rounds is a one-point sweep.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.scenarios.chaos import ChaosSpec, run_chaos
from repro.scenarios.grid import ENGINE_KEYWORDS, GridResult
from repro.scenarios.io import load_spec
from repro.scenarios.resilience import ResilienceSpec, run_resilience
from repro.scenarios.runner import RunRecord, run_scenario
from repro.scenarios.spec import (
    ScenarioSpec,
    SpecError,
    SweepSpec,
    spec_from_dict,
    spec_with_overrides,
)
from repro.scenarios.sweep import ComponentCache, run_sweep

__all__ = ["Simulation"]


class Simulation:
    """Run a declarative scenario: one round, or a grid around it.

    The facade resolves the spec's registry references lazily through one
    :class:`~repro.scenarios.sweep.ComponentCache`, so repeated rounds share
    the mechanism (and the solve memo it fills), the workload generator and
    the generated topology.  Use it as a context manager (or call
    :meth:`close`) to release engine resources.
    """

    def __init__(self, spec: Union[ScenarioSpec, Mapping[str, Any]]) -> None:
        if isinstance(spec, Mapping):
            spec = spec_from_dict(spec)
        if not isinstance(spec, ScenarioSpec):
            raise SpecError("spec", f"expected a ScenarioSpec, got {type(spec).__name__}")
        self.spec = spec
        self.cache = ComponentCache()

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
        return self.cache.mechanism(self.spec)

    @property
    def topology(self):
        return self.cache.topology(self.spec)

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Release engine resources the facade created (idempotent)."""
        self.cache.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------------
    def run(self, instance: int = 0) -> RunRecord:
        """Run one round of the scenario (workload instance ``instance``)."""
        spec, topology = self.spec, self.topology
        return run_scenario(
            spec,
            instance,
            mechanism=self.mechanism,
            workload=self.cache.workload(spec),
            # The centralised baseline never consumes latency; keep it unbuilt
            # so facade and bare run_scenario stay semantically identical.
            latency_model=(
                self.cache.latency(spec, topology) if spec.runner != "centralized" else None
            ),
            topology=topology,
        )

    def _grid(self, spec_type, run, suffix: str, fields: Dict[str, Any]):
        """Build ``spec_type(base=self.spec, **fields)`` and run it.

        ``fields`` mixes the spec's own fields — in keyword or file form, the
        constructors accept both — with the grid engine's options
        (:data:`~repro.scenarios.grid.ENGINE_KEYWORDS`: ``workers``, ``store``,
        ``store_format``, ``resume``), which go to ``run``.
        """
        engine = {key: fields.pop(key) for key in ENGINE_KEYWORDS if key in fields}
        fields.setdefault("name", f"{self.spec.name}-{suffix}")
        return run(spec_type(base=self.spec, **fields), **engine)

    def sweep(self, **fields: Any) -> GridResult:
        """Run a grid of variations around this scenario.

        ``fields`` are :class:`SweepSpec`'s (``axes={"users": [30, 60]}``,
        ``points=[...]``, ``name``) plus the grid engine's options, see
        :func:`repro.scenarios.sweep.run_sweep`.  With no grid it runs the
        scenario's own ``rounds`` rounds — the batch run
        (``points=[{"rounds": 20}]`` asks for another count).
        """
        return self._grid(SweepSpec, run_sweep, "sweep", fields)

    def audit_resilience(self, **fields: Any) -> GridResult:
        """Audit the paper's k-resilience claim around this scenario.

        ``fields`` are :class:`~repro.scenarios.resilience.ResilienceSpec`'s
        (``k``, ``coalitions``, ``adversaries``, ``schedules``, ``seeds`` …)
        plus the grid engine's options, see
        :func:`~repro.scenarios.resilience.run_resilience`.  With no arguments
        it audits every coalition up to the scenario's configured ``k`` against
        the built-in deviation library under the fair schedule.
        """
        return self._grid(ResilienceSpec, run_resilience, "resilience", fields)

    def run_chaos(self, faults: Iterable[Any], **fields: Any) -> GridResult:
        """Chaos-audit this scenario under injected faults.

        ``faults`` entries are fault kinds (``"loss"``) or parameter tables
        (``{"kind": "loss", "rate": 0.2}``); ``fields`` are the rest of
        :class:`~repro.scenarios.chaos.ChaosSpec`'s (``recovery``, ``seeds``,
        ``name``) plus the grid engine's options, see
        :func:`~repro.scenarios.chaos.run_chaos`.
        """
        return self._grid(ChaosSpec, run_chaos, "chaos", dict(fields, faults=faults))
