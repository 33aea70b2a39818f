"""Declarative scenarios: one spec, one facade, every runner.

This package is the front door of the library.  A scenario is *data* — a
:class:`~repro.scenarios.spec.ScenarioSpec` naming a mechanism, workload,
latency model / topology, adversary strategies and framework configuration via
string kinds — and :class:`~repro.scenarios.simulation.Simulation` executes it
through the existing runners, returning uniform
:class:`~repro.scenarios.runner.RunRecord` rows::

    from repro.scenarios import ScenarioSpec, Simulation

    spec = ScenarioSpec(mechanism="standard", users=50, seed=7)
    with Simulation.from_file("scenario.toml") as sim:
        print(sim.run().to_dict())

Every spec class — scenario, sweep, audit — round-trips losslessly through
JSON and TOML files by one walker over its dataclass fields
(:func:`~repro.scenarios.spec.spec_from_dict` / ``spec_to_dict``,
:mod:`repro.scenarios.io`), sweeps express grids over any spec field
(:mod:`repro.scenarios.sweep`), and the paper's Figure 4 / Figure 5
experiments ship as built-in sweep specs (:mod:`repro.scenarios.builtin`).
New mechanisms/workloads/latency models/adversaries plug in through the
registries (:mod:`repro.scenarios.registry`) — a registry entry plus a spec
file is a complete new scenario.
"""

from repro.scenarios.builtin import figure4_sweep, figure5_sweep
from repro.scenarios.dispatch import WorkerPlan, resolve_workers
from repro.scenarios.chaos import (
    ChaosRecord,
    ChaosResult,
    ChaosSpec,
    FaultSpec,
    run_chaos,
)
from repro.scenarios.io import dump_spec, dumps_toml, load_any, load_spec
from repro.scenarios.registry import (
    ADVERSARIES,
    BIDDER_STRATEGIES,
    LATENCIES,
    MECHANISMS,
    SCHEDULERS,
    TOPOLOGIES,
    WORKLOADS,
    Registry,
)
from repro.scenarios.resilience import (
    AdversarySpec,
    ResilienceRecord,
    ResilienceResult,
    ResilienceSpec,
    run_resilience,
)
from repro.scenarios.runner import RunRecord, run_scenario
from repro.scenarios.simulation import BatchResult, Simulation
from repro.scenarios.spec import (
    BidderSpec,
    ComponentSpec,
    ConfigSpec,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    parse_assignments,
    spec_fingerprint,
    spec_from_dict,
    spec_to_dict,
    spec_with_overrides,
)
from repro.scenarios.aggregate import (
    MetricAccumulator,
    StreamingSummary,
    render_records,
    render_series,
    render_summary,
)
from repro.scenarios.columnar import ColumnarStoreBackend
from repro.scenarios.store import (
    JsonlStoreBackend,
    ResultsStore,
    StoreBackend,
    convert_journal,
    sniff_format,
)
from repro.scenarios.sweep import ComponentCache, SweepResult, run_sweep

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "BIDDER_STRATEGIES",
    "BatchResult",
    "BidderSpec",
    "ChaosRecord",
    "ChaosResult",
    "ChaosSpec",
    "ColumnarStoreBackend",
    "ComponentCache",
    "ComponentSpec",
    "ConfigSpec",
    "FaultSpec",
    "JsonlStoreBackend",
    "LATENCIES",
    "MECHANISMS",
    "MetricAccumulator",
    "Registry",
    "ResilienceRecord",
    "ResilienceResult",
    "ResilienceSpec",
    "ResultsStore",
    "RunRecord",
    "SCHEDULERS",
    "ScenarioSpec",
    "Simulation",
    "SpecError",
    "StoreBackend",
    "StreamingSummary",
    "SweepResult",
    "SweepSpec",
    "TOPOLOGIES",
    "WORKLOADS",
    "WorkerPlan",
    "convert_journal",
    "dump_spec",
    "dumps_toml",
    "figure4_sweep",
    "figure5_sweep",
    "load_any",
    "load_spec",
    "parse_assignments",
    "render_records",
    "render_series",
    "render_summary",
    "resolve_workers",
    "run_chaos",
    "run_resilience",
    "run_scenario",
    "run_sweep",
    "sniff_format",
    "spec_fingerprint",
    "spec_from_dict",
    "spec_to_dict",
    "spec_with_overrides",
]
