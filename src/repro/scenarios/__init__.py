"""Declarative scenarios: one spec, four functions, every runner.

This package is the front door of the library.  A scenario is *data* — a
:class:`~repro.scenarios.spec.ScenarioSpec` naming a mechanism, workload,
latency model / topology, adversary strategies and framework configuration via
string kinds.  :func:`run_scenario` runs one round of it through the existing
runners and returns a uniform :class:`~repro.scenarios.runner.RunRecord`;
:func:`run_sweep`, :func:`run_resilience` and :func:`run_chaos` run a grid
around it and return a :class:`~repro.scenarios.grid.GridResult` of records::

    spec = load_spec("scenario.toml")
    print(run_scenario(spec).to_dict())
    batch = run_sweep(SweepSpec(base=spec))   # spec.rounds rounds

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

from repro.common import lazy_exports
from repro.scenarios.builtin import figure4_sweep, figure5_sweep
from repro.scenarios.dispatch import WorkerPlan, resolve_workers
from repro.scenarios.chaos import ChaosRecord, ChaosSpec, FaultSpec, run_chaos
from repro.scenarios.grid import GridResult
from repro.scenarios.io import dump_spec, dumps_toml, load_any, load_spec
from repro.scenarios.registry import (
    ADVERSARIES,
    BIDDER_STRATEGIES,
    FAULTS,
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
    ResilienceSpec,
    run_resilience,
)
from repro.scenarios.runner import RunRecord, run_scenario
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
from repro.scenarios.render import render_records, render_series, render_summary
from repro.scenarios.store import (
    JsonlStoreBackend,
    ResultsStore,
    StoreBackend,
    convert_journal,
    sniff_format,
)
from repro.scenarios.sweep import ComponentCache, run_sweep

#: The NumPy-backed exports resolve on first use (PEP 562), so that
#: ``import repro.scenarios`` and a round that neither summarises nor writes a
#: columnar journal never import NumPy (``tests/test_import_footprint.py``).
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "MetricAccumulator": "repro.scenarios.aggregate",
        "StreamingSummary": "repro.scenarios.aggregate",
        "ColumnarStoreBackend": "repro.scenarios.columnar",
    },
)

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "BIDDER_STRATEGIES",
    "BidderSpec",
    "ChaosRecord",
    "ChaosSpec",
    "ColumnarStoreBackend",
    "ComponentCache",
    "ComponentSpec",
    "ConfigSpec",
    "FAULTS",
    "FaultSpec",
    "GridResult",
    "JsonlStoreBackend",
    "LATENCIES",
    "MECHANISMS",
    "MetricAccumulator",
    "Registry",
    "ResilienceRecord",
    "ResilienceSpec",
    "ResultsStore",
    "RunRecord",
    "SCHEDULERS",
    "ScenarioSpec",
    "SpecError",
    "StoreBackend",
    "StreamingSummary",
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
