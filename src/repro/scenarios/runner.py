"""Execute one :class:`~repro.scenarios.spec.ScenarioSpec` and record the result.

:func:`run_scenario` runs one round of a spec — the ``run`` command and every
cell of a sweep (so the Figure 4 / Figure 5 sweeps): it resolves the spec's
registry references into live components, dispatches to the existing runners
(:class:`~repro.core.framework.DistributedAuctioneer`,
:class:`~repro.core.framework.CentralizedAuctioneer`,
:class:`~repro.runtime.auction_run.AuctionRun`) and normalises whatever they
report into one :class:`RunRecord` schema.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import MISSING, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.auctions.base import AllocationAlgorithm, BidVector
from repro.auctions.engine.pivot import shared_solve_cache
from repro.community.workload import default_provider_ids
from repro.core.config import ConfigError
from repro.core.framework import CentralizedAuctioneer, DistributedAuctioneer
from repro.core.outcome import Outcome
from repro.net.latency import LatencyModel
from repro.obs.context import current_observation
from repro.runtime.auction_run import AuctionRun
from repro.scenarios.registry import (
    BIDDER_STRATEGIES,
    LATENCIES,
    MECHANISMS,
    TOPOLOGIES,
    WORKLOADS,
)
from repro.scenarios.spec import ComponentSpec, ScenarioSpec, SpecError

__all__ = [
    "RunRecord",
    "build_mechanism",
    "check_node",
    "check_round",
    "build_workload",
    "build_latency_model",
    "resolve_provider_ids",
    "resolve_round_inputs",
    "run_scenario",
]

class FlatRecord:
    """``to_dict`` / ``from_dict`` for a flat frozen-dataclass record.

    One key per field, in field order, so the dict form (journal bytes,
    columnar schemas) cannot drift from the field list; lossless for JSON
    scalar fields (``json`` round-trips floats exactly).  Two irregularities
    are declared on the field, not coded: ``field(metadata={"key": ...})``
    writes the field under another key, and a field *with a default* is
    written only when it differs from it and read back as the default when
    absent — how a field is added without changing the bytes of records that
    do not use it.  ``from_dict`` ignores unknown keys and raises ``KeyError``
    on a missing required one (a corrupt journal row, reported as such by the
    store).
    """

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for name, key, default in _flat_fields(type(self)):
            value = getattr(self, name)
            if default is MISSING or value != default:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return cls(
            **{
                name: data[key] if default is MISSING else data.get(key, default)
                for name, key, default in _flat_fields(cls)
            }
        )


@functools.lru_cache(maxsize=None)
def _flat_fields(cls: type) -> Tuple[Tuple[str, str, Any], ...]:
    """``(field name, dict key, default or MISSING)`` per dataclass field."""
    return tuple(
        (f.name, f.metadata.get("key", f.name), f.default) for f in dataclasses.fields(cls)
    )


@dataclass(frozen=True)
class RunRecord(FlatRecord):
    """The uniform result schema of every scenario execution.

    One record per round, whatever the runner: scenario identity and shape,
    protocol cost (time / messages / bytes) and the economic outcome.
    :meth:`to_dict` renders the record JSON-ready; :meth:`from_dict`
    rehydrates it losslessly (results journals).
    """

    name: str
    series: str
    runner: str
    mechanism: str
    engine: Optional[str]
    users: int
    providers: int
    executors: int
    k: int
    parallel: bool
    instance: int
    seed: int
    elapsed_seconds: float
    messages: int
    bytes_transferred: int = field(metadata={"key": "bytes"})
    aborted: bool
    winners: int
    total_paid: float
    total_received: float
    # True when some provider closed an agreement round on a timeout quorum
    # (FrameworkConfig.round_timeout).  Serialized only when set, so journals
    # of ordinary runs — and their fingerprints — are byte-identical to
    # records written before the field existed.
    degraded: bool = False


# ------------------------------------------------------------------- components --
def build_mechanism(spec: ScenarioSpec, path: str = "mechanism") -> AllocationAlgorithm:
    """The spec's allocation algorithm; a build error is reported at ``path``
    (``base.mechanism`` inside an audit spec, ``points[i].mechanism`` for a sweep point)."""
    return MECHANISMS.create(spec.mechanism, path)


def build_workload(spec: ScenarioSpec):
    """The spec's workload generator, seeded with the scenario seed."""
    return WORKLOADS.create(spec.effective_workload(), "workload", seed=spec.seed)


def build_topology(spec: ScenarioSpec):
    """The generated community network, or ``None`` for flat scenarios."""
    if spec.topology is None:
        return None
    return TOPOLOGIES.create(
        spec.topology,
        "topology",
        seed=spec.seed,
        num_gateways=spec.providers,
        num_nodes=max(spec.users + spec.providers, 20),
    )


def build_latency_model(spec: ScenarioSpec, topology=None) -> LatencyModel:
    """The spec's latency model; ``"community"`` derives it from the topology."""
    if spec.latency.kind == "community":
        if topology is None:
            topology = build_topology(spec)
        if topology is None:
            raise SpecError("latency", "the 'community' latency model requires a topology")
        return topology.latency_model(**dict(spec.latency.params))
    return LATENCIES.create(spec.latency, "latency")


def resolve_provider_ids(spec: ScenarioSpec, topology=None, path: str = "topology") -> List[str]:
    """The ids of the spec's providers: the topology's gateways, else the defaults.

    ``path`` is where a topology/provider-count mismatch is reported:
    ``topology`` for a bare scenario, ``base.topology`` inside an audit spec.
    """
    if topology is None:
        return default_provider_ids(spec.providers)
    provider_ids = list(topology.gateways)
    if len(provider_ids) != spec.providers:
        raise SpecError(
            path,
            f"topology produced {len(provider_ids)} gateways for providers={spec.providers}",
        )
    return provider_ids


def executors_of(spec: ScenarioSpec, provider_ids: List[str]) -> List[str]:
    """The providers that run the protocol: the first ``spec.executors``, else all."""
    return provider_ids[: spec.executors] if spec.executors is not None else provider_ids


def check_node(path: str, node: Any, executor_ids: Sequence[str]) -> None:
    """A :class:`SpecError` at ``path`` unless ``node`` is an executing provider."""
    if node not in executor_ids:
        raise SpecError(
            path, f"unknown provider id {node!r}; executing providers: {', '.join(executor_ids)}"
        )


def resolve_round_inputs(
    spec: ScenarioSpec,
    instance: int = 0,
    *,
    workload=None,
    topology=None,
    latency_model: Optional[LatencyModel] = None,
    bids: Optional[BidVector] = None,
    path: str = "topology",
) -> Tuple[List[str], List[str], BidVector, Optional[LatencyModel]]:
    """Resolve ``workload -> topology -> provider ids -> executor ids -> bids -> latency``.

    The one place a spec becomes the inputs of a round — returned as
    ``(provider_ids, executor_ids, bids, latency_model)``; :func:`run_scenario`
    and the audit contexts all come through here.  Pre-resolved ``workload``
    / ``topology`` / ``latency_model`` / ``bids`` are used as given (callers
    that amortise state across rounds; ``bids`` must be the workload's
    ``generate`` of this spec and instance).  The centralised
    baseline never consumes latency, so its model stays unbuilt.  ``path``:
    see :func:`resolve_provider_ids`.
    """
    if workload is None and bids is None:
        workload = build_workload(spec)
    if topology is None:
        topology = build_topology(spec)
    provider_ids = resolve_provider_ids(spec, topology, path)
    executor_ids = executors_of(spec, provider_ids)
    if bids is None:
        bids = workload.generate(
            spec.users, spec.providers, provider_ids=provider_ids, instance=instance
        )
    if latency_model is None and spec.runner != "centralized":
        latency_model = build_latency_model(spec, topology)
    return provider_ids, executor_ids, bids, latency_model


def check_round(spec: ScenarioSpec, mechanism, prefix: str = "") -> None:
    """The checks of a round that need only its spec and its mechanism.

    ``users <= mechanism.max_users`` and — for a runner that hosts the
    protocol — :meth:`FrameworkConfig.check <repro.core.config.FrameworkConfig.check>`
    with ``m`` = ``executors`` or ``providers`` (the gateway count, see
    :func:`resolve_provider_ids`), its refusal a :class:`SpecError` at
    ``config.<field>``: the executor count is known only once the round's
    inputs are resolved, so a spec that loads cleanly can still ask for a
    protocol it cannot run.  ``prefix`` is ``base.`` inside an audit spec, and
    ``points[i].`` / ``axes.`` for a sweep point
    (:meth:`~repro.scenarios.spec.SweepSpec.point_path`).
    """
    limit = mechanism.max_users
    if limit is not None and spec.users > limit:
        raise SpecError(
            f"{prefix}users", f"at most max_users={limit} for {mechanism.name!r}, got {spec.users}"
        )
    if spec.runner == "distributed":
        executors = spec.executors or spec.providers
    elif spec.runner == "auction_run":
        executors = spec.providers  # every provider hosts a node
    else:
        return
    try:
        spec.config.to_config().check(executors, mechanism)
    except ConfigError as exc:
        raise SpecError(f"{prefix}config.{exc.field}", str(exc)) from exc


def build_auctioneer(
    spec: ScenarioSpec,
    mechanism,
    executor_ids,
    latency_model,
    **extra: Any,
) -> DistributedAuctioneer:
    """The spec's distributed auctioneer over already-resolved round inputs
    (whose configuration :func:`check_round` has judged)."""
    return DistributedAuctioneer(
        mechanism,
        providers=executor_ids,
        config=spec.config.to_config(),
        latency_model=latency_model,
        seed=spec.seed,
        **extra,
    )


def _bidder_strategies(spec: ScenarioSpec, user_ids) -> Dict[str, Any]:
    strategies: Dict[str, Any] = {}
    for i, bidder in enumerate(spec.bidders):
        path = f"bidders[{i}]"
        targets: List[str] = list(bidder.users)
        for index in bidder.indices:
            if index >= len(user_ids):
                raise SpecError(
                    f"{path}.indices",
                    f"user index {index} out of range for {len(user_ids)} users",
                )
            targets.append(user_ids[index])
        known = set(user_ids)
        for user_id in targets:
            if user_id not in known:
                raise SpecError(
                    f"{path}.users", f"unknown user id {user_id!r} in this workload"
                )
            if user_id in strategies:
                raise SpecError(
                    path,
                    f"user {user_id!r} is selected by more than one bidder entry; "
                    "each user may carry at most one strategy",
                )
            # One instance per user: strategies may carry per-provider state.
            strategies[user_id] = BIDDER_STRATEGIES.create(
                ComponentSpec(bidder.kind, bidder.params), path
            )
    return strategies


# --------------------------------------------------------------------- execution --
def run_scenario(
    spec: ScenarioSpec,
    instance: int = 0,
    *,
    mechanism: Optional[AllocationAlgorithm] = None,
    workload=None,
    latency_model: Optional[LatencyModel] = None,
    topology=None,
    bids: Optional[BidVector] = None,
) -> RunRecord:
    """Run one round of the scenario and return its :class:`RunRecord`.

    The keyword overrides let callers that amortise state across rounds (the
    sweep and audit contexts) pass in pre-resolved components; semantics are
    identical either way.
    """
    if mechanism is None:
        mechanism = build_mechanism(spec)
    check_round(spec, mechanism)
    provider_ids, executor_ids, bids, latency_model = resolve_round_inputs(
        spec,
        instance,
        workload=workload,
        topology=topology,
        latency_model=latency_model,
        bids=bids,
    )

    # Observability hooks (see repro.obs): each round opens its own span on a
    # fresh track — sim clocks restart at 0 every round, so two rounds must
    # not share a timeline lane — and the engine's memo counters are read
    # before/after so the hub records per-round *deltas* (the process-wide
    # cache survives across rounds; absolute totals would conflate runs).
    obs = current_observation()
    span_open = False
    memo_base = None
    if obs is not None:
        if obs.tracer is not None and obs.tracer.active:
            obs.tracer.open("round", "scenario", ts=0.0, new_track=True)
            span_open = True
        if obs.metrics is not None:
            cache = shared_solve_cache()
            memo_base = (cache.hits, cache.misses)

    record = None
    try:
        if spec.runner == "centralized":
            report = CentralizedAuctioneer(mechanism, seed=spec.seed).run(bids)
            outcome = report.outcome
            # The trusted auctioneer sees every provider's ask — executor
            # subsetting does not apply, so the record must not claim it did.
            executor_ids = provider_ids
        elif spec.runner == "distributed":
            auctioneer = build_auctioneer(spec, mechanism, executor_ids, latency_model)
            outcome = auctioneer.run_from_bids(bids).outcome
        else:  # auction_run
            if spec.executors is not None:
                raise SpecError(
                    "executors",
                    "executor subsetting is not supported by the 'auction_run' runner "
                    "(every provider in the workload hosts a node)",
                )
            run = AuctionRun(
                bids,
                mechanism,
                config=spec.config.to_config(),
                bidder_strategies=_bidder_strategies(spec, list(bids.user_ids)),
                deadline=spec.deadline,
                latency_model=latency_model,
                seed=spec.seed,
            )
            outcome = run.execute().outcome
        record = record_from_outcome(spec, instance, outcome, mechanism, len(executor_ids))
    finally:
        # The span is closed even when a cell raises (chaos audits catch and
        # continue), so one failed round can never corrupt the nesting of
        # every round after it.
        if obs is not None:
            _observe_round(obs, spec, instance, record, memo_base, span_open)
    return record


def _observe_round(
    obs,
    spec: ScenarioSpec,
    instance: int,
    record: Optional["RunRecord"],
    memo_base,
    span_open: bool,
) -> None:
    """Close the round span and fold the round's deltas into the metrics hub."""
    if span_open:
        obs.tracer.close(
            dur=float(record.elapsed_seconds) if record is not None else 0.0,
            name=spec.name,
            instance=instance,
            ok=record is not None,
        )
    metrics = obs.metrics
    if metrics is None:
        return
    metrics.counter("rounds").inc()
    if record is not None:
        metrics.histogram("round.elapsed").observe(record.elapsed_seconds)
        metrics.counter("round.messages").inc(record.messages)
        if record.aborted:
            metrics.counter("round.aborted").inc()
    if memo_base is not None:
        cache = shared_solve_cache()
        hits = cache.hits - memo_base[0]
        misses = cache.misses - memo_base[1]
        metrics.counter("engine.solve_memo_hits").inc(hits)
        metrics.counter("engine.solve_memo_misses").inc(misses)
        if hits + misses:
            metrics.gauge("engine.solve_memo_hit_rate").set(hits / (hits + misses))


def record_from_outcome(
    spec: ScenarioSpec,
    instance: int,
    outcome: Outcome,
    mechanism: AllocationAlgorithm,
    executors: int,
) -> RunRecord:
    """Normalise an :class:`~repro.core.outcome.Outcome` into a :class:`RunRecord`.

    ``engine`` is the live mechanism's ``engine`` attribute (``"vectorized"``
    for the ``standard`` kind), ``"reference"`` for a mechanism without one.
    """
    aborted = outcome.aborted
    winners = 0
    total_paid = 0.0
    total_received = 0.0
    if not aborted:
        result = outcome.auction_result
        winners = len(result.allocation.winners())
        total_paid = result.payments.total_paid
        total_received = result.payments.total_received
    return RunRecord(
        name=spec.name,
        series=spec.default_series(),
        runner=spec.runner,
        mechanism=mechanism.name,
        engine=getattr(mechanism, "engine", "reference"),
        users=spec.users,
        providers=spec.providers,
        executors=executors,
        k=spec.config.k,
        parallel=spec.config.parallel,
        instance=instance,
        seed=spec.seed,
        elapsed_seconds=outcome.elapsed_time,
        messages=outcome.messages,
        bytes_transferred=outcome.bytes_transferred,
        aborted=aborted,
        winners=winners,
        total_paid=total_paid,
        total_received=total_received,
        degraded=outcome.degraded,
    )
