"""The traced run: a span recorder and one probe per layer, all from outside.

Nothing here runs during a timed run.  The traced run replays ops stage by
stage, each public call into a layer wrapped in a span of the benchmark's own
in-memory recorder; the spans are written out after the last op.  A probe
times a layer's public call on the workload's own bids, so its number sizes
the layer; the ``share.*`` profile only ranks layers (see ``layer_shares``).

A probe whose layer is not on a workload's op path reports 0 there.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from workloads import ChaosGrid, Workload, _FigureSweep

import repro
from repro.auctions.engine import clear_solve_cache
from repro.auctions.engine.pivot import shared_solve_cache
from repro.community.workload import default_provider_ids
from repro.consensus.multi_consensus import BatchedConsensusBlock
from repro.net.faults import FaultPlan, make_fault
from repro.net.network import SimNetwork
from repro.net.node import Node
from repro.net.protocol import ProtocolNode
from repro.net.serialization import canonical_encode, estimate_size
from repro.obs import observe
from repro.runtime.auction_run import AuctionRun
from repro.scenarios import ResultsStore, run_chaos, run_scenario, run_sweep
from repro.scenarios.runner import record_from_outcome

#: How a traced run spends ``--seconds``: shares of the budget per phase (the
#: one-shot probes take the rest).  Every phase runs at least ``MIN_OPS`` ops.
TRACED_SHARE, PROFILE_SHARE, OBS_SHARE = 0.45, 0.15, 0.20
MIN_OPS = 2
#: Index ranges of the phases.  A phase that runs one op twice clears the
#: solve memo in between, so every op still starts on a cold memo.
_TRACED_BASE, _PROFILE_BASE, _OBS_BASE = 0, 10_000, 20_000
#: Ops of the traced phase that feed the exact (counted) layer metrics.
EXACT_OPS = 2

STORE_RECORDS = 5_000
FLOOD_NODES, FLOOD_MESSAGES, FLOOD_WINDOW = 8, 20_000, 32
SMALL_CALLS = 256
PROBE_REPEATS = 7

LAYERS = (
    "net.serialization",
    "net",
    "net.scheduler",
    "net.faults",
    "auctions",
    "auctions.engine",
    "consensus",
    "core",
    "runtime",
    "community",
    "scenarios",
    "scenarios.store",
    "obs",
    "other",
)

#: ``src/repro``-relative path prefix -> layer; the first match wins.
_LAYER_OF_PATH = (
    ("net/serialization.py", "net.serialization"),
    ("net/faults.py", "net.faults"),
    ("net/scheduler.py", "net.scheduler"),
    ("net/", "net"),
    ("auctions/engine/", "auctions.engine"),
    ("auctions/", "auctions"),
    ("consensus/", "consensus"),
    ("core/", "core"),
    ("runtime/", "runtime"),
    ("community/", "community"),
    ("scenarios/store.py", "scenarios.store"),
    ("scenarios/columnar.py", "scenarios.store"),
    ("scenarios/aggregate.py", "scenarios.store"),
    ("scenarios/", "scenarios"),
    ("obs/", "obs"),
)
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Protocol block path prefix -> message-count metric; the rest is ``other``.
_BLOCK_OF_TAG = (
    ("framework/ba", "net.msgs_bid_agreement"),
    ("framework/alloc/iv", "net.msgs_input_validation"),
    ("framework/alloc/coin", "net.msgs_common_coin"),
)


# ------------------------------------------------------------------ recorder --
class SpanRecorder:
    """In-memory spans: ``name, start, end, parent, op_id``; written at the end."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, Optional[int], int]]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op_id: int) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, op_id)

    def seconds(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.seconds(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, op_id = span
                row = {"id": index, "name": name, "start": start, "end": end,
                       "parent": parent, "op_id": op_id}
                handle.write(json.dumps(row) + "\n")


def _timed(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _ops_for(budget: float, base: int, run: Callable[[int], None]) -> int:
    """Run ``run(base + j)`` until ``budget`` seconds are spent; the op count."""
    start = time.perf_counter()
    count = 0
    while count < MIN_OPS or time.perf_counter() - start < budget:
        run(base + count)
        count += 1
    return count


def _paired_op(workload: Workload, i: int, wrap, plain: List[float], wrapped: List[float]):
    """Op ``i`` once plain and once inside ``wrap()``, each on a cold memo.

    The side that goes first alternates with ``i``, so whatever the first
    execution of an op pays does not land on one side.  Returns the wrapped
    side's ``(context value, output)``.
    """
    result = None
    for side in ((0, 1) if i % 2 else (1, 0)):
        clear_solve_cache()
        if side == 0:
            plain.append(_timed(lambda: workload.op(i)))
        else:
            with wrap() as context:
                start = time.perf_counter()
                output = workload.op(i)
                wrapped.append(time.perf_counter() - start)
            result = (context, output)
    return result


# ------------------------------------------------------------- staged replay --
def core_round(workload: Workload, spec, bids, fault_plan=None):
    """The op's heaviest distributed round on a cold solve memo."""
    clear_solve_cache()
    return workload.distributed_round(spec, bids, fault_plan)


def replay_op(recorder: SpanRecorder, workload: Workload, i: int) -> Dict[str, float]:
    """Replay op ``i`` layer by layer; returns the counts taken on the way."""
    spec = workload.round_spec(i)
    mechanism, _generator, latency = workload.components(spec)
    span = recorder.span
    with span("replay", i):
        with span("community.generate", i):
            bids = workload.bids(i)
        with span("net.serialization.encode", i):
            canonical_encode(bids)
        with span("net.serialization.size", i):
            size = estimate_size(bids)
        # estimate_size memoises on the instance: copies give the cold per-call cost.
        small = [replace(user) for user in bids.users[:SMALL_CALLS]]
        with span("net.serialization.small_calls", i):
            for user in small:
                estimate_size(user)
        clear_solve_cache()
        with span("auctions.solve", i):
            result = mechanism.run(bids, random.Random(spec.seed))
        with span("auctions.resolve", i):
            mechanism.run(bids, random.Random(spec.seed))
        with span("auctions.check", i):
            mechanism.check(bids, result)
        with span("core.round", i):
            core = core_round(workload, spec, bids)
        clear_solve_cache()
        with span("runtime.round", i):
            runtime = AuctionRun(
                bids,
                mechanism,
                config=spec.config.to_config(),
                engine=None,
                latency_model=latency,
                seed=spec.seed,
            ).execute()
        with span("scenarios.runner.record", i):
            record_from_outcome(
                spec, 0, core.outcome, mechanism, len(core.outcome.provider_outputs)
            ).to_dict()
    # The round as this workload's op runs it: with bidder nodes or without.
    native, native_span = (
        (runtime, "runtime.round") if spec.runner == "auction_run" else (core, "core.round")
    )
    counts = {
        "bidvec_bytes": size,
        "small_calls": len(small),
        "native_span": native_span,
        "net.steps_per_round": native.stats.steps,
        "messages": native.stats.messages_delivered,
        "net.msgs_other": 0,
    }
    for _prefix, metric in _BLOCK_OF_TAG:
        counts[metric] = 0
    for tag, count in native.stats.messages_by_tag.items():
        metric = next((m for p, m in _BLOCK_OF_TAG if tag.startswith(p)), "net.msgs_other")
        counts[metric] += count
    return counts


# ------------------------------------------------------------ one-shot probes --
class _FloodNode(Node):
    """Keeps ``FLOOD_WINDOW`` messages in flight to the next peer until its
    budget of sends is spent."""

    PAYLOAD = b"x" * 16

    def __init__(self, node_id: str, next_id: str, budget: int) -> None:
        super().__init__(node_id)
        self.next_id = next_id
        self.budget = budget

    def on_start(self, ctx) -> None:
        for _ in range(FLOOD_WINDOW):
            self._send(ctx)

    def on_message(self, ctx, message) -> None:
        self._send(ctx)

    def _send(self, ctx) -> None:
        if self.budget > 0:
            self.budget -= 1
            ctx.send(self.next_id, self.PAYLOAD, tag="flood")


def flood_msgs_per_s(latency, messages: int = FLOOD_MESSAGES) -> float:
    ids = default_provider_ids(FLOOD_NODES)
    network = SimNetwork(latency_model=latency, seed=0)
    for index, node_id in enumerate(ids):
        network.add_node(
            _FloodNode(node_id, ids[(index + 1) % len(ids)], messages // len(ids))
        )
    wall = _timed(network.run)
    return network.stats.messages_delivered / wall


def consensus_decide_ms(users: int, latency) -> float:
    ids = default_provider_ids(8)
    inputs = {f"u{j:04d}": 1.0 for j in range(users)}
    network = SimNetwork(latency_model=latency, seed=0)
    for node_id in ids:
        network.add_node(
            ProtocolNode(node_id, ids, "agree", lambda: BatchedConsensusBlock("agree", inputs))
        )
    wall = _timed(network.run)
    if any(network.node(node_id).output != inputs for node_id in ids):
        raise AssertionError("consensus probe: a node did not decide its inputs")
    return wall * 1000.0


def store_probe(workload: Workload, i: int, records, fmt: str, count: int) -> Dict[str, float]:
    """Append / summarize / read ``count`` copies of the op's records."""
    path = workload.scratch / f"probe.{fmt}"
    record_type = type(records[0])

    def append() -> None:
        with ResultsStore(path, record_type=record_type, format=fmt) as store:
            store.begin(workload.round_spec(i), count, fingerprint="perf-store-probe")
            for j in range(count):
                store.append(j, 0, records[j % len(records)])

    try:
        prefix = f"scenarios.store.{fmt}"
        return {
            f"{prefix}.append_us": _timed(append) / count * 1e6,
            f"{prefix}.summarize_ms": _timed(
                ResultsStore(path, record_type=record_type).summary
            ) * 1000.0,
            f"{prefix}.resume_read_ms": _timed(
                ResultsStore(path, record_type=record_type).read
            ) * 1000.0,
        }
    finally:
        path.unlink(missing_ok=True)


def armed_overhead_pct(workload: Workload, i: int, repeats: int) -> float:
    """The same round with a zero-rate loss plan armed against no plan.

    Both sides repeat identical work, so each is taken at its fastest repeat.
    """
    spec = workload.round_spec(i)
    bids = workload.bids(i)
    bare, armed = [], []
    for _ in range(repeats):
        bare.append(_timed(lambda: core_round(workload, spec, bids)))
        plan = FaultPlan([make_fault("loss", {"rate": 0.0})], seed=spec.seed)
        armed.append(_timed(lambda: core_round(workload, spec, bids, plan)))
    return (min(armed) - min(bare)) / min(bare) * 100.0


def sweep_fixed_us_per_round(workload: _FigureSweep, i: int, repeats: int) -> float:
    """``run_sweep`` wall minus its cells run one by one, per round.

    What is left is the sweep's own work: grid expansion, component build,
    journal, reassembly.  Fastest repeat of each side (identical work).
    """
    sweep = workload.sweep(i)
    scenarios = sweep.scenarios()
    whole, cells = [], []
    for _ in range(repeats):
        clear_solve_cache()
        whole.append(_timed(
            lambda: run_sweep(sweep, store=workload.journal, store_format="columnar")
        ))
        workload.journal.unlink()
        clear_solve_cache()
        wall = 0.0
        for spec in scenarios:
            mechanism, generator, latency = workload.components(spec)
            wall += _timed(
                lambda: run_scenario(
                    spec, mechanism=mechanism, workload=generator, latency_model=latency
                )
            )
        cells.append(wall)
    return (min(whole) - min(cells)) / len(scenarios) * 1e6


def chaos_fixed_us_per_cell(workload: ChaosGrid, i: int, repeats: int) -> float:
    """``run_chaos`` wall minus its cell rounds (two per cell), per cell."""
    chaos = workload.chaos_spec(i)
    spec, bids = workload.round_spec(i), workload.bids(i)
    whole, cells = [], []
    for _ in range(repeats):
        whole.append(_timed(
            lambda: run_chaos(chaos, store=workload.journal, store_format="columnar")
        ))
        workload.journal.unlink()
        wall = 0.0
        for point in range(len(chaos.faults)):
            for _replay in range(2):
                plan = workload.fault_plan(i, point)
                wall += _timed(lambda: workload.distributed_round(spec, bids, plan))
        cells.append(wall)
    return (min(whole) - min(cells)) / len(chaos.faults) * 1e6


def workers2_speedup(grid) -> float:
    """One grid through ``workers=1`` then ``workers=2`` (base: workers=1)."""
    return _timed(lambda: run_sweep(grid, workers=1)) / _timed(
        lambda: run_sweep(grid, workers=2)
    )


# ------------------------------------------------------------------- profile --
def _layer_of(filename: str) -> Optional[str]:
    """The layer of a ``src/repro`` file, ``None`` for any other code."""
    if not filename.startswith(_REPRO_DIR):
        return None
    relative = filename[len(_REPRO_DIR):].replace(os.sep, "/")
    return next((l for p, l in _LAYER_OF_PATH if relative.startswith(p)), "other")


def layer_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time per layer, in percent of the profiled total (sums to 100).

    Profiler-inflated (every Python call pays the hook, C code does not) and
    main-thread-only (the pivot pool's threads show as the wait for them): it
    ranks layers, the probes size them.  Time outside ``src/repro`` — built-in
    and C functions, numpy, the standard library — is charged along the
    profile's caller edges to the layers it was called from; what no layer
    called is ``share.other``.
    """
    stats = pstats.Stats(profile).stats
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func: tuple, seen: frozenset) -> Dict[str, float]:
        """``layer -> fraction`` of ``func``'s self time."""
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = {
            caller: edge[2]
            for caller, edge in stats[func][4].items()
            if caller not in seen and caller in stats
        }
        total = sum(callers.values())
        split: Dict[str, float] = {}
        if total <= 0.0:
            split["other"] = 1.0
        else:
            for caller, tottime in callers.items():
                for layer, fraction in owner(caller, seen | {func}).items():
                    split[layer] = split.get(layer, 0.0) + fraction * tottime / total
        if not seen:  # only a root query sees every caller: safe to keep
            owners[func] = split
        return split

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, fraction in owner(func, frozenset()).items():
            totals[layer] += fraction * tottime
    total = sum(totals.values())
    return {f"share.{layer}": 100.0 * value / total for layer, value in totals.items()}


# ---------------------------------------------------------------- traced run --
def _spread_pct(op_walls: List[float]) -> float:
    """IQR / median of five consecutive chunk walls (0 with too few ops)."""
    size = len(op_walls) // 5
    if size == 0:
        return 0.0
    chunks = [sum(op_walls[j * size:(j + 1) * size]) for j in range(5)]
    q1, _q2, q3 = statistics.quantiles(chunks, n=4)
    return (q3 - q1) / statistics.median(chunks) * 100.0


def _overhead_pct(plain: List[float], wrapped: List[float]) -> float:
    base = statistics.median(plain)
    return (statistics.median(wrapped) - base) / base * 100.0


def trace_run(
    workload: Workload,
    seconds: float,
    store_records: int = STORE_RECORDS,
    flood_messages: int = FLOOD_MESSAGES,
    repeats: int = PROBE_REPEATS,
) -> Tuple[Dict[str, float], SpanRecorder, int, int]:
    """All per-layer metrics of one workload: ``(metrics, spans, attempted, failed)``."""
    metrics: Dict[str, float] = {"host.load1": os.getloadavg()[0]}
    recorder = SpanRecorder()
    failed = 0

    # Traced ops: each op bare and under a span, then its stage-by-stage replay.
    bare: List[float] = []
    spanned: List[float] = []
    counts: List[Dict[str, float]] = []
    outputs = {}  # of the first EXACT_OPS ops: exact counters and probe inputs
    memo = shared_solve_cache()
    memo_hits = memo_lookups = 0

    def traced_op(i: int) -> None:
        nonlocal failed, memo_hits, memo_lookups
        hits, misses = memo.hits, memo.misses
        _none, output = _paired_op(
            workload, i, lambda: recorder.span("op", i), bare, spanned
        )
        # Both sides start cold, so the counters moved by exactly two ops.
        memo_hits += memo.hits - hits
        memo_lookups += memo.hits - hits + memo.misses - misses
        failed += not workload.check(output)
        if len(outputs) < EXACT_OPS:
            outputs[i] = output
        counts.append(replay_op(recorder, workload, i))

    traced = _ops_for(seconds * TRACED_SHARE, _TRACED_BASE, traced_op)
    metrics["trace.overhead_pct"] = _overhead_pct(bare, spanned)
    metrics["host.op_ms_p90"] = statistics.quantiles(bare, n=10)[-1] * 1000.0
    metrics["host.pass_spread_pct"] = _spread_pct(bare)
    metrics["auctions.engine.memo_hit_share"] = (
        memo_hits / memo_lookups if memo_lookups else 0.0
    )

    for name in ("community.generate", "auctions.solve", "auctions.resolve",
                 "auctions.check", "core.round", "runtime.round"):
        metrics[f"{name}_ms"] = recorder.median(name) * 1000.0
    metrics["core.overhead_x"] = metrics["core.round_ms"] / metrics["auctions.solve_ms"]
    metrics["scenarios.runner.record_us"] = (
        recorder.median("scenarios.runner.record") * 1e6
    )
    first = counts[0]
    kib = first["bidvec_bytes"] / 1024.0
    metrics["net.serialization.bidvec_kib"] = kib
    metrics["net.serialization.encode_us_per_kib"] = (
        recorder.median("net.serialization.encode") * 1e6 / kib
    )
    metrics["net.serialization.size_us_per_kib"] = (
        recorder.median("net.serialization.size") * 1e6 / kib
    )
    metrics["net.serialization.call_us_small"] = (
        recorder.median("net.serialization.small_calls") * 1e6 / first["small_calls"]
    )
    exact = counts[:EXACT_OPS]
    for metric in ("net.steps_per_round", "net.msgs_other",
                   *(m for _p, m in _BLOCK_OF_TAG)):
        metrics[metric] = statistics.mean(c[metric] for c in exact)
    metrics["net.msgs_per_s"] = statistics.median(
        c["messages"] / wall
        for c, wall in zip(counts, recorder.seconds(first["native_span"]))
    )

    # Fault-plane counters of the exact ops (zero unless the op arms a plan).
    fault_records = [
        record for output in outputs.values() for record in workload.records(output)
    ] if isinstance(workload, ChaosGrid) else []
    for metric, field in (
        ("retransmissions_per_round", "retransmissions"),
        ("lost_per_round", "messages_lost"),
        ("duplicates_suppressed_per_round", "duplicates_suppressed"),
    ):
        metrics[f"net.faults.{metric}"] = (
            statistics.mean(getattr(r, field) for r in fault_records)
            if fault_records else 0.0
        )

    # One-shot probes, on the first traced op's own bids and records.
    i = _TRACED_BASE
    spec = workload.round_spec(i)
    latency = workload.components(spec)[2]
    metrics["net.flood_msgs_per_s"] = flood_msgs_per_s(latency, flood_messages)
    metrics["consensus.batched_decide_ms"] = consensus_decide_ms(spec.users, latency)
    metrics["net.faults.armed_overhead_pct"] = armed_overhead_pct(workload, i, repeats)
    for fmt in ("columnar", "jsonl"):
        metrics.update(
            store_probe(workload, i, list(workload.records(outputs[i])), fmt, store_records)
        )
    metrics["scenarios.sweep.fixed_us_per_round"] = (
        sweep_fixed_us_per_round(workload, i, repeats)
        if isinstance(workload, _FigureSweep) else 0.0
    )
    metrics["scenarios.chaos.fixed_us_per_cell"] = (
        chaos_fixed_us_per_cell(workload, i, repeats)
        if isinstance(workload, ChaosGrid) else 0.0
    )
    grid = workload.dispatch_grid()
    metrics["scenarios.dispatch.workers2_speedup"] = (
        workers2_speedup(grid) if grid is not None else 0.0
    )

    # Dominant-layer self-report.
    profile = cProfile.Profile()

    def profiled_op(i: int) -> None:
        profile.enable()
        try:
            workload.op(i)
        finally:
            profile.disable()

    profiled = _ops_for(seconds * PROFILE_SHARE, _PROFILE_BASE, profiled_op)
    metrics.update(layer_shares(profile))

    # The program's own tracing: the same ops with and without repro.obs.
    plain: List[float] = []
    observed: List[float] = []
    spans = 0

    def obs_pair(i: int) -> None:
        nonlocal spans
        observation, _output = _paired_op(workload, i, observe, plain, observed)
        spans += len(observation.tracer.spans)

    pairs = _ops_for(seconds * OBS_SHARE, _OBS_BASE, obs_pair)
    metrics["obs.traced_overhead_pct"] = _overhead_pct(plain, observed)
    metrics["obs.spans_per_round"] = spans / (pairs * workload.rounds_per_op)

    attempted = 2 * traced + profiled + 2 * pairs
    return metrics, recorder, attempted, failed
