"""Self-check of the benchmark in perf/: names, determinism, output checks.

Runs every workload and every layer probe once at toy sizes by calling the
benchmark's functions (sizes are arguments, not a CLI switch).  Nothing here
asserts on wall-clock time.
"""

from __future__ import annotations

import re

import pytest

import layers
import run as bench
import workloads

CONTRACT = bench.load_contract()
END_TO_END = {metric["name"] for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"] for metric in CONTRACT["per_layer"]}
#: End-to-end metrics that are a pure function of the seed.
EXACT = ("sim_round_ms", "msgs_per_round", "kib_per_round")
#: Per-layer metrics that are counts, not timings.
EXACT_LAYER = (
    "net.serialization.bidvec_kib",
    "net.steps_per_round",
    "net.msgs_bid_agreement",
    "net.msgs_input_validation",
    "net.msgs_common_coin",
    "net.msgs_other",
    "net.faults.retransmissions_per_round",
    "net.faults.lost_per_round",
    "net.faults.duplicates_suppressed_per_round",
    "obs.spans_per_round",
)
TOY_USERS = 24


def test_contract_names():
    names = [w["name"] for w in CONTRACT["workloads"]] + sorted(END_TO_END | PER_LAYER)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(END_TO_END | PER_LAYER) == len(CONTRACT["end_to_end"]) + len(CONTRACT["per_layer"])
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert {f"share.{layer}" for layer in layers.LAYERS} <= PER_LAYER
    assert CONTRACT["paths"] == [workloads.PERF_DIR.name]


def _timed(name):
    workload = workloads.setup(name, seed=7, users=TOY_USERS)
    try:
        return bench.timed_run(workload, seconds=0.0, ops_per_pass=2, exact_passes=1)
    finally:
        workload.close()


def _traced(name):
    workload = workloads.setup(name, seed=7, users=TOY_USERS)
    try:
        return layers.trace_run(
            workload, seconds=0.0, store_records=40, flood_messages=400, repeats=1
        )
    finally:
        workload.close()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_run_repeats_exactly(name):
    metrics, notes, attempted, failed = _timed(name)
    again, notes_again, _attempted, failed_again = _timed(name)
    assert set(metrics) | {"setup_s"} == END_TO_END
    assert attempted == 2 and failed == failed_again == 0
    assert notes["outcome_digest"] == notes_again["outcome_digest"]
    assert [metrics[m] for m in EXACT] == [again[m] for m in EXACT]
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_probes_once(name):
    metrics, recorder, attempted, failed = _traced(name)
    again, _recorder, _attempted, failed_again = _traced(name)
    assert set(metrics) == PER_LAYER
    assert attempted > 0 and failed == failed_again == 0
    assert [metrics[m] for m in EXACT_LAYER] == [again[m] for m in EXACT_LAYER]
    assert sum(metrics[f"share.{layer}"] for layer in layers.LAYERS) == pytest.approx(100.0)
    # Every span closed, and children point at a span recorded before them.
    assert all(
        span is not None and (span[3] is None or span[3] < index)
        for index, span in enumerate(recorder.spans)
    )
    faults = [metrics[m] for m in EXACT_LAYER if m.startswith("net.faults.")]
    assert any(faults) == (name == "chaos_grid")
