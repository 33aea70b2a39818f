"""Chaos-audit throughput — the fault plane's parallel trajectory.

One audit of the protocol under the six-model default fault grid — loss at two
rates, duplication, reordering, a latency spike and a crash-restart x three
seeds (18 cells, each simulated twice for the replay invariant) — timed
sequentially and under the default worker resolution (``workers="auto"``).
Records are locked bit-identical across the process boundary by
``tests/scenarios/test_chaos.py``, so this benchmark only tracks wall clock.

The export test writes ``BENCH_chaos.json`` — the fault plane's counterpart of
``BENCH_resilience.json``.  CI runs this file in quick mode
(``--benchmark-disable``) and greps the summary line.  The speedup (target:
>=2x on >=4 cores) is a ratio of two host wall-clock readings, so it is
**recorded in the artifact, not asserted** — Tier-1 must give the same verdict
on a loaded host as on an idle one.  What stays asserted is deterministic: on
hosts where ``"auto"`` resolves to the sequential path no pool is launched at
all, so the default configuration records a 1.0x speedup by construction
instead of a sub-1x pool-overhead reading.
"""

import json
import os

import pytest

from repro.bench.harness import (
    chaos_bench_spec,
    export_chaos_artifact,
    run_chaos_benchmark,
)
from repro.common import available_cpus
from repro.scenarios.chaos import run_chaos

pytestmark = pytest.mark.bench

NUM_USERS = 80
NUM_PROVIDERS = 5
SEEDS = (0, 1, 2)


def _audit_spec():
    # The artifact export times exactly this spec too (single source of truth).
    return chaos_bench_spec(
        num_users=NUM_USERS, num_providers=NUM_PROVIDERS, seeds=SEEDS
    )


def test_bench_chaos_sequential(benchmark):
    spec = _audit_spec()
    result = benchmark.pedantic(lambda: run_chaos(spec), rounds=1, iterations=1)
    benchmark.extra_info["cells"] = len(result.records)
    assert result.is_clean()
    assert len(spec.faults) >= 6  # the audit covers the fault-model library


def test_bench_chaos_workers_auto(benchmark):
    # The shipping default: auto-resolved workers, sequential on one CPU,
    # a real pool on multi-core hosts — never an oversubscribed one.
    spec = _audit_spec()
    result = benchmark.pedantic(
        lambda: run_chaos(spec, workers="auto"), rounds=1, iterations=1
    )
    benchmark.extra_info["available_cpus"] = available_cpus()
    assert result.is_clean()


def test_bench_chaos_artifact():
    payload = run_chaos_benchmark(
        num_users=NUM_USERS,
        num_providers=NUM_PROVIDERS,
        workers="auto",
        seeds=SEEDS,
    )
    path = export_chaos_artifact(payload)
    assert os.path.exists(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["faults"] >= 6
    assert data["records_identical"] is True
    assert data["clean"] is True
    assert data["workers_requested"] == "auto"
    assert 1 <= data["workers_resolved"] <= data["cpu_count"]
    # The default configuration never reports pool overhead as a slowdown:
    # either a real pool ran on real cores, or no pool ran and speedup is 1.0.
    assert data["speedup"] >= 1.0 or data["workers_resolved"] > 1, data["summary"]
    if data["workers_resolved"] == 1:
        assert data["speedup"] == 1.0
        assert data["backend"] == "serial"
        assert data["wall_seconds_parallel"] is None
    # The 2x target needs real cores and an idle host; the artifact records
    # the honest measurement next to the resolved worker count either way.
    assert data["speedup"] > 0
    print(data["summary"])
