"""Resilience-audit throughput — the game-theory layer's parallel trajectory.

One audit of the paper's headline claim — every coalition of size <= 2 out of
5 providers (15 coalitions) x the four-deviation library x three seeds (180
cells), honest baseline memoised per (schedule, seed) — timed sequentially and
under the default worker resolution (``workers="auto"``).  Verdicts are locked
bit-identical by ``tests/gametheory/test_resilience_parallel.py``, so this
benchmark only tracks wall clock.

The export test writes ``BENCH_resilience.json`` — the game-theory counterpart
of ``BENCH_sweep.json`` / ``BENCH_net.json``.  CI runs this file in quick mode
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
    export_resilience_artifact,
    resilience_bench_spec,
    run_resilience_benchmark,
)
from repro.common import available_cpus
from repro.scenarios.resilience import run_resilience

pytestmark = pytest.mark.bench

NUM_USERS = 120
NUM_PROVIDERS = 5
AUDIT_K = 2
SEEDS = (0, 1, 2)


def _audit_spec():
    # The artifact export times exactly this spec too (single source of truth).
    return resilience_bench_spec(
        num_users=NUM_USERS, num_providers=NUM_PROVIDERS, k=AUDIT_K, seeds=SEEDS
    )


def test_bench_resilience_sequential(benchmark):
    spec = _audit_spec()
    result = benchmark.pedantic(lambda: run_resilience(spec), rounds=1, iterations=1)
    benchmark.extra_info["cells"] = len(result.records)
    assert result.is_resilient()
    assert len(spec.coalition_selectors()) >= 8  # the audit is coalition-rich


def test_bench_resilience_workers_auto(benchmark):
    # The shipping default: auto-resolved workers, sequential on one CPU,
    # a real pool on multi-core hosts — never an oversubscribed one.
    spec = _audit_spec()
    result = benchmark.pedantic(
        lambda: run_resilience(spec, workers="auto"), rounds=1, iterations=1
    )
    benchmark.extra_info["available_cpus"] = available_cpus()
    assert result.is_resilient()


def test_bench_resilience_artifact():
    payload = run_resilience_benchmark(
        num_users=NUM_USERS,
        num_providers=NUM_PROVIDERS,
        k=AUDIT_K,
        workers="auto",
        seeds=SEEDS,
    )
    path = export_resilience_artifact(payload)
    assert os.path.exists(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["coalitions"] >= 8
    assert data["verdicts_identical"] is True
    assert data["resilient"] is True
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
