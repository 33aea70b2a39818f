"""Results-plane throughput — append and scan across the store backends.

The same deterministic synthetic record stream (``store_bench_records``)
written through both :data:`~repro.scenarios.store.STORE_BACKENDS` formats,
then scanned: the jsonl *full parse* (``read()``) against the columnar
*streaming summary* (``summary()`` over memory-mapped chunks).  Record
equivalence between the backends is locked by
``tests/scenarios/test_store_backends.py``, so this module only tracks wall
clock and file size.

The export test writes ``BENCH_store.json`` — the results-plane counterpart
of ``BENCH_net.json`` / ``BENCH_resilience.json``.  CI runs this file in
quick mode (``--benchmark-disable``) and greps the summary line.  The
scan speed-up (``speedup_scan_summarize``; the columnar backend's bar is >=5x
— within 5x of parsing JSON text it has lost its reason to exist) is a ratio
of two host wall-clock readings, so it is **recorded in the artifact, not
asserted**: Tier-1 must give the same verdict on a loaded host as on an idle
one.  The size ratio is deterministic and stays asserted.
"""

import json
import os

import pytest

from repro.bench.harness import (
    export_store_artifact,
    run_store_benchmark,
    store_bench_records,
)
from repro.scenarios.spec import ScenarioSpec, SweepSpec
from repro.scenarios.store import ResultsStore

pytestmark = pytest.mark.bench

RECORDS = 10_000


def _journal(tmp_path, fmt, rows):
    sweep = SweepSpec(
        base=ScenarioSpec(name="store-bench", mechanism="double", users=40, seed=0),
        name="store-bench",
    )
    path = tmp_path / f"bench.{fmt}"
    with ResultsStore(path, format=fmt) as store:
        store.begin(sweep, total_rounds=len(rows))
        for index, record in enumerate(rows):
            store.append(index, 0, record)
    return path


@pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
def test_bench_store_append(benchmark, tmp_path, fmt):
    rows = store_bench_records(RECORDS)
    result = benchmark.pedantic(
        lambda: _journal(tmp_path / fmt, fmt, rows), rounds=1, iterations=1
    )
    benchmark.extra_info["records"] = RECORDS
    benchmark.extra_info["file_bytes"] = os.path.getsize(result)


def test_bench_store_jsonl_full_parse(benchmark, tmp_path):
    path = _journal(tmp_path, "jsonl", store_bench_records(RECORDS))
    _manifest, completed = benchmark.pedantic(
        lambda: ResultsStore(path).read(), rounds=1, iterations=1
    )
    assert len(completed) == RECORDS


def test_bench_store_columnar_summarize(benchmark, tmp_path):
    path = _journal(tmp_path, "columnar", store_bench_records(RECORDS))
    summary = benchmark.pedantic(
        lambda: ResultsStore(path).summary(), rounds=1, iterations=1
    )
    assert summary["records"] == RECORDS


def test_bench_store_artifact():
    payload = run_store_benchmark(records=RECORDS)
    path = export_store_artifact(payload)
    assert os.path.exists(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["records"] == RECORDS
    assert data["summaries_identical"] is True
    assert data["jsonl"]["appends_per_sec"] > 0
    assert data["columnar"]["appends_per_sec"] > 0
    # Columnar journals are meaningfully smaller than the JSON text…
    assert data["size_ratio_jsonl_over_columnar"] >= 1.5, data["summary"]
    # …and the streaming scan's speed-up over the full parse is recorded
    # (bar: >=5x), not gated on: it is a ratio of wall-clock readings.
    assert data["speedup_scan_summarize"] > 0
    print(data["summary"])
