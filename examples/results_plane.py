"""The results plane: columnar journals, streaming summaries, format conversion.

A results journal is both the sweep's durable artifact and its checkpoint.
It comes in two *file formats*: ``jsonl`` is the greppable interchange format
and the default; ``columnar`` stores typed NumPy chunks that are memory-mapped
on read — built for sweeps big enough that parsing JSON per record dominates
analysis time.

This example runs one grid four ways over the results plane:

1. sweeps straight into a **columnar** journal (``store_format="columnar"``);
2. computes a **streaming summary** (count/mean/p50/p90/p99 per column plus
   throughput) without ever materialising the record list;
3. **converts** the journal to jsonl — the manifest fingerprint travels
   verbatim, so the original sweep can still resume the converted copy;
4. **resumes** both formats and checks the rehydrated records are
   bit-identical to the original run — the differential guarantee that
   makes the file format a free choice.

Run with::

    python examples/results_plane.py
"""

import os
import tempfile

from repro.scenarios import (
    ResultsStore,
    SweepSpec,
    convert_journal,
    render_summary,
    run_sweep,
    sniff_format,
    spec_from_dict,
)

base = spec_from_dict(
    {
        "name": "results-plane-demo",
        "mechanism": "double",
        "users": 24,
        "providers": 4,
        "latency": "constant",
        "measure_compute": False,  # deterministic virtual clock: exact equality below
        "rounds": 2,
        "config": {"k": 1},
    }
)
sweep = SweepSpec(
    base=base, name="results-plane-demo", axes=(("users", (16, 24)), ("seed", (0, 1)))
)

directory = tempfile.mkdtemp(prefix="repro-results-")
columnar = os.path.join(directory, "results.rcol")

# 1. Sweep straight into a columnar journal.
first = run_sweep(sweep, store=columnar, store_format="columnar")
size = os.path.getsize(columnar)
print(f"columnar sweep : {len(first.records)} records -> {columnar} ({size:,} B, "
      f"sniffed {sniff_format(columnar)!r})")

# 2. Streaming summary: constant-memory reductions over the memory-mapped
#    chunks — the record list is never built.
print()
print(render_summary(ResultsStore(columnar).summary()))
print()

# 3. Convert to jsonl.  The manifest — fingerprint included — is copied
#    verbatim, which is what keeps the converted journal resumable.
jsonl = os.path.join(directory, "results.jsonl")
conversion = convert_journal(columnar, jsonl)
print(f"convert        : {conversion['records']} records, "
      f"{conversion['from']} -> {conversion['to']} "
      f"({os.path.getsize(jsonl):,} B jsonl vs {size:,} B columnar)")

# 4. Resume both formats: zero new rounds, bit-identical records.
for path in (columnar, jsonl):
    resumed = run_sweep(sweep, store=path, resume=True)
    assert resumed.executed_rounds == 0, "the journal already holds the grid"
    assert resumed.records == first.records, "rehydration must be bit-identical"
    print(f"resume         : {sniff_format(path)!r} journal reused "
          f"{resumed.resumed_rounds} rounds, executed 0 — records identical")

print("differential   : columnar == jsonl == in-memory (bit-identical records)")
