"""Parallel sweeps with a persistent results journal and resume.

The evaluation of the paper is a *grid* of auction runs (users × k ×
parallelism).  This example runs such a grid three ways over the same
declarative ``SweepSpec``:

1. sequentially (the baseline every other mode must match bit-for-bit);
2. in a 2-process worker pool with a JSONL results journal (``store=``) —
   every record is appended as it completes, so an interrupted sweep loses
   nothing;
3. resumed from that journal (``resume=True``) — nothing is left to run, so
   zero rounds execute and the records rehydrate from disk bit-identically.

Run with::

    python examples/parallel_sweep.py
"""

import os
import tempfile

from repro.scenarios import SweepSpec, run_sweep, spec_from_dict

base = spec_from_dict(
    {
        "name": "parallel-demo",
        "mechanism": "double",
        "users": 24,
        "providers": 4,
        "latency": "constant",
        "rounds": 2,
        "config": {"k": 1},
    }
)
sweep = SweepSpec(base=base, name="parallel-demo", axes=(("users", (16, 24)), ("seed", (0, 1))))

sequential = run_sweep(sweep)
print(f"sequential     : {len(sequential.records)} records, "
      f"{sequential.executed} executed")

journal = os.path.join(tempfile.mkdtemp(prefix="repro-sweep-"), "results.jsonl")
parallel = run_sweep(sweep, workers=2, store=journal)
print(f"workers=2      : {len(parallel.records)} records, "
      f"{parallel.executed} executed -> journal {journal}")

# The differential guarantee: bit-identical records, in the same grid order.
assert parallel.records == sequential.records, "parallel must match sequential exactly"
print("differential   : parallel == sequential (bit-identical, grid order)")

resumed = run_sweep(sweep, store=journal, resume=True)
print(f"resume         : {resumed.executed} executed, "
      f"{resumed.resumed} reused from the journal")
assert resumed.executed == 0
assert resumed.records == sequential.records

# The journal is plain JSONL: a manifest line plus one line per round.
with open(journal, "r", encoding="utf-8") as handle:
    print(f"journal lines  : {sum(1 for _ in handle)} "
          f"(1 manifest + {len(parallel.records)} records)")
