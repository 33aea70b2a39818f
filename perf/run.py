"""The one benchmark command (contract: BENCHMARK.json; reading guide: README.md).

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the timed run: set-up, then passes of ops until S seconds are
measured, with no recorder and no ``repro.obs`` observation; it prints every
end-to-end metric.  ``--trace 1`` is the separate traced run (layers.py) and
prints every per-layer metric.  The last line of standard output is the
result object; a run writes only under perf/out/ (op journals, the spans).
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import statistics
import struct
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import OUT_DIR, PERF_DIR, WORKLOADS, Workload, setup

#: Passes whose ops feed the exact metrics and the outcome digest.  They run
#: whatever ``--seconds`` says, so the same seed gives the same exact values
#: on a host of any speed.  Eight, because the mean simulated round time of
#: chaos_grid needs ~64 ops to hold still across seeds (loss recovery is
#: heavy-tailed); byte counts hold still on the first pass alone.
EXACT_PASSES = 8
#: Fresh interpreters timed for ``setup_s`` (their median is reported).
SETUP_SAMPLES = 5

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.setup(sys.argv[2], int(sys.argv[3])).close()"
)
#: Seconds one ``spin()`` takes on the sizing host when nothing else runs on
#: its core: the unit host time is reported in (see ``host_speeds``).
SPIN_REF_S = 0.0015
#: A speed probe is taken between ops whenever this much time has passed.
SPIN_EVERY_S = 0.1


def load_contract() -> Dict[str, Any]:
    with open(PERF_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _spin_work() -> None:
    heap: List[tuple] = []
    table: Dict[str, int] = {}
    for i in range(2000):
        item = (i * 2654435761 % 1000003, i, "k%d" % (i % 97))
        heapq.heappush(heap, item)
        table[item[2]] = table.get(item[2], 0) + len(item)
        if i % 3 == 0:
            heapq.heappop(heap)
    b"".join(struct.pack(">d", float(k)) for k in range(500))


def spin(ramp: int = 0) -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    Heap, dict, tuple, string and struct traffic — the allocation-heavy mix
    the simulator itself is made of, so whatever slows the host slows both
    alike.  It calls no program code: a faster program must not read as a
    faster host.  The work runs twice and the second is timed, so the probe
    does not pay for the cache lines the op before it evicted (after a
    ``fig4_sweep`` op a cold probe reads 50 % slow, after a
    ``chatty_bidders`` op 5 %).  ``ramp`` adds untimed repeats for a caller
    that has been idle: a core just woken reads up to 2.5x slow for a while.
    """
    for _ in range(1 + ramp):
        _spin_work()
    start = time.perf_counter()
    _spin_work()
    return time.perf_counter() - start


def host_speeds(spins: Sequence[float], before: Sequence[int]) -> List[float]:
    """Host speed during each interval that began after ``spins[before[j]]``.

    1.0 is the quiet sizing host.  The sandbox this was sized on runs the
    same Python loop at 1.0 or at ~0.7 for minutes at a time (a busy SMT
    sibling; no steal time shows), which no run length averages out.  Host
    times are therefore multiplied by the speed measured around them and
    read as seconds of the quiet sizing host; ratios between two commits are
    unaffected, and a run made entirely in a slow stretch stays comparable.
    """
    return [2.0 * SPIN_REF_S / (spins[k] + spins[k + 1]) for k in before]


def sample_setup_s(name: str, seed: int, samples: int = SETUP_SAMPLES) -> float:
    """Median wall of imports + component build + warm-up ops in a fresh interpreter."""
    # This process sleeps while a child runs, so its probes ramp up first.
    walls, spins = [], [spin(ramp=12)]
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(PERF_DIR), name, str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - start)
        spins.append(spin(ramp=12))
    speeds = host_speeds(spins, range(samples))
    return statistics.median(wall * speed for wall, speed in zip(walls, speeds))


def timed_run(
    workload: Workload,
    seconds: float,
    ops_per_pass: Optional[int] = None,
    exact_passes: int = EXACT_PASSES,
) -> Tuple[Dict[str, float], Dict[str, Any], int, int]:
    """Closed loop, one client: ``(metrics, notes, attempted, failed)``."""
    ops_per_pass = ops_per_pass or workload.ops_per_pass
    exact_ops = exact_passes * ops_per_pass
    op_walls: List[float] = []
    op_cpus: List[float] = []
    spin_before: List[int] = []
    spins = [spin()]
    last_spin = time.perf_counter()
    exact = []
    failed = 0
    while len(op_walls) < exact_ops or sum(op_walls) < seconds:
        outputs = []
        for _ in range(ops_per_pass):
            i = len(op_walls)
            wall, cpu = time.perf_counter(), time.process_time()
            output = workload.op(i)
            now = time.perf_counter()
            op_cpus.append(time.process_time() - cpu)
            op_walls.append(now - wall)
            spin_before.append(len(spins) - 1)
            outputs.append((i, output))
            if now - last_spin > SPIN_EVERY_S:
                spins.append(spin())
                last_spin = time.perf_counter()
        # Untimed from here: the output checks.
        failed += sum(not workload.check(output) for _i, output in outputs)
        if len(op_walls) <= exact_ops:
            exact.extend(outputs)
    spins.append(spin())

    speeds = host_speeds(spins, spin_before)
    walls = [wall * speed for wall, speed in zip(op_walls, speeds)]
    cpus = [cpu * speed for cpu, speed in zip(op_cpus, speeds)]
    passes = range(0, len(walls), ops_per_pass)
    pass_walls = [sum(walls[p:p + ops_per_pass]) for p in passes]
    pass_cpus = [sum(cpus[p:p + ops_per_pass]) for p in passes]
    rounds_per_pass = workload.rounds_per_op * ops_per_pass

    rounds = [r for _i, output in exact for r in workload.rounds(output)]
    sizes = [
        size
        for index, output in exact[:ops_per_pass]
        for size in workload.round_bytes(index, output)
    ]
    metrics = {
        "rounds_per_s": rounds_per_pass / statistics.median(pass_walls),
        "op_ms_p50": statistics.median(walls) * 1000.0,
        "cpu_ms_per_round": statistics.median(pass_cpus) / rounds_per_pass * 1000.0,
        "sim_round_ms": statistics.mean(r[0] for r in rounds) * 1000.0,
        "msgs_per_round": statistics.mean(r[1] for r in rounds),
        "kib_per_round": statistics.mean(sizes) / 1024.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "outcome_digest": hashlib.sha256(
            json.dumps(
                [r.to_dict() for _i, output in exact for r in workload.records(output)],
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest(),
        "host_speed_p50": statistics.median(speeds),
        "op_ms_p50_uncorrected": statistics.median(op_walls) * 1000.0,
    }
    return metrics, notes, len(op_walls), failed


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    workload = setup(args.workload, args.seed)
    try:
        if args.trace:
            import layers

            declared = contract["per_layer"]
            values, recorder, attempted, failed = layers.trace_run(workload, args.seconds)
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            recorder.write(spans)
            notes = {"spans": str(spans.relative_to(PERF_DIR.parent))}
        else:
            declared = contract["end_to_end"]
            values, notes, attempted, failed = timed_run(workload, args.seconds)
            values["setup_s"] = sample_setup_s(args.workload, args.seed)
    finally:
        workload.close()

    mismatch = set(values) ^ {metric["name"] for metric in declared}
    if mismatch:
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(mismatch)}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for key, value in notes.items():
        print(f"{key} = {value}")
    print(f"fail_share = {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
