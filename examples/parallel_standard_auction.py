"""Parallelising an expensive VCG-style auction across provider groups (§5.2.2, Fig. 5).

The standard auction's payment phase re-solves the allocation once per winner, which
makes it expensive — and embarrassingly parallel.  This example expresses the
comparison as a *sweep* over one declarative scenario: the same instance runs as

* a centralised trusted auctioneer (p = 1);
* the distributed simulation with 8 providers split into p = 2 groups (k = 3);
* the distributed simulation with p = 4 groups (k = 1).

All three produce the *same* allocation and payments (the common coin fixes the
randomness in the distributed runs), but the parallel executions finish faster once
computation dominates.

Run with::

    python examples/parallel_standard_auction.py
"""

from repro.scenarios import SweepSpec, run_sweep, spec_from_dict

NUM_USERS = 60
NUM_PROVIDERS = 8


def main() -> None:
    base = spec_from_dict(
        {
            "name": "parallel-standard",
            "mechanism": {"kind": "standard", "epsilon": 0.25},
            "users": NUM_USERS,
            "providers": NUM_PROVIDERS,
            "latency": "wan",
            "seed": 1,
        }
    )
    points = [
        {"runner": "centralized", "series": "p=1 (centralised)"},
        {"config.k": 3, "config.parallel": True, "config.num_groups": 2},
        {"config.k": 1, "config.parallel": True, "config.num_groups": 4},
    ]
    result = run_sweep(SweepSpec(base=base, points=points))
    rows = result.records

    print(f"{NUM_USERS} users, {NUM_PROVIDERS} providers, mechanism {rows[0].mechanism}")
    print("\nconfiguration              running time")
    for record in rows:
        print(f"  {record.series:<24s} {record.elapsed_seconds:8.3f} s")

    baseline = rows[0].elapsed_seconds
    print("\nspeed-up over the centralised auctioneer:")
    for record in rows[1:]:
        print(f"  {record.series:<24s} {baseline / record.elapsed_seconds:5.2f}x")

    distributed = rows[1:]
    same = all(
        (r.winners, round(r.total_paid, 12), round(r.total_received, 12))
        == (distributed[0].winners,
            round(distributed[0].total_paid, 12),
            round(distributed[0].total_received, 12))
        for r in distributed
    )
    print(f"\nboth distributed configurations computed the same (x, p): {same}")
    print("(the centralised baseline uses its own random seed, so its tie-breaks may differ)")
    print(f"winning users: {distributed[0].winners} of {NUM_USERS}; "
          f"revenue {distributed[0].total_received:.2f}")


if __name__ == "__main__":
    main()
