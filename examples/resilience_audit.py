"""Resilience audits as a first-class workload: sweep coalitions, in parallel.

Where ``examples/adversarial_coalitions.py`` hand-wires five coalitions against
one auctioneer through the low-level :func:`repro.gametheory.check_k_resilience`
API, this example drives the same claim (Definition 2: k-resilient ex-post
equilibrium) through the declarative audit subsystem: a
:class:`~repro.scenarios.resilience.ResilienceSpec` enumerates every coalition
of size <= k, crosses it with the deviation library and the schedules, and
:func:`~repro.scenarios.resilience.run_resilience` runs the grid —
here in a 2-process pool, with the honest baseline solved once per
(schedule, seed) group.  The same audit is reachable from the CLI::

    repro-auction resilience --spec examples/specs/resilience.json --workers 2

Run with::

    python examples/resilience_audit.py
"""

from repro.scenarios import ResilienceSpec, ScenarioSpec, run_resilience


def main() -> None:
    spec = ScenarioSpec(
        name="resilience-demo",
        mechanism="double",
        users=12,
        providers=5,
        config={"k": 2},
        seed=9,
    )
    audit = ResilienceSpec(
        base=spec,
        adversaries=("equivocate", {"kind": "tamper_output", "bonus": 5.0}),
        schedules=("fair", "round_robin"),
    )
    result = run_resilience(audit, workers=2)

    by_schedule = {}
    for record in result.records:
        by_schedule.setdefault(record.schedule, []).append(record)
    for schedule, records in by_schedule.items():
        aborted = sum(1 for r in records if r.deviating_aborted)
        worst = max(r.max_gain for r in records)
        print(
            f"{schedule:<12s} {len(records):3d} cells, {aborted:3d} drove the outcome "
            f"to ⊥, best member gain {worst:+.6f}"
        )

    print()
    if result.is_clean():
        print(
            f"resilient: no coalition of size <= 2 profited or altered the valid "
            f"outcome across {len(result.records)} cells — consistent with Theorem 1"
        )
    else:
        print("WARNING: violations found:")
        for record in result.failing:
            print(f"  - {record.label} by {','.join(record.coalition)}")


if __name__ == "__main__":
    main()
