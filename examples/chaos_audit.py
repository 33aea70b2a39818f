"""Chaos audits: drive the auction over a misbehaving network, deterministically.

The fault plane treats failures as part of the model, not noise around it:
every perturbation — a dropped bid, a duplicated echo, a provider crashing
mid-round — is drawn from a seeded plan RNG and journaled, so a chaos run
replays bit-identically and a failure always ships with the seed that
reproduces it.  This example audits the distributed double auction under four
fault models x two seeds via
:func:`~repro.scenarios.chaos.run_chaos`; every cell runs
twice and must pass four invariants (termination, delivery conservation,
byte-identical replay, store torn-tail repair).  The same audit is reachable
from the CLI::

    repro-auction chaos --spec examples/specs/chaos.toml --workers 2

Run with::

    python examples/chaos_audit.py
"""

from repro.scenarios import ChaosSpec, ScenarioSpec, run_chaos


def main() -> None:
    spec = ScenarioSpec(
        name="chaos-demo",
        mechanism="double",
        users=8,
        providers=3,
        config={"k": 1},
        latency="constant",  # real delivery delays, so the crash window is live
        seed=7,
    )
    audit = ChaosSpec(
        base=spec,
        faults=(
            "loss",
            {"kind": "loss", "rate": 0.3, "label": "heavy-loss"},
            "duplicate",
            {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002},
        ),
        recovery={"max_retries": 3},
        seeds=(0, 1),
    )
    result = run_chaos(audit)

    for record in result.records:
        print(
            f"{record.label:<12s} seed {record.seed}: "
            f"{record.messages_sent:3d} sent, {record.messages_lost:2d} lost, "
            f"{record.retransmissions:2d} retransmitted, "
            f"{record.faults_injected:2d} faults injected -> "
            f"{'ok' if record.ok else 'FAILED'}"
        )

    print()
    if result.is_clean():
        print(
            f"clean: termination, conservation and byte-identical replay held "
            f"across {len(result.records)} cells"
        )
    else:
        print("WARNING: invariant violations:")
        for record in result.failing:
            print(f"  - {record.label} seed {record.seed}")


if __name__ == "__main__":
    main()
