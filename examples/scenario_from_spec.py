"""Scenarios as data: load spec files, override fields, batch and sweep.

Everything in this example is driven by declarative specs — no mechanism,
workload or adversary is constructed by hand:

1. load ``examples/specs/vr_sessions.toml`` (bursty VR-session demand) and run
   its 5 rounds with ``run_sweep`` — a batch is a one-point sweep;
2. tweak the same spec in-flight with dotted-path overrides (the CLI's
   ``--set`` mechanism);
3. run a *full round with adversarial bidders* — a silent user and an
   equivocating user over a generated community-network topology — again
   purely from data: the adversary strategies are registry kinds.

Run with::

    python examples/scenario_from_spec.py
"""

import os

from repro.scenarios import (
    SweepSpec,
    load_spec,
    run_scenario,
    run_sweep,
    spec_from_dict,
    spec_with_overrides,
)
from repro.scenarios.runner import build_topology

SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")


def batch_from_file() -> None:
    spec = load_spec(os.path.join(SPEC_DIR, "vr_sessions.toml"))
    print(f"spec '{spec.name}': {spec.users} users, {spec.providers} providers, "
          f"workload {spec.workload.kind}, mechanism {spec.mechanism.kind}")
    records = run_sweep(SweepSpec(base=spec)).records
    aborted = sum(1 for record in records if record.aborted)
    mean = sum(record.elapsed_seconds for record in records) / len(records)
    print(f"rounds          : {len(records)} ({aborted} aborted)")
    print(f"mean time       : {mean:.4f} s (model)")
    winners = [record.winners for record in records]
    print(f"winners / round : {winners}  (bursty demand -> scarce capacity)")


def override_in_flight() -> None:
    spec = spec_with_overrides(
        load_spec(os.path.join(SPEC_DIR, "vr_sessions.toml")),
        {"users": 30, "workload.session_fraction": 0.7, "rounds": 1},
    )
    record = run_scenario(spec)
    print(f"\n70% of 30 users in-session: {record.winners} winners, "
          f"revenue {record.total_received:.3f}")


def adversaries_from_data() -> None:
    spec = spec_from_dict(
        {
            "name": "community-adversaries",
            "mechanism": "double",
            "users": 16,
            "providers": 6,
            "runner": "auction_run",
            "topology": {"kind": "community", "num_sites": 3},
            "latency": "community",
            "config": {"k": 2},
            "bidders": [
                {"kind": "silent", "indices": [0]},
                {"kind": "inconsistent", "indices": [1]},
            ],
            "seed": 3,
        }
    )
    network = build_topology(spec)
    print(f"\ncommunity network: {network.num_nodes} nodes, "
          f"{len(network.gateways)} gateways; one silent + one equivocating bidder")
    record = run_scenario(spec)
    print(f"outcome          : {'ABORT' if record.aborted else 'agreed (x, p)'}")
    print(f"messages / bytes : {record.messages} / {record.bytes_transferred}")
    print(f"winning users    : {record.winners} of {record.users} "
          "(the misbehaving users are neutralised, honest bids are unaffected)")


def main() -> None:
    batch_from_file()
    override_in_flight()
    adversaries_from_data()


if __name__ == "__main__":
    main()
