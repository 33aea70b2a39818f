"""Quickstart: the declarative front door, then the low-level API beneath it.

Part 1 — the declarative API: describe a scenario as data (a ``ScenarioSpec``),
hand it to ``run_scenario``, read back a uniform ``RunRecord``.  The same spec
round-trips through JSON/TOML files (``repro-auction run --spec file.toml``).

Part 2 — the runners: every pre-existing constructor
(``DistributedAuctioneer`` & co.) still works and is what ``run_scenario``
drives under the hood; drop down to it when you need hand-authored bids or
custom objects a spec cannot express.

Run with::

    python examples/quickstart.py
"""

from repro.auctions import BidVector, DoubleAuction, ProviderAsk, UserBid
from repro.core import DistributedAuctioneer, FrameworkConfig
from repro.scenarios import run_scenario, spec_from_dict


def part_one_declarative() -> None:
    # A complete scenario as pure data: the double auction over the paper's
    # Section 6.2 workload, 20 users bidding at 4 distrustful gateways.
    spec = spec_from_dict(
        {
            "name": "quickstart",
            "mechanism": "double",
            "users": 20,
            "providers": 4,
            "config": {"k": 1},
            "seed": 7,
        }
    )
    record = run_scenario(spec)

    print("— declarative API —")
    print(f"outcome      : {'ABORT' if record.aborted else 'agreed (x, p)'}")
    print(f"messages     : {record.messages}")
    print(f"winners      : {record.winners} of {record.users}")
    print(f"total paid   : {record.total_paid:.3f}")
    print(f"surplus      : {record.total_paid - record.total_received:.3f}")


def part_two_low_level() -> None:
    # Four community-network members ask for bandwidth at the gateways; their bids
    # say how much they value one unit of bandwidth and how much they need.
    users = (
        UserBid("alice", unit_value=1.20, demand=0.6),
        UserBid("bob", unit_value=1.05, demand=0.4),
        UserBid("carol", unit_value=0.95, demand=0.8),
        UserBid("dave", unit_value=0.80, demand=0.5),
    )
    # Four gateway owners (the providers) declare their unit cost and capacity.
    providers = (
        ProviderAsk("gw-campus", unit_cost=0.20, capacity=0.7),
        ProviderAsk("gw-hangar", unit_cost=0.35, capacity=0.6),
        ProviderAsk("gw-taradell", unit_cost=0.50, capacity=0.8),
        ProviderAsk("gw-backup", unit_cost=0.75, capacity=1.0),
    )
    bids = BidVector(users, providers)

    # No single gateway is trusted to run the auction: the four of them jointly
    # simulate the auctioneer, tolerating coalitions of up to k=1 provider.
    auctioneer = DistributedAuctioneer(
        DoubleAuction(),
        providers=[p.provider_id for p in providers],
        config=FrameworkConfig(k=1),
    )
    report = auctioneer.run_from_bids(bids)

    print("\n— low-level API (hand-authored bids) —")
    print(f"outcome      : {'ABORT' if report.aborted else 'agreed (x, p)'}")
    result = report.result
    print("allocation (user -> provider: amount):")
    for user_id, provider_id, amount in result.allocation.entries:
        print(f"  {user_id:>6s} -> {provider_id:<12s} {amount:.3f}")
    surplus = result.payments.total_paid - result.payments.total_received
    print(f"budget surplus (kept by the community): {surplus:.3f}")


def main() -> None:
    part_one_declarative()
    part_two_low_level()


if __name__ == "__main__":
    main()
