"""Case study (§5): bandwidth reservation at the gateways of a community network.

This example builds a synthetic Guifi-like mesh topology, designates its
best-connected nodes as Internet gateways (the providers), generates the paper's
§6.2 workload for the member nodes, and runs a *complete* auction round with real
bidder nodes over the simulated network — including a user that never submits a bid
and a user that sends different bids to different gateways.  The distributed
simulation of the auctioneer still terminates with a single agreed outcome, the
misbehaving users are excluded or resolved consistently, and the honest users are
unaffected.

The round is built from its pieces: the generated topology, the §6.2 workload over
its gateways, and an :class:`~repro.runtime.AuctionRun` on the topology's LAN/WAN
latency model.  The same round without the example's misbehaving bidders is one
spec away::

    repro-auction run --set topology=community --set latency=community --set runner=auction_run --set users=16 --set providers=6 --set config.k=2 --set seed=3

(``bidders=`` in a spec file adds the silent and equivocating users).

Run with::

    python examples/community_bandwidth_reservation.py
"""

from repro.adversary import InconsistentBidder, SilentBidder
from repro.auctions import DoubleAuction
from repro.community import DoubleAuctionWorkload, generate_community_network
from repro.core import FrameworkConfig
from repro.runtime import AuctionRun

USERS, GATEWAYS, SEED = 16, 6, 3


def main() -> None:
    # Every non-gateway node is a member that bids.
    network = generate_community_network(
        num_nodes=USERS + GATEWAYS, num_gateways=GATEWAYS, seed=SEED
    )
    bids = DoubleAuctionWorkload(seed=SEED).generate(
        USERS, GATEWAYS, provider_ids=network.gateways
    )
    print(f"community network: {network.num_nodes} nodes, "
          f"{len(network.gateways)} gateways, "
          f"{network.graph.number_of_edges()} mesh links")
    print(f"gateways (providers): {', '.join(network.gateways)}")

    # Two misbehaving users: one silent, one equivocating.
    user_ids = bids.user_ids
    strategies = {
        user_ids[0]: SilentBidder(),
        user_ids[1]: InconsistentBidder(),
    }
    run = AuctionRun(
        bids,
        DoubleAuction(),
        config=FrameworkConfig(k=2),
        bidder_strategies=strategies,
        latency_model=network.latency_model(),
    )
    result = run.execute()

    outcome = result.outcome
    print(f"\noutcome          : {'ABORT' if outcome.aborted else 'agreed (x, p)'}")
    print(f"modelled time    : {outcome.elapsed_time * 1000:.1f} ms")
    print(f"messages / bytes : {outcome.messages} / {outcome.bytes_transferred}")

    auction = outcome.auction_result
    winners = auction.allocation.winners()
    print(f"\nwinning users    : {len(winners)} of {len(user_ids)}")
    print(f"silent user {user_ids[0]} won?       {user_ids[0] in winners}")
    print(f"equivocating user {user_ids[1]} won? {user_ids[1] in winners}")

    print("\nper-gateway utilisation:")
    for gateway in network.gateways:
        used = auction.allocation.provider_total(gateway)
        capacity = bids.provider(gateway).capacity
        revenue = auction.payments.provider_revenue(gateway)
        print(f"  {gateway}: {used:.2f} / {capacity:.2f} units sold, revenue {revenue:.3f}")

    observed = set(map(str, result.bidder_observations.values()))
    print(f"\nall bidders observed the same outcome: {len(observed) == 1}")


if __name__ == "__main__":
    main()
