"""The bidder-node rows of the communication cost, against the network's tally.

A full ``AuctionRun`` round adds three kinds of traffic around the providers'
protocol blocks: every bidder submits to every provider (``submit_bid``), every
provider announces its ask to its peers (``announce_ask``), and every provider
announces its output to every bidder (``announce_result``).  In an honest round
where every bid beats the deadline, each is a closed form in ``n`` bidders and
``m`` providers, whatever ``k``; no deadline timer is ever delivered.
"""

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.community.workload import DoubleAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.net.latency import BandwidthLatencyModel
from repro.runtime.auction_run import AuctionRun
from repro.runtime.bidder import BID_TAG, RESULT_TAG, bid_messages, result_messages
from repro.runtime.provider import ASK_TAG, ask_messages

#: Every (n, m, k) with n in {3, 10, 40}, m in {3, 5, 8} and m > 2k.
GRID = [(n, m, k) for n in (3, 10, 40) for m in (3, 5, 8) for k in range(1, m) if m > 2 * k]


def test_the_chatty_bidders_row():
    # The benchmark's net.msgs_other reads 696 on chatty_bidders (n = 40, m = 8).
    row = (bid_messages(40, 8), ask_messages(8), result_messages(40, 8))
    assert row == (320, 56, 320) and sum(row) == 696


@pytest.mark.parametrize("n, m, k", GRID, ids=[f"n{n}-m{m}-k{k}" for n, m, k in GRID])
def test_an_honest_round_sends_what_the_formulas_say(n, m, k):
    bids = DoubleAuctionWorkload(seed=n + 10 * m + 100 * k).generate(n, m)
    result = AuctionRun(
        bids,
        DoubleAuction(),
        config=FrameworkConfig(k=k),
        latency_model=BandwidthLatencyModel(
            base=0.003, bandwidth_bytes_per_s=12.5e6, jitter=0.001
        ),
        seed=k,
    ).execute()
    assert not result.aborted and not result.outcome.degraded
    assert all(observed is not None for observed in result.bidder_observations.values())
    outside_blocks = {
        path: count
        for path, count in result.stats.messages_by_tag.items()
        if not path.startswith("framework")
    }
    assert outside_blocks == {
        BID_TAG: bid_messages(n, m),
        ASK_TAG: ask_messages(m),
        RESULT_TAG: result_messages(n, m),
    }
