"""Each building block's message count in closed form, against the network's tally.

An honest, fault-free round of ``m`` executors runs one batched bid agreement
(value + echo), one input validation (one digest each) and one common coin
(commit + reveal), whatever ``k``.  ``NetworkStats.messages_by_tag`` counts the
deliveries per block path, so every formula is checked exactly, block by block.
"""

import functools

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.bid_agreement import agreement_messages
from repro.core.common_coin import coin_messages
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.core.input_validation import validation_messages

#: Every (m, k) with m = 3..9 and m > 2k.
GRID = [(m, k) for m in range(3, 10) for k in range(1, m) if m > 2 * k]

MECHANISMS = {
    "double": (DoubleAuction, DoubleAuctionWorkload, {}),
    "standard": (functools.partial(StandardAuction, epsilon=0.5), StandardAuctionWorkload, {}),
    "standard-parallel": (
        functools.partial(StandardAuction, epsilon=0.5),
        StandardAuctionWorkload,
        {"parallel": True},
    ),
}


def block_messages(stats, prefix):
    return sum(n for path, n in stats.messages_by_tag.items() if path.startswith(prefix))


def test_the_fig4_sweep_rows():
    # The benchmark's net.msgs_* read 84 / 42 / 84 at m = 7, 112 / 56 / 112 at
    # m = 8 and 40 / 20 / 40 at m = 5.
    rows = {m: (agreement_messages(m), validation_messages(m), coin_messages(m)) for m in (5, 7, 8)}
    assert rows == {5: (40, 20, 40), 7: (84, 42, 84), 8: (112, 56, 112)}


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
@pytest.mark.parametrize("m, k", GRID, ids=[f"m{m}-k{k}" for m, k in GRID])
def test_an_honest_round_sends_what_the_formulas_say(m, k, mechanism):
    factory, workload, config = MECHANISMS[mechanism]
    providers = [f"p{i}" for i in range(m)]
    bids = workload(seed=m * 10 + k).generate(6, m, provider_ids=providers)
    report = DistributedAuctioneer(
        factory(), providers=providers, config=FrameworkConfig(k=k, **config), seed=k
    ).run_from_bids(bids)
    assert not report.aborted and not report.outcome.degraded
    assert report.stats.faults_injected == 0
    observed = [
        block_messages(report.stats, prefix)
        for prefix in ("framework/ba", "framework/alloc/iv", "framework/alloc/coin")
    ]
    assert observed == [agreement_messages(m), validation_messages(m), coin_messages(m)]
