"""The bidder-node rows of the communication cost, against the network's tally.

A full ``AuctionRun`` round adds three kinds of traffic around the providers'
protocol blocks: every bidder submits to every provider (``submit_bid``), every
provider announces its ask to its peers (``announce_ask``), and every provider
announces its output to every bidder (``announce_result``).  In an honest round
where every bid beats the deadline, each is a closed form in ``n`` bidders and
``m`` providers, whatever ``k``; no deadline timer is ever delivered.  So are
their bytes: the result crosses the wire ``n`` times and its digest
``(m−1)·n`` times, and the three rows plus the bid agreement and input
validation are every byte the round delivers.
"""

import functools

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.community.workload import DoubleAuctionWorkload
from repro.consensus.multi_consensus import BatchedConsensusBlock
from repro.core.allocator import validation_bytes
from repro.core.bid_agreement import agreement_batch, agreement_bytes
from repro.core.config import FrameworkConfig
from repro.net.latency import BandwidthLatencyModel
from repro.net.protocol import TAG_SEPARATOR
from repro.net.scheduler import FairScheduler
from repro.net.serialization import Digest, estimate_size
from repro.runtime.auction_run import AuctionRun
from repro.runtime.bidder import (
    BID_TAG,
    RESULT_TAG,
    bid_bytes,
    bid_messages,
    result_bytes,
    result_messages,
)
from repro.runtime.provider import ASK_TAG, ask_bytes, ask_messages

#: Every (n, m, k) with n in {3, 10, 40}, m in {3, 5, 8} and m > 2k.
GRID = [(n, m, k) for n in (3, 10, 40) for m in (3, 5, 8) for k in range(1, m) if m > 2 * k]


def test_the_chatty_bidders_row():
    # The benchmark's net.msgs_other reads 696 on chatty_bidders (n = 40, m = 8).
    row = (bid_messages(40, 8), ask_messages(8), result_messages(40, 8))
    assert row == (320, 56, 320) and sum(row) == 696


def test_a_digest_announcement_is_59_bytes():
    assert estimate_size((RESULT_TAG, Digest("any result"))) == 59


class TallyingScheduler(FairScheduler):
    """The fair scheduler, also adding up the bytes it is handed per tag path."""

    def __init__(self):
        super().__init__()
        self.bytes_by_tag = {}

    def push(self, message):
        path = message.tag.split(TAG_SEPARATOR, 1)[0]
        self.bytes_by_tag[path] = self.bytes_by_tag.get(path, 0) + message.size_bytes
        super().push(message)


@functools.lru_cache(maxsize=None)
def honest_round(n, m, k):
    """One honest round of the grid: its bids, its result and the per-tag bytes sent."""
    bids = DoubleAuctionWorkload(seed=n + 10 * m + 100 * k).generate(n, m)
    scheduler = TallyingScheduler()
    result = AuctionRun(
        bids,
        DoubleAuction(),
        config=FrameworkConfig(k=k),
        latency_model=BandwidthLatencyModel(
            base=0.003, bandwidth_bytes_per_s=12.5e6, jitter=0.001
        ),
        scheduler=scheduler,
        seed=k,
    ).execute()
    return bids, result, scheduler.bytes_by_tag


def envelope(path, subtag):
    """What a message's tag adds to its payload's bytes: it travels as ``(tag, payload)``."""
    return estimate_size((f"{path}{TAG_SEPARATOR}{subtag}",))


@pytest.mark.parametrize("n, m, k", GRID, ids=[f"n{n}-m{m}-k{k}" for n, m, k in GRID])
def test_an_honest_round_sends_what_the_formulas_say(n, m, k):
    _bids, result, _bytes = honest_round(n, m, k)
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


@pytest.mark.parametrize("n, m, k", GRID, ids=[f"n{n}-m{m}-k{k}" for n, m, k in GRID])
def test_an_honest_round_sends_the_bytes_the_formulas_say(n, m, k):
    bids, result, sent = honest_round(n, m, k)
    assert not result.aborted and result.stats.faults_injected == 0
    rows = {
        BID_TAG: bid_bytes(bids.users, m),
        ASK_TAG: ask_bytes(bids.providers),
        RESULT_TAG: result_bytes(result.outcome.auction_result, n, m),
    }
    assert {tag: sent[tag] for tag in rows} == rows
    # The whole round: the three rows, the batched agreement (value + echo)
    # and one digest per ordered pair in input validation.
    batch = agreement_batch(*bids.by_id(), bids.user_ids, bids.provider_ids)
    ba = "framework/ba/batch"
    agreement = agreement_bytes(batch, bids.provider_ids) + m * (m - 1) * (
        envelope(ba, BatchedConsensusBlock.VALUE) + envelope(ba, BatchedConsensusBlock.ECHO)
    )
    assert sent["framework/alloc/iv"] == validation_bytes(m)
    assert result.stats.bytes_delivered == sum(rows.values()) + agreement + validation_bytes(m)
