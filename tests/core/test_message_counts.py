"""Each building block's message count in closed form, against the network's tally.

An honest, fault-free round of ``m`` executors runs one batched bid agreement
(value + echo), one input validation (one digest each, a data transfer from
every provider to every provider) and, when ``A`` reads
its seed, one common coin (commit + reveal), whatever ``k``.  On the parallel
allocator each provider group also sends its payments to every provider
outside it.  ``NetworkStats.messages_by_tag`` counts the deliveries per block
path, so every formula is checked exactly, block by block, and the rows add up
to the round's ``messages_delivered``.  A double round's bytes are
checked exactly too, against ``NetworkStats.bytes_delivered``, and so are a
parallel round's payment transfers, which carry the winners' payments alone.
"""

import functools

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.consensus.multi_consensus import BatchedConsensusBlock
from repro.core.allocator import (
    assign_provider_groups,
    transfer_messages,
    validation_bytes,
    validation_messages,
)
from repro.core.bid_agreement import (
    BidAgreementBlock,
    agreement_batch,
    agreement_bytes,
    agreement_messages,
)
from repro.core.common_coin import coin_messages
from repro.core.config import FrameworkConfig
from repro.core.data_transfer import DataTransferBlock
from repro.core.framework import DistributedAuctioneer
from repro.net.protocol import TAG_SEPARATOR
from repro.net.scheduler import FairScheduler
from repro.net.serialization import estimate_size
from repro.scenarios import ScenarioSpec, figure4_sweep, run_scenario, run_sweep

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
    # The per-block formulas at the benchmark's m = 5, 7 and 8.  Only
    # fig5_sweep's standard rounds (m = 8) read the coin column; the double
    # rounds read net.msgs_common_coin 0 (see the next test).
    rows = {m: (agreement_messages(m), validation_messages(m), coin_messages(m)) for m in (5, 7, 8)}
    assert rows == {5: (40, 20, 40), 7: (84, 42, 84), 8: (112, 56, 112)}


def test_the_fig5_sweep_rows():
    # A fig5_sweep op's distributed points run the parallel standard auction on
    # m = 8 executors: p = 2 groups of 4 (k = 3) and p = 4 groups of 2 (k = 1).
    # Their mean is the benchmark's msgs_per_round, 320.
    m = 8
    providers = [f"p{i}" for i in range(m)]
    rows = {
        len(groups): agreement_messages(m)
        + validation_messages(m)
        + coin_messages(m)
        + transfer_messages(groups)
        for groups in (assign_provider_groups(providers, k) for k in (3, 1))
    }
    assert rows == {2: 312, 4: 328}
    assert sum(rows.values()) / len(rows) == 320


def test_the_benchmark_double_rounds_run_no_coin():
    # Counted, never timed.  A fig4_sweep op's distributed points run k = 1, 2, 3
    # on m = 2k+1 executors: bid agreement, input validation and no coin, since
    # the double auction never reads a seed.
    sweep = figure4_sweep(n_values=(300,), seed=1)
    records = run_sweep(sweep).records
    rounds = {r.executors: r.messages for r in records if r.runner != "centralized"}
    assert rounds == {m: 3 * m * (m - 1) for m in (3, 5, 7)} == {3: 18, 5: 60, 7: 126}
    # A chatty_bidders op: n = 40 bidders submit to and hear back from m = 8
    # providers (2nm), the providers swap asks (m(m-1)), then agree and validate.
    n, m = 40, 8
    chatty = ScenarioSpec(
        name="chatty_bidders",
        mechanism="double",
        users=n,
        providers=m,
        runner="auction_run",
        config={"k": 2},
        latency="wan",
        seed=1,
    )
    assert run_scenario(chatty).messages == 2 * n * m + 4 * m * (m - 1) == 864


def envelope(path, subtag):
    """What a message's tag adds to its payload's bytes: it travels as ``(tag, payload)``."""
    return estimate_size((f"{path}{TAG_SEPARATOR}{subtag}",))


def double_round_bytes(n, m):
    """Bytes of a ``fig4_sweep``-shaped double round, less its value round and validation.

    What is left is the echo term of the bid agreement.  Asserts on the way
    that the whole round's bytes are what ``agreement_bytes`` and the
    validation row say: ``m·(m−1)`` announcements of a 64-hex digest.
    """
    providers = [f"p{i}" for i in range(m)]
    bids = DoubleAuctionWorkload(seed=1).generate(n, m, provider_ids=providers)
    report = DistributedAuctioneer(
        DoubleAuction(),
        providers=providers,
        config=FrameworkConfig(k=(m - 1) // 2),
        seed=1,
    ).run_from_bids(bids)
    assert not report.aborted
    batch = agreement_batch(*bids.by_id(), bids.user_ids, bids.provider_ids)
    pairs = m * (m - 1)
    ba = "framework/ba/batch"
    envelopes = pairs * (
        envelope(ba, BatchedConsensusBlock.VALUE) + envelope(ba, BatchedConsensusBlock.ECHO)
    )
    validation = validation_bytes(m)
    agreement = agreement_bytes(batch, providers) + envelopes
    assert report.stats.bytes_delivered == agreement + validation
    value_round = pairs * (envelope(ba, BatchedConsensusBlock.VALUE) + estimate_size(batch))
    return report.stats.bytes_delivered - value_round - validation


@pytest.mark.parametrize("n, m", [(3, 3), (30, 5), (300, 8)])
@pytest.mark.parametrize("mechanism", ["double", "standard"])
def test_an_honest_batch_is_17_bytes_a_bid_and_an_ask(mechanism, n, m):
    # §4.1's 128 bits a bid: the batch is a 36-byte digest of the label order,
    # a 4-byte count, then a 1-byte marker and two float64s per bid and ask.
    bids = MECHANISMS[mechanism][1](seed=n).generate(n, m)
    block = BidAgreementBlock("ba", bids.user_ids, bids.provider_ids, *bids.by_id())
    assert estimate_size(block._shared_input()[0]) == 36 + 4 + 17 * (n + m)


class ValidationTally(FairScheduler):
    """The fair scheduler, also keeping the size of every validation message."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def push(self, message):
        if message.tag.startswith(f"framework/alloc/iv{TAG_SEPARATOR}"):
            self.sizes.append(message.size_bytes)
        super().push(message)


class PaymentTally(FairScheduler):
    """The fair scheduler, also keeping the size of every payment-transfer message."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def push(self, message):
        if message.tag.startswith("framework/alloc/dt:pay/"):
            self.sizes.append(message.size_bytes)
        super().push(message)


@pytest.mark.parametrize(
    "n, m, k",
    [(50, 8, 3), (50, 8, 1), (20, 4, 1), (20, 6, 2), (30, 7, 1)],
    ids=["fig5-p2", "fig5-p4", "m4-p2", "m6-p2", "m7-p3"],
)
def test_a_payment_transfer_carries_its_groups_winners_alone(n, m, k):
    # Counted, never timed.  Group g of p sends the payments of winners[g::p]
    # to the m - |G_g| providers outside it; a loser's 0.0 never travels.
    providers = [f"p{i}" for i in range(m)]
    bids = StandardAuctionWorkload(seed=n + m).generate(n, m, provider_ids=providers)
    tally = PaymentTally()
    report = DistributedAuctioneer(
        StandardAuction(epsilon=0.5),
        providers=providers,
        config=FrameworkConfig(k=k, parallel=True),
        scheduler=tally,
        seed=k,
    ).run_from_bids(bids)
    assert not report.aborted
    result = report.outcome.result
    winners = result.allocation.winners()
    assert 0 < len(winners) < n
    groups = assign_provider_groups(providers, k)
    assert len(groups) > 1
    expected = 0
    for g, group in enumerate(groups):
        tag = f"framework/alloc/dt:pay/{g}{TAG_SEPARATOR}{DataTransferBlock.VALUE}"
        payments = {uid: result.payments.user_payment(uid) for uid in winners[g :: len(groups)]}
        expected += len(group) * (m - len(group)) * estimate_size((tag, payments))
    assert len(tally.sizes) == transfer_messages(groups)
    assert sum(tally.sizes) == expected


@pytest.mark.parametrize("m", (3, 5, 8))
def test_an_honest_validation_is_one_68_byte_digest_per_ordered_pair(m):
    # Counted, never timed.  Each message is the agreed vector's 36-byte Digest
    # under its 32-byte tag, whatever the vector's size.
    providers = [f"p{i}" for i in range(m)]
    bids = DoubleAuctionWorkload(seed=m).generate(30, m, provider_ids=providers)
    tally = ValidationTally()
    report = DistributedAuctioneer(
        DoubleAuction(), providers=providers, config=FrameworkConfig(k=1), scheduler=tally
    ).run_from_bids(bids)
    assert not report.aborted
    assert tally.sizes == [68] * (m * (m - 1))
    assert report.stats.messages_by_tag["framework/alloc/iv"] == validation_messages(m)
    assert validation_bytes(m) == 68 * m * (m - 1)


@pytest.mark.parametrize("m", (3, 5, 7))
def test_the_fig4_sweep_rounds_send_what_the_byte_formula_says(m):
    # Counted, never timed.  The fig4_sweep op's distributed points at n = 300;
    # the echo carries one digest per provider, so its bytes are the same at
    # a tenth of the users.
    echo_terms = {n: double_round_bytes(n, m) for n in (30, 300)}
    assert echo_terms[30] == echo_terms[300]


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
@pytest.mark.parametrize("m, k", GRID, ids=[f"m{m}-k{k}" for m, k in GRID])
def test_an_honest_round_sends_what_the_formulas_say(m, k, mechanism):
    factory, workload, config = MECHANISMS[mechanism]
    algorithm = factory()
    providers = [f"p{i}" for i in range(m)]
    bids = workload(seed=m * 10 + k).generate(6, m, provider_ids=providers)
    report = DistributedAuctioneer(
        algorithm, providers=providers, config=FrameworkConfig(k=k, **config), seed=k
    ).run_from_bids(bids)
    assert not report.aborted and not report.outcome.degraded
    assert report.stats.faults_injected == 0
    observed = [
        block_messages(report.stats, prefix)
        for prefix in ("framework/ba", "framework/alloc/iv", "framework/alloc/coin")
    ]
    coin = coin_messages(m) if algorithm.randomized else 0
    assert observed == [agreement_messages(m), validation_messages(m), coin]
    transfers = 0
    if config.get("parallel"):
        groups = assign_provider_groups(providers, k)
        for g, group in enumerate(groups):
            path = f"framework/alloc/dt:pay/{g}"
            if len(group) == m:
                assert path not in report.stats.messages_by_tag
            else:
                assert report.stats.messages_by_tag[path] == len(group) * (m - len(group))
        transfers = transfer_messages(groups)
    assert report.stats.messages_delivered == sum(observed) + transfers
