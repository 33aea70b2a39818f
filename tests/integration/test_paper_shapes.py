"""The shapes of the paper's evaluation (§6.2, §6.3), asserted on modelled time.

Figures 4 and 5 plot running time; what the paper claims about them is an
ordering.  A round's modelled time, messages and bytes are pure functions of
the seed, so each ordering here is exact — no host reading enters a verdict.
Speed is measured by ``perf/`` (``BENCHMARK.json``),
never here.

Two ablations sit beside the figures: where one round's messages go (bid
agreement, input validation, common coin, and the agreement modes), and what
grouping the parallel allocator into p = ⌊m/(k+1)⌋ groups may not change.
"""

import functools

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.scenarios import LATENCIES, ComponentSpec, figure4_sweep, figure5_sweep, run_scenario

PROVIDERS = [f"p{i:02d}" for i in range(8)]

FIG4_USERS = (100, 250, 500, 1000)
FIG4_K = (1, 2, 3)
#: ``(users, k)`` -> the Figure-4 point; ``k = 0`` is the centralised auctioneer.
_FIG4 = {
    (spec.users, spec.config.k if spec.runner == "distributed" else 0): spec
    for spec in figure4_sweep(n_values=FIG4_USERS, k_values=FIG4_K, seed=42).scenarios()
}

FIG5_USERS = (25, 50, 75, 100, 125)
FIG5_P = (1, 2, 4)
#: ``(users, p)`` -> the Figure-5 point; ``p = 1`` is the centralised auctioneer.
_FIG5 = {
    (spec.users, spec.config.num_groups or 1): spec
    for spec in figure5_sweep(
        n_values=FIG5_USERS, p_values=FIG5_P, epsilon=0.25, seed=42
    ).scenarios()
}


@functools.lru_cache(maxsize=None)
def fig4(users, k):
    return run_scenario(_FIG4[users, k])


@functools.lru_cache(maxsize=None)
def fig5(users, p):
    return run_scenario(_FIG5[users, p])


class TestFigure4:
    """Double auction: distribution costs time, more with n and with k (§6.2)."""

    @pytest.mark.parametrize("users", FIG4_USERS)
    def test_centralised_round_clears(self, users):
        assert not fig4(users, 0).aborted

    @pytest.mark.parametrize("k", FIG4_K)
    @pytest.mark.parametrize("users", FIG4_USERS)
    def test_distributed_is_slower_than_centralised_and_under_two_seconds(self, users, k):
        distributed = fig4(users, k)
        assert not distributed.aborted
        assert fig4(users, 0).elapsed_seconds < distributed.elapsed_seconds < 2.0

    # Batched agreement sends one message pattern whatever n is, so only time
    # and bytes grow with the users; all three grow with k.
    @pytest.mark.parametrize("metric", ("elapsed_seconds", "bytes_transferred"))
    @pytest.mark.parametrize("k", FIG4_K)
    def test_overhead_grows_with_users(self, k, metric):
        values = [getattr(fig4(users, k), metric) for users in FIG4_USERS]
        assert values == sorted(set(values)), values

    @pytest.mark.parametrize("metric", ("elapsed_seconds", "messages", "bytes_transferred"))
    @pytest.mark.parametrize("users", FIG4_USERS)
    def test_overhead_grows_with_k(self, users, metric):
        values = [getattr(fig4(users, k), metric) for k in FIG4_K]
        assert values == sorted(set(values)), values


class TestFigure5:
    """Standard auction: every series clears, and parallelism is paid in messages (§6.3)."""

    @pytest.mark.parametrize("p", FIG5_P)
    @pytest.mark.parametrize("users", FIG5_USERS)
    def test_every_series_clears(self, users, p):
        record = fig5(users, p)
        assert not record.aborted
        assert record.winners > 0

    @pytest.mark.parametrize("users", FIG5_USERS)
    def test_messages_grow_with_p(self, users):
        central, p2, p4 = (fig5(users, p).messages for p in FIG5_P)
        # p=1 is the trusted auctioneer; each group split adds protocol traffic.
        assert central == 0 < p2 < p4


@functools.lru_cache(maxsize=None)
def double_round(users):
    """One k=1 double-auction round on 2k+1 of the eight providers."""
    bids = DoubleAuctionWorkload(seed=7).generate(users, len(PROVIDERS), provider_ids=PROVIDERS)
    return DistributedAuctioneer(
        DoubleAuction(),
        providers=PROVIDERS[:3],
        config=FrameworkConfig(k=1),
        latency_model=LATENCIES.create(ComponentSpec("wan"), "latency"),
        seed=1,
    ).run_from_bids(bids)


def standard_round(users):
    """One k=1 standard-auction round on 2k+1 of the eight providers.

    ``A`` reads its seed, so the round runs the common coin.  The mechanism
    takes its least effort (one restart, no local search): the messages per
    block do not depend on it, and 800 users clear in a fraction of a second.
    """
    bids = StandardAuctionWorkload(seed=7).generate(users, len(PROVIDERS), provider_ids=PROVIDERS)
    return DistributedAuctioneer(
        StandardAuction(epsilon=0.5, local_search_rounds=0, min_restarts=1, max_restarts=1),
        providers=PROVIDERS[:3],
        config=FrameworkConfig(k=1),
        latency_model=LATENCIES.create(ComponentSpec("wan"), "latency"),
        seed=1,
    ).run_from_bids(bids)


def messages_by_block(report):
    """Delivered messages per building block, keyed by its name in the tag path."""
    counts = {"ba": 0, "iv": 0, "coin": 0, "other": 0}
    for path, count in report.stats.messages_by_tag.items():
        segments = path.split("/")
        block = next((name for name in ("ba", "iv", "coin") if name in segments), "other")
        counts[block] += count
    return counts


class TestBlockAblation:
    """Where one round's traffic goes: the bid agreement carries the bids (§6.2)."""

    @pytest.mark.parametrize("block", ("iv", "coin"))
    @pytest.mark.parametrize("users", (50, 200, 800))
    def test_bid_agreement_sends_at_least_as_much_as_each_other_block(self, users, block):
        # A double round runs no coin (its A reads no seed): the coin is
        # compared on a standard round, which does.
        report = standard_round(users) if block == "coin" else double_round(users)
        assert not report.aborted
        blocks = messages_by_block(report)
        assert blocks[block] > 0
        assert blocks["ba"] >= blocks[block]

    def test_bytes_grow_with_users(self):
        small = double_round(50).outcome.bytes_transferred
        large = double_round(800).outcome.bytes_transferred
        assert large > 4 * small

    def test_a_double_round_sends_no_coin_traffic(self):
        # The double auction reads no seed, so no coin runs.
        report = double_round(100)
        assert not report.aborted
        assert messages_by_block(report)["coin"] == 0

    def test_a_double_round_clears(self):
        assert not double_round(20).aborted


#: ``(groups, k)`` over m = 8: p = ⌊m/(k+1)⌋ for the last three; (1, 1) is the
#: replicated corner without parallelism: one group of all eight providers.
GROUPINGS = ((1, 1), (2, 3), (4, 1), (8, 0))


@functools.lru_cache(maxsize=None)
def parallel_round(num_groups, k):
    bids = StandardAuctionWorkload(seed=11).generate(60, len(PROVIDERS), provider_ids=PROVIDERS)
    return DistributedAuctioneer(
        StandardAuction(epsilon=0.25),
        providers=PROVIDERS,
        config=FrameworkConfig(k=k, parallel=True, num_groups=num_groups),
        latency_model=LATENCIES.create(ComponentSpec("wan"), "latency"),
        seed=3,
    ).run_from_bids(bids)


class TestParallelismAblation:
    """The parallel allocator's grouping changes who computes, never what (§6.3)."""

    @pytest.mark.parametrize("num_groups, k", GROUPINGS)
    def test_grouping_completes(self, num_groups, k):
        assert not parallel_round(num_groups, k).aborted

    @pytest.mark.parametrize("num_groups, k", GROUPINGS[1:])
    def test_result_does_not_depend_on_the_grouping(self, num_groups, k):
        assert parallel_round(num_groups, k).result == parallel_round(*GROUPINGS[0]).result
