"""Integration tests: the full stack on both mechanisms, both execution modes,
and the community-network scenario."""

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.welfare import budget_surplus
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import CentralizedAuctioneer, DistributedAuctioneer
from repro.net.scheduler import AdversarialScheduler
from repro.scenarios import spec_from_dict
from repro.scenarios.runner import build_auctioneer, build_mechanism, resolve_round_inputs


class TestFullStackDoubleAuction:
    """Figure-1 pipeline for the cheap mechanism, with every block engaged."""

    def test_distributed_equals_centralized_across_sizes(self):
        providers = [f"p{i:02d}" for i in range(8)]
        for n in (5, 20, 60):
            bids = DoubleAuctionWorkload(seed=n).generate(n, 8, provider_ids=providers)
            distributed = DistributedAuctioneer(
                DoubleAuction(), providers=providers, config=FrameworkConfig(k=3)
            ).run_from_bids(bids)
            centralized = CentralizedAuctioneer(DoubleAuction()).run(bids)
            assert not distributed.aborted
            assert distributed.result == centralized.result
            assert budget_surplus(distributed.result.payments) >= -1e-9

    def test_adversarial_scheduling_does_not_change_the_outcome(self):
        providers = [f"p{i:02d}" for i in range(4)]
        bids = DoubleAuctionWorkload(seed=11).generate(15, 4, provider_ids=providers)
        baseline = DistributedAuctioneer(
            DoubleAuction(), providers=providers, config=FrameworkConfig(k=1)
        ).run_from_bids(bids)
        delayed = DistributedAuctioneer(
            DoubleAuction(),
            providers=providers,
            config=FrameworkConfig(k=1),
            scheduler=AdversarialScheduler(targets=frozenset({"p00"})),
        ).run_from_bids(bids)
        assert not delayed.aborted
        assert delayed.result == baseline.result


class TestFullStackStandardAuction:
    def test_parallel_levels_agree_on_the_result(self):
        providers = [f"p{i:02d}" for i in range(8)]
        bids = StandardAuctionWorkload(seed=21).generate(12, 8, provider_ids=providers)
        results = []
        for k, groups in ((1, 4), (1, 2), (3, 2), (3, 1)):
            report = DistributedAuctioneer(
                StandardAuction(epsilon=0.5),
                providers=providers,
                config=FrameworkConfig(k=k, parallel=True, num_groups=groups),
            ).run_from_bids(bids)
            assert not report.aborted
            results.append(report.result)
        assert all(r == results[0] for r in results)

    def test_payments_satisfy_vcg_sanity(self):
        providers = [f"p{i:02d}" for i in range(4)]
        bids = StandardAuctionWorkload(seed=33).generate(10, 4, provider_ids=providers)
        report = DistributedAuctioneer(
            StandardAuction(epsilon=0.4),
            providers=providers,
            config=FrameworkConfig(k=1, parallel=True),
        ).run_from_bids(bids)
        result = report.outcome.auction_result
        for user in bids.users:
            payment = result.payments.user_payment(user.user_id)
            assert payment >= -1e-9
            assert payment <= user.total_value + 1e-6


class TestCommunityScenarioIntegration:
    def test_gateway_auction_over_generated_topology(self):
        spec = spec_from_dict(
            {
                "topology": "community",
                "latency": "community",
                "users": 12,
                "providers": 5,
                "config": {"k": 2},
                "seed": 4,
            }
        )
        provider_ids, executor_ids, bids, latency = resolve_round_inputs(spec)
        auctioneer = build_auctioneer(spec, build_mechanism(spec), executor_ids, latency)
        report = auctioneer.run_from_bids(bids)
        assert not report.aborted
        assert report.outcome.elapsed_time > 0
        # Every winner is a member (not a gateway) and every used provider a gateway.
        winners = report.result.allocation.winners()
        assert all(w.startswith("u") for w in winners)
        assert set(report.result.allocation.providers_used()) <= set(provider_ids)
