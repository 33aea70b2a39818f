"""Tests for the community-network topology, workloads and the case-study round."""

import networkx as nx
import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.auctions.standard_auction import StandardAuction
from repro.community.topology import generate_community_network
from repro.community.workload import (
    DoubleAuctionWorkload,
    StandardAuctionWorkload,
    VRSessionWorkload,
    WorkloadParameters,
)
from repro.core.config import FrameworkConfig
from repro.core.framework import CentralizedAuctioneer, DistributedAuctioneer
from repro.net.latency import LanWanLatencyModel
from repro.scenarios import run_scenario, spec_from_dict
from repro.scenarios.runner import build_mechanism, build_topology, resolve_round_inputs


def community_spec(**fields):
    """A case-study scenario: the generated topology's gateways are the providers."""
    data = {"topology": "community", "latency": "community"}
    data.update(fields)
    return spec_from_dict(data)


class TestTopology:
    def test_generated_network_is_connected(self):
        network = generate_community_network(num_nodes=30, num_gateways=5, seed=1)
        assert nx.is_connected(network.graph)
        assert network.num_nodes == 30

    def test_gateway_and_member_partition(self):
        network = generate_community_network(num_nodes=25, num_gateways=6, seed=2)
        assert len(network.gateways) == 6
        assert len(network.members) == 19
        assert not set(network.gateways) & set(network.members)

    def test_gateways_are_well_connected(self):
        network = generate_community_network(num_nodes=40, num_gateways=4, seed=3)
        degrees = dict(network.graph.degree)
        min_gateway_degree = min(degrees[g] for g in network.gateways)
        median_degree = sorted(degrees.values())[len(degrees) // 2]
        assert min_gateway_degree >= median_degree - 1

    def test_sites_cover_all_nodes_and_feed_latency_model(self):
        network = generate_community_network(num_nodes=20, num_gateways=4, num_sites=3, seed=4)
        assert set(network.sites) == set(network.graph.nodes)
        assert len(set(network.sites.values())) <= 3
        model = network.latency_model()
        assert isinstance(model, LanWanLatencyModel)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_community_network(num_nodes=5, num_gateways=5)
        with pytest.raises(ValueError):
            generate_community_network(num_sites=0)

    def test_deterministic_given_seed(self):
        a = generate_community_network(num_nodes=20, num_gateways=4, seed=9)
        b = generate_community_network(num_nodes=20, num_gateways=4, seed=9)
        assert a.gateways == b.gateways
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_hop_distance(self):
        network = generate_community_network(num_nodes=15, num_gateways=3, seed=5)
        nodes = list(network.graph.nodes)
        assert network.hop_distance(nodes[0], nodes[0]) == 0
        assert network.hop_distance(nodes[0], nodes[-1]) >= 1


class TestWorkloads:
    def test_double_auction_distributions_match_paper(self):
        workload = DoubleAuctionWorkload(seed=0)
        bids = workload.generate(200, 8)
        assert len(bids.users) == 200
        assert len(bids.providers) == 8
        assert all(0.75 <= u.unit_value <= 1.25 for u in bids.users)
        assert all(0.0 < u.demand <= 1.0 for u in bids.users)
        assert all(0.0 < p.unit_cost <= 1.0 for p in bids.providers)
        share = bids.total_demand / 8
        assert all(0.5 * share <= p.capacity <= 1.5 * share for p in bids.providers)

    def test_standard_auction_capacity_is_scarce(self):
        workload = StandardAuctionWorkload(seed=0)
        bids = workload.generate(100, 8)
        assert all(p.unit_cost == 0.0 for p in bids.providers)
        # Capacity is at most a quarter of the per-provider demand share (plus floor).
        share = bids.total_demand / 8
        assert all(p.capacity <= max(0.25 * share, 0.05) + 1e-9 for p in bids.providers)
        assert bids.total_capacity < bids.total_demand

    def test_instances_differ_but_are_reproducible(self):
        workload = DoubleAuctionWorkload(seed=0)
        a = workload.generate(10, 3, instance=0)
        b = workload.generate(10, 3, instance=1)
        again = workload.generate(10, 3, instance=0)
        assert a != b
        assert a == again

    def test_custom_parameters(self):
        params = WorkloadParameters(bid_low=2.0, bid_high=3.0)
        bids = DoubleAuctionWorkload(parameters=params, seed=1).generate(20, 2)
        assert all(2.0 <= u.unit_value <= 3.0 for u in bids.users)

    def test_provider_ids_can_be_supplied(self):
        bids = StandardAuctionWorkload(seed=0).generate(5, 2, provider_ids=["gw1", "gw2"])
        assert bids.provider_ids == ["gw1", "gw2"]


class TestVRSessionWorkload:
    def test_demand_is_bimodal(self):
        workload = VRSessionWorkload(seed=0, session_fraction=0.5)
        bids = workload.generate(400, 8)
        bursty = [u for u in bids.users if u.demand >= 0.6]
        idle = [u for u in bids.users if u.demand <= 0.3]
        # Every user falls in one of the two modes; nothing in the gap.
        assert len(bursty) + len(idle) == 400
        assert 100 < len(bursty) < 300  # ~50% in-session

    def test_in_session_users_value_bandwidth_more(self):
        workload = VRSessionWorkload(seed=1, session_fraction=0.5, value_boost=2.0)
        bids = workload.generate(300, 4)
        bursty = [u.unit_value for u in bids.users if u.demand >= 0.6]
        idle = [u.unit_value for u in bids.users if u.demand <= 0.3]
        assert sum(bursty) / len(bursty) > sum(idle) / len(idle)

    def test_capacity_is_scarce_and_costs_default_to_zero(self):
        bids = VRSessionWorkload(seed=2).generate(100, 8)
        assert all(p.unit_cost == 0.0 for p in bids.providers)
        assert bids.total_capacity < bids.total_demand

    def test_cost_range_enables_double_auction_use(self):
        bids = VRSessionWorkload(seed=3, cost_low=0.1, cost_high=0.9).generate(50, 4)
        assert all(0.1 <= p.unit_cost <= 0.9 for p in bids.providers)

    def test_instances_reproducible(self):
        workload = VRSessionWorkload(seed=4)
        assert workload.generate(20, 3, instance=1) == workload.generate(20, 3, instance=1)
        assert workload.generate(20, 3, instance=1) != workload.generate(20, 3, instance=2)

    def test_session_fraction_zero_and_one(self):
        calm = VRSessionWorkload(seed=5, session_fraction=0.0).generate(50, 4)
        assert all(u.demand <= 0.3 for u in calm.users)
        stormy = VRSessionWorkload(seed=5, session_fraction=1.0).generate(50, 4)
        assert all(u.demand >= 0.6 for u in stormy.users)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VRSessionWorkload(session_fraction=1.5)
        with pytest.raises(ValueError):
            VRSessionWorkload(burst_low=0.9, burst_high=0.1)
        with pytest.raises(ValueError):
            VRSessionWorkload(value_boost=0.0)


class TestScenario:
    """The case-study round on the spec path (``topology="community"``)."""

    def test_double_auction_scenario_runs_end_to_end(self):
        spec = community_spec(users=8, providers=4, seed=1)
        provider_ids, _executors, bids, latency = resolve_round_inputs(spec)
        mechanism = build_mechanism(spec)
        assert isinstance(mechanism, DoubleAuction)
        assert provider_ids == build_topology(spec).gateways
        assert len(provider_ids) == 4
        report = DistributedAuctioneer(
            mechanism, provider_ids, FrameworkConfig(k=1), latency_model=latency
        ).run_from_bids(bids)
        assert not report.aborted
        central = CentralizedAuctioneer(mechanism).run(bids)
        assert report.result == central.result
        record = run_scenario(spec)
        assert not record.aborted
        assert record.winners == len(report.result.allocation.winners())

    def test_standard_auction_scenario_runs_end_to_end(self):
        spec = community_spec(
            mechanism={"kind": "standard", "epsilon": 0.5},
            users=6,
            providers=4,
            config={"k": 1, "parallel": True},
            seed=2,
        )
        assert isinstance(build_mechanism(spec), StandardAuction)
        assert not run_scenario(spec).aborted

    def test_scenario_auction_run(self):
        spec = community_spec(users=5, providers=3, runner="auction_run", seed=3)
        assert not run_scenario(spec).aborted
