"""Property-based tests for the distributed simulation's correctness (Definition 1).

Over random instances and random schedules, the honest execution of the framework
must produce the same (x, p) pair at every provider, equal to what a trusted
auctioneer running the same algorithm on the same agreed input would produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auctions.double_auction import DoubleAuction
from repro.common import is_abort
from repro.community.workload import DoubleAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.net.scheduler import FairScheduler, RandomScheduler

PROVIDERS = [f"p{i:02d}" for i in range(3)]


class TestCorrectSimulationProperty:
    @given(
        num_users=st.integers(min_value=1, max_value=12),
        workload_seed=st.integers(min_value=0, max_value=10_000),
        network_seed=st.integers(min_value=0, max_value=10_000),
        use_random_schedule=st.booleans(),
    )
    @settings(max_examples=25)
    def test_honest_simulation_matches_trusted_auctioneer(
        self, num_users, workload_seed, network_seed, use_random_schedule
    ):
        bids = DoubleAuctionWorkload(seed=workload_seed).generate(
            num_users, len(PROVIDERS), provider_ids=PROVIDERS
        )
        auctioneer = DistributedAuctioneer(
            DoubleAuction(),
            providers=PROVIDERS,
            config=FrameworkConfig(k=1),
            scheduler=RandomScheduler() if use_random_schedule else FairScheduler(),
            seed=network_seed,
        )
        report = auctioneer.run_from_bids(bids)
        assert not report.aborted
        # Definition 1: the outcome is the pair a trusted auctioneer would compute.
        assert report.result == DoubleAuction().run(bids)
        # And every provider individually output that exact pair.
        outputs = list(report.outcome.provider_outputs.values())
        assert all(o == outputs[0] for o in outputs)

    @given(
        workload_seed=st.integers(min_value=0, max_value=10_000),
        inconsistent_value=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=15)
    def test_equivocating_bidder_never_causes_disagreement(
        self, workload_seed, inconsistent_value
    ):
        bids = DoubleAuctionWorkload(seed=workload_seed).generate(
            6, len(PROVIDERS), provider_ids=PROVIDERS
        )
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=PROVIDERS, config=FrameworkConfig(k=1)
        )
        inputs = auctioneer.consistent_inputs(bids)
        victim = bids.users[0]
        # One provider received a different bid from the equivocating user.
        inputs[PROVIDERS[0]].received_user_bids[victim.user_id] = victim.with_unit_value(
            inconsistent_value
        )
        report = auctioneer.run(inputs, expected_users=[u.user_id for u in bids.users])
        outputs = list(report.outcome.provider_outputs.values())
        # Whatever the agreement resolved, all providers output the same thing, and
        # the round never ends with providers holding different valid pairs.
        assert all(o == outputs[0] for o in outputs) or report.aborted
