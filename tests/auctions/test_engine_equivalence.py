"""Differential tests: the vectorized engine must equal the reference bit for bit.

This suite is the gate for flipping any default from "reference" to "vectorized":
for a grid of seeds × scenario sizes the two engines must return *identical*
assignments, welfare and clamped payments — not approximately equal, identical.
The distributed framework depends on this: provider groups independently recompute
pieces of the mechanism and the data-transfer block aborts on any disagreement, so
a single differing ulp would turn into spurious ⊥ outcomes in mixed deployments.
"""

import random

import pytest

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.engine import (
    DEFAULT_ENGINE,
    VectorizedStandardAuction,
    clear_solve_cache,
    engine_name,
    make_standard_auction,
    resolve_engine,
)
from repro.auctions.engine.pivot import PivotExecutor, shared_solve_cache
from repro.auctions.standard_auction import StandardAuction
from repro.community.workload import StandardAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer

SEEDS = (0, 1, 2, 3, 4)
SIZES = ((5, 2), (12, 4), (30, 8), (60, 8))


def _pair(epsilon=0.25, local_search_rounds=1):
    reference = StandardAuction(epsilon=epsilon, local_search_rounds=local_search_rounds)
    vectorized = VectorizedStandardAuction(
        epsilon=epsilon, local_search_rounds=local_search_rounds, pivot_mode="serial"
    )
    return reference, vectorized


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_solve_cache()
    yield
    clear_solve_cache()


class TestSolveAllocationEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s[0]}m{s[1]}")
    def test_identical_allocation_and_welfare(self, seed, size):
        num_users, num_providers = size
        bids = StandardAuctionWorkload(seed=seed).generate(num_users, num_providers)
        reference, vectorized = _pair()
        alloc_seed = 777_000 + seed
        ref_allocation, ref_welfare = reference.solve_allocation(bids, alloc_seed)
        vec_allocation, vec_welfare = vectorized.solve_allocation(bids, alloc_seed)
        assert vec_allocation == ref_allocation
        assert vec_welfare == ref_welfare  # bit-identical, no tolerance

    @pytest.mark.parametrize("epsilon,rounds", [(0.5, 0), (0.5, 3), (0.15, 1)])
    def test_identical_across_parameterisations(self, epsilon, rounds):
        bids = StandardAuctionWorkload(seed=9).generate(25, 6)
        reference, vectorized = _pair(epsilon=epsilon, local_search_rounds=rounds)
        assert vectorized.solve_allocation(bids, 5) == reference.solve_allocation(bids, 5)

    def test_degenerate_instances(self):
        reference, vectorized = _pair()
        empty = BidVector((), (ProviderAsk("p0", 0.0, 1.0),))
        no_capacity = BidVector((UserBid("u0", 1.0, 0.5),), (ProviderAsk("p0", 0.0, 0.0),))
        invalid_only = BidVector(
            (UserBid("u0", 0.0, 0.5), UserBid("u1", 1.0, 0.0)),
            (ProviderAsk("p0", 0.0, 1.0),),
        )
        for bids in (empty, no_capacity, invalid_only):
            assert vectorized.solve_allocation(bids, 3) == reference.solve_allocation(bids, 3)


class TestFullRunEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", SIZES[:3], ids=lambda s: f"n{s[0]}m{s[1]}")
    def test_identical_auction_results(self, seed, size):
        """Assignments, welfare *and clamped payments* are seed-for-seed identical."""
        num_users, num_providers = size
        bids = StandardAuctionWorkload(seed=seed).generate(num_users, num_providers)
        reference, vectorized = _pair()
        ref_result = reference.run(bids, random.Random(seed))
        clear_solve_cache()
        vec_result = vectorized.run(bids, random.Random(seed))
        assert vec_result == ref_result

    def test_identical_with_warm_cache(self):
        """Cache hits return the same values as cold computations."""
        bids = StandardAuctionWorkload(seed=4).generate(20, 5)
        reference, vectorized = _pair()
        ref_result = reference.run(bids, random.Random(11))
        first = vectorized.run(bids, random.Random(11))
        second = vectorized.run(bids, random.Random(11))  # fully memoised now
        assert first == ref_result
        assert second == ref_result
        assert shared_solve_cache().hits > 0

    def test_payments_for_users_subset_identical(self):
        bids = StandardAuctionWorkload(seed=6).generate(18, 5)
        reference, vectorized = _pair()
        seed = 4242
        allocation, welfare = reference.solve_allocation(bids, seed)
        subset = bids.user_ids[::2]
        ref_payments = reference.payments_for_users(bids, subset, allocation, welfare, seed)
        vec_payments = vectorized.payments_for_users(bids, subset, allocation, welfare, seed)
        assert vec_payments == ref_payments


class TestPivotExecutorModes:
    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_pool_modes_match_reference(self, mode):
        bids = StandardAuctionWorkload(seed=2).generate(15, 4)
        reference = StandardAuction(epsilon=0.5)
        vectorized = VectorizedStandardAuction(
            epsilon=0.5, pivot_mode=mode, pivot_workers=2
        )
        try:
            assert vectorized.run(bids, random.Random(3)) == reference.run(
                bids, random.Random(3)
            )
        finally:
            vectorized.close()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PivotExecutor(mode="fleet")

    def test_auto_mode_resolves(self):
        assert PivotExecutor(mode="auto").mode in ("serial", "thread")


class TestEngineSwitch:
    def test_make_standard_auction(self):
        assert isinstance(make_standard_auction("reference"), StandardAuction)
        assert isinstance(make_standard_auction("vectorized"), VectorizedStandardAuction)
        with pytest.raises(ValueError):
            make_standard_auction("quantum")

    def test_resolve_engine_round_trip_preserves_parameters(self):
        source = StandardAuction(epsilon=0.1, perturbation=0.07, local_search_rounds=2)
        vectorized = resolve_engine(source, "vectorized")
        assert isinstance(vectorized, VectorizedStandardAuction)
        assert vectorized.restarts == source.restarts
        assert vectorized.perturbation == source.perturbation
        assert vectorized.local_search_rounds == source.local_search_rounds
        back = resolve_engine(vectorized, "reference")
        assert type(back) is StandardAuction
        assert back.restarts == source.restarts

    def test_resolve_engine_is_identity_when_already_matching(self):
        mech = VectorizedStandardAuction()
        assert resolve_engine(mech, "vectorized") is mech
        ref = StandardAuction()
        assert resolve_engine(ref, "reference") is ref

    def test_non_standard_mechanisms_pass_through(self):
        from repro.auctions.double_auction import DoubleAuction

        double = DoubleAuction()
        assert resolve_engine(double, "vectorized") is double


class TestDefaultEngineFlip:
    """The default-flip locks: vectorized is the library default everywhere.

    This suite proves both sides of the flip — the default *is* vectorized,
    and nothing a user customised gets silently swapped out by it.
    """

    def test_library_default_is_vectorized(self):
        assert DEFAULT_ENGINE == "vectorized"

    def test_build_mechanism_resolves_spec_default_to_vectorized(self):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.runner import build_mechanism

        spec = ScenarioSpec(mechanism="standard", users=6)
        assert spec.engine is None  # the spec default stays unset...
        mechanism = build_mechanism(spec)
        # ...and resolves to the vectorized engine at build time.
        assert isinstance(mechanism, VectorizedStandardAuction)
        assert engine_name(mechanism) == "vectorized"

    def test_spec_reference_escape_hatch_still_works(self):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.runner import build_mechanism

        spec = ScenarioSpec(mechanism="standard", users=6, engine="reference")
        mechanism = build_mechanism(spec)
        assert type(mechanism) is StandardAuction
        assert engine_name(mechanism) == "reference"

    def test_auction_run_default_is_vectorized(self):
        from repro.runtime.auction_run import AuctionRun

        bids = StandardAuctionWorkload(seed=0).generate(6, 3)
        run = AuctionRun(bids, StandardAuction())
        assert isinstance(run.algorithm, VectorizedStandardAuction)

    def test_standard_subclasses_are_never_swapped(self):
        # A user-registered subclass carries overridden behavior the stock
        # vectorized engine does not have; the default must run it as given.
        class TweakedAuction(StandardAuction):
            pass

        tweaked = TweakedAuction()
        assert resolve_engine(tweaked, DEFAULT_ENGINE) is tweaked
        assert resolve_engine(tweaked, "reference") is tweaked

    def test_greedy_and_exact_mechanisms_pass_through_the_default(self):
        from repro.auctions.greedy import GreedyStandardAuction
        from repro.auctions.vcg import ExactVCGAuction

        for mechanism in (GreedyStandardAuction(), ExactVCGAuction()):
            assert resolve_engine(mechanism, DEFAULT_ENGINE) is mechanism

    def test_engine_name_reports_reference_for_unmarked_algorithms(self):
        from repro.auctions.double_auction import DoubleAuction

        assert engine_name(StandardAuction()) == "reference"
        assert engine_name(VectorizedStandardAuction()) == "vectorized"
        assert engine_name(DoubleAuction()) == "reference"

    def test_default_flip_records_resolved_engine(self):
        from repro.scenarios import ScenarioSpec, Simulation

        with Simulation(ScenarioSpec(mechanism="standard", users=6)) as sim:
            record = sim.run()
        assert record.engine == "vectorized"
        with Simulation(
            ScenarioSpec(mechanism="standard", users=6, engine="reference")
        ) as sim:
            record = sim.run()
        assert record.engine == "reference"


class TestDistributedEquivalence:
    def test_distributed_round_identical_across_engines(self):
        """The whole simulated protocol (parallel allocator) agrees across engines."""
        bids = StandardAuctionWorkload(seed=5).generate(12, 4)
        providers = [f"p{j:02d}" for j in range(4)]
        results = {}
        for engine in ("reference", "vectorized"):
            clear_solve_cache()
            auctioneer = DistributedAuctioneer(
                resolve_engine(StandardAuction(epsilon=0.5), engine),
                providers=providers,
                config=FrameworkConfig(k=1, parallel=True, num_groups=2),
                seed=17,
            )
            report = auctioneer.run_from_bids(bids)
            assert not report.aborted
            results[engine] = report.outcome.result
        assert results["vectorized"] == results["reference"]
