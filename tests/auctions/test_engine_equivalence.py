"""Differential tests: the vectorized engine must equal the reference bit for bit.

This suite is the gate for flipping any default from "reference" to "vectorized":
for a grid of seeds × scenario sizes the two engines must return *identical*
assignments, welfare and clamped payments — not approximately equal, identical.
The distributed framework depends on this: provider groups independently recompute
pieces of the mechanism and the data-transfer block aborts on any disagreement, so
a single differing ulp would turn into spurious ⊥ outcomes in mixed deployments.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.auctions.engine import (
    DEFAULT_ENGINE,
    VectorizedStandardAuction,
    clear_solve_cache,
    engine_name,
    kernel,
    make_standard_auction,
    resolve_engine,
)
from repro.auctions.engine.pivot import shared_solve_cache
from repro.auctions.standard_auction import StandardAuction
from repro.auctions.validation import eligible_user_bids
from repro.community.workload import StandardAuctionWorkload
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.obs import observe

SEEDS = (0, 1, 2, 3, 4)
SIZES = ((5, 2), (12, 4), (30, 8), (60, 8))


def _pair(epsilon=0.25, local_search_rounds=1, perturbation=0.05):
    kwargs = dict(
        epsilon=epsilon, local_search_rounds=local_search_rounds, perturbation=perturbation
    )
    return StandardAuction(**kwargs), VectorizedStandardAuction(**kwargs)


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

    @pytest.mark.parametrize("rounds", [2, 3])
    @pytest.mark.parametrize(
        "size,workload_seed", [((25, 6), 0), ((25, 6), 7), ((60, 4), 3), ((40, 3), 19)]
    )
    def test_identical_where_later_rounds_change_the_result(self, size, workload_seed, rounds):
        # On these instances local-search round 2 or 3 still improves a best
        # restart: residuals recomputed from the capacities decide placements, and
        # on the last one a user placed in round 1 is evicted in round 2.
        bids = StandardAuctionWorkload(seed=workload_seed).generate(*size)
        one_round, _ = _pair(epsilon=0.5, local_search_rounds=1)
        three_rounds, _ = _pair(epsilon=0.5, local_search_rounds=3)
        assert one_round.run(bids, random.Random(5)) != three_rounds.run(bids, random.Random(5))
        reference, vectorized = _pair(epsilon=0.5, local_search_rounds=rounds)
        assert vectorized.solve_allocation(bids, 5) == reference.solve_allocation(bids, 5)
        assert vectorized.run(bids, random.Random(5)) == reference.run(bids, random.Random(5))

    def test_tied_losers_are_visited_in_user_id_order(self):
        # u9 wins the greedy; either 2.0-valued loser could evict it, and the
        # reference tries them by user id, not by position in the bid vector.
        bids = BidVector(
            (UserBid("u9", 4.0, 0.25), UserBid("u2", 2.0, 1.0), UserBid("u1", 2.0, 1.0)),
            (ProviderAsk("p0", 0.0, 1.0),),
        )
        reference, vectorized = _pair()
        allocation, welfare = reference.solve_allocation(bids, 1)
        assert allocation.winners() == ["u1"]
        assert vectorized.solve_allocation(bids, 1) == (allocation, welfare)

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

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("num_users", [25, 75, 125])
    def test_identical_at_the_paper_sizes(self, num_users, rounds):
        # Figure 5's range: local search is the phase whose share grows with n.
        bids = StandardAuctionWorkload(seed=num_users).generate(num_users, 8)
        reference, vectorized = _pair(local_search_rounds=rounds)
        seed = 31_000 + num_users
        allocation, welfare = reference.solve_allocation(bids, seed)
        assert vectorized.solve_allocation(bids, seed) == (allocation, welfare)
        task = allocation.winners()[:6] + bids.user_ids[:3]
        ref_payments = reference.payments_for_users(bids, task, allocation, welfare, seed)
        vec_payments = vectorized.payments_for_users(bids, task, allocation, welfare, seed)
        assert list(map(repr, vec_payments.items())) == list(map(repr, ref_payments.items()))

    def test_payments_for_users_subset_identical(self):
        bids = StandardAuctionWorkload(seed=6).generate(18, 5)
        reference, vectorized = _pair()
        seed = 4242
        allocation, welfare = reference.solve_allocation(bids, seed)
        subset = bids.user_ids[::2]
        ref_payments = reference.payments_for_users(bids, subset, allocation, welfare, seed)
        vec_payments = vectorized.payments_for_users(bids, subset, allocation, welfare, seed)
        assert vec_payments == ref_payments


# -- generated differential: the kernel against the reference ---------------------------
# Small value sets and tight capacities force what a workload generator almost
# never produces: tied unit values / demands / total values (ints included — the
# reference sums the bids' own values; decimals too, whose residuals tie only up to
# an ulp), evictions, zero and invalid bids, demands no provider can host, and
# provider ids whose bid-vector order is not sorted.
_UNIT_VALUES = st.sampled_from([0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 2]) | st.floats(0.05, 4.0)
_DEMANDS = st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 2.0, 1, 50.0]) | st.floats(0.05, 2.5)
_CAPACITIES = st.sampled_from([0.0, 0.6, 1.0, 1.1, 2.0, 2]) | st.floats(0.1, 2.5)
# Large enough that a residual's ulp dwarfs EPS, and one no mechanism may use.
_HUGE_CAPACITIES = st.sampled_from([1e6, 1e9, 1e12, math.inf])
_INELIGIBLE = st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, -0.5)])


def _boundary_demands(largest):
    """Demands around the largest capacity, where "never fits" is decided."""
    return st.sampled_from(
        [
            largest,
            largest + 1e-12,
            largest - 1e-12,
            largest * (1 + 1e-9),
            largest * (1 - 1e-9),
            largest + 1e-6,
            largest - 1e-6,
            largest * (1 + 1e-9) + 1e-9,
            largest * 3,
        ]
    ).filter(lambda demand: demand > 0)


@st.composite
def _tied_bid_vectors(draw):
    user_ids = draw(st.permutations([f"u{i:02d}" for i in range(draw(st.integers(1, 16)))]))
    provider_ids = draw(st.permutations([f"p{j}" for j in range(draw(st.integers(1, 4)))]))
    providers = [
        ProviderAsk(pid, 0.0, draw(_CAPACITIES if draw(st.integers(0, 7)) else _HUGE_CAPACITIES))
        for pid in provider_ids
    ]
    largest = max((ask.capacity for ask in providers if 0 < ask.capacity <= 1e12), default=1.0)
    boundary = _boundary_demands(largest)
    # Mostly mixed vectors; sometimes no user fits anywhere, or exactly one does
    # (the removed user of one pivot problem, the only placeable one of the rest).
    fits = draw(st.sampled_from(["some"] * 6 + ["nobody", "one"]))
    users = []
    for index, user_id in enumerate(user_ids):
        if fits == "nobody" or (fits == "one" and index):
            users.append(UserBid(user_id, draw(_UNIT_VALUES), largest * draw(st.floats(1.5, 4.0))))
        elif draw(st.integers(0, 7)):
            demands = _DEMANDS if draw(st.integers(0, 4)) else boundary
            users.append(UserBid(user_id, draw(_UNIT_VALUES), draw(demands)))
        else:
            users.append(UserBid(user_id, *draw(_INELIGIBLE)))
    return BidVector(tuple(users), tuple(providers))


_GENERATED = dict(
    bids=_tied_bid_vectors(),
    seed=st.integers(min_value=0, max_value=2**62),
    epsilon=st.sampled_from([0.5, 0.35, 0.25]),
    rounds=st.sampled_from([0, 1, 2, 3]),
    # Without noise, equal unit values tie in the greedy order (broken by user id).
    perturbation=st.sampled_from([0.05, 0.0]),
)
_SETTINGS = dict(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestKernelDifferential:
    @given(**_GENERATED)
    @settings(**_SETTINGS)
    def test_solve_allocation_identical(self, bids, seed, epsilon, rounds, perturbation):
        reference, vectorized = _pair(epsilon, rounds, perturbation)
        clear_solve_cache()
        ref_allocation, ref_welfare = reference.solve_allocation(bids, seed)
        vec_allocation, vec_welfare = vectorized.solve_allocation(bids, seed)
        assert vec_allocation == ref_allocation
        assert repr(vec_welfare) == repr(ref_welfare)

    @given(subset=st.data(), **_GENERATED)
    @settings(**_SETTINGS)
    def test_run_and_payment_subsets_identical(
        self, bids, seed, epsilon, rounds, perturbation, subset
    ):
        reference, vectorized = _pair(epsilon, rounds, perturbation)
        clear_solve_cache()
        assert vectorized.run(bids, random.Random(seed)) == reference.run(
            bids, random.Random(seed)
        )
        user_ids = subset.draw(st.lists(st.sampled_from(bids.user_ids), unique=True))
        allocation, welfare = reference.solve_allocation(bids, seed)
        clear_solve_cache()
        ref_payments = reference.payments_for_users(bids, user_ids, allocation, welfare, seed)
        vec_payments = vectorized.payments_for_users(bids, user_ids, allocation, welfare, seed)
        assert list(map(repr, vec_payments.items())) == list(map(repr, ref_payments.items()))

    @given(**_GENERATED)
    @settings(**_SETTINGS)
    def test_rows_are_independent(self, bids, seed, epsilon, rounds, perturbation):
        """A batch of P problems equals P batches of one."""
        _reference, mechanism = _pair(epsilon, rounds, perturbation)
        users = eligible_user_bids(bids)
        capacities = mechanism.eligible_capacities(bids)
        problems = [(seed, None)] + [(seed + 1 + e, e) for e in range(len(users))]
        params = mechanism.engine_params()
        together = kernel.solve_batch(users, capacities, problems, *params)
        apart = [kernel.solve_batch(users, capacities, [p], *params)[0] for p in problems]
        assert list(map(repr, together)) == list(map(repr, apart))  # dict order included

    @given(**_GENERATED)
    @settings(**_SETTINGS)
    def test_chunking_does_not_change_payments(
        self, monkeypatch, bids, seed, epsilon, rounds, perturbation
    ):
        _reference, vectorized = _pair(epsilon, rounds, perturbation)
        allocation, welfare = vectorized.solve_allocation(bids, seed)
        clear_solve_cache()
        whole = vectorized.payments_for_users(bids, bids.user_ids, allocation, welfare, seed)
        clear_solve_cache()
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "MAX_CELLS", 1)  # one problem per kernel call
            chunked = vectorized.payments_for_users(
                bids, bids.user_ids, allocation, welfare, seed
            )
        assert list(map(repr, chunked.items())) == list(map(repr, whole.items()))


# -- local search marks: exact, and the only pairs visited ------------------------------
_EPS = 1e-12
# Total values a hair apart: within EPS nobody is "strictly cheaper", beyond it one is.
_TOTAL_VALUES = st.sampled_from([0.5, 1.0, 1.0 + 5e-13, 1.0 + 2e-12, 1.5, 2, 3.0]) | st.floats(
    0.05, 4.0
)
_RESIDUALS = st.sampled_from([-1e-12, 0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0]) | st.floats(0.0, 2.5)


@st.composite
def _search_states(draw):
    """Rows in the middle of a local search: any hosts, any residuals, any losers."""
    n, m, k = draw(st.integers(1, 9)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = draw(st.lists(_TOTAL_VALUES, min_size=n, max_size=n))
    demands = draw(st.lists(_DEMANDS, min_size=n, max_size=n))
    remaining = [draw(st.lists(_RESIDUALS, min_size=m, max_size=m)) for _row in range(k)]
    provider, losers = [], []
    for _row in range(k):
        # Everyone hosted, nobody hosted, or a mix; a user that is neither hosted
        # nor a loser is the removed column, or one evicted earlier this round.
        hosted = draw(st.sampled_from(["all", "none", "mix", "mix"]))
        hosts = [
            -1 if hosted == "none" or (hosted == "mix" and draw(st.booleans()))
            else draw(st.integers(0, m - 1))
            for _user in range(n)
        ]
        waiting = draw(st.sampled_from(["all", "mix", "mix"]))
        provider.append(hosts)
        losers.append([host < 0 and (waiting == "all" or draw(st.booleans())) for host in hosts])
    rows = draw(st.lists(st.integers(0, k - 1), unique=True))
    return values, demands, remaining, provider, losers, rows


def _scan_moves(values, demands, residuals, hosts, loser):
    """The reference's visit of one loser, pair by pair: would it move?"""
    if any(residual + _EPS >= demands[loser] for residual in residuals):
        return True
    for winner, host in enumerate(hosts):
        if host < 0 or values[winner] + _EPS >= values[loser]:
            continue
        if residuals[host] + demands[winner] + _EPS >= demands[loser]:
            return True
    return False


class TestLocalSearchMarks:
    @given(state=_search_states())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_marks_equal_the_pairwise_scan(self, state):
        values, demands, remaining, provider, losers, rows = state
        marks = kernel._marks(
            np.array(rows, dtype=np.int64),
            np.array(remaining, dtype=np.float64),
            np.array(provider, dtype=np.int64),
            np.array(losers, dtype=bool),
            np.array(demands, dtype=np.float64),
            *kernel._by_value(values),
        )
        scanned = [
            [
                losers[row][user]
                and _scan_moves(values, demands, remaining[row], provider[row], user)
                for user in range(len(values))
            ]
            for row in rows
        ]
        assert marks.tolist() == scanned

    def test_every_visited_pair_moves_on_a_figure5_instance(self, monkeypatch):
        """Counted by wrapping the helper: visits == moves < rows x losers."""
        batches = []  # per solve_batch call, its _marks calls: (rows, hosts, marks)
        solve_batch, compute_marks = kernel.solve_batch, kernel._marks

        def batch(*args):
            batches.append([])
            return solve_batch(*args)

        def recording(rows, remaining, provider, losers, *rest):
            marks = compute_marks(rows, remaining, provider, losers, *rest)
            batches[-1].append((rows.copy(), provider[rows], losers[rows].sum(), marks))
            return marks

        monkeypatch.setattr(kernel, "solve_batch", batch)
        monkeypatch.setattr(kernel, "_marks", recording)
        bids = StandardAuctionWorkload(seed=1).generate(50, 8)
        mechanism = VectorizedStandardAuction(epsilon=0.25)  # 16 restarts, one round
        allocation, welfare = mechanism.solve_allocation(bids, 5)
        mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, 5)
        assert [len(calls[0][0]) for calls in batches] == [16, 16 * len(allocation.winners())]

        for (all_rows, hosts, pairs, marks), *visits in batches:
            # The first call marks every row at round start; each later one
            # re-marks the rows a visit just handled.
            state = dict(zip(all_rows.tolist(), zip(hosts, marks)))
            visited = moved = 0
            for rows, hosts, _pairs, marks in visits:
                gained = {
                    tuple(((after >= 0) & (state[row][0] < 0)).nonzero()[0])
                    for row, after in zip(rows.tolist(), hosts)
                }
                assert len(gained) == 1  # every handled row now hosts the same one loser
                ((loser,),) = gained
                due = [row for row, (_hosts, marked) in state.items() if marked[loser]]
                assert rows.tolist() == due  # ...and they are exactly the rows marking it
                visited += len(due)
                moved += len(rows)
                state.update(zip(rows.tolist(), zip(hosts, marks)))
            assert 0 < visited == moved < pairs


class TestPivotBatching:
    """One payment task is one kernel call — asserted on counts, not clocks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Problems per ``kernel.solve_batch`` call, in call order."""
        seen = []
        solve_batch = kernel.solve_batch

        def counting(users, capacities, problems, *params):
            seen.append(len(problems))
            return solve_batch(users, capacities, problems, *params)

        monkeypatch.setattr(kernel, "solve_batch", counting)
        return seen

    @staticmethod
    def _task():
        bids = StandardAuctionWorkload(seed=3).generate(30, 5)
        mechanism = VectorizedStandardAuction(epsilon=0.5)
        allocation, welfare = mechanism.solve_allocation(bids, 99)
        winners = allocation.winners()
        assert len(winners) > 3
        return mechanism, bids, allocation, welfare, winners

    def test_cold_task_is_one_call_and_warm_task_is_none(self, calls):
        mechanism, bids, allocation, welfare, winners = self._task()
        cache = shared_solve_cache()
        del calls[:]
        hits, misses = cache.hits, cache.misses
        cold = mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, 99)
        assert calls == [len(winners)]
        # Each pivot key is looked up once: one miss per winner, nothing else.
        assert (cache.hits - hits, cache.misses - misses) == (0, len(winners))
        warm = mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, 99)
        assert calls == [len(winners)]
        assert (cache.hits - hits, cache.misses - misses) == (len(winners), len(winners))
        assert warm == cold

    def test_chunked_task_calls_once_per_chunk(self, calls, monkeypatch):
        mechanism, bids, allocation, welfare, winners = self._task()
        per_problem = mechanism.restarts * len(eligible_user_bids(bids))
        monkeypatch.setattr(kernel, "MAX_CELLS", 3 * per_problem)
        del calls[:]
        mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, 99)
        assert len(calls) == math.ceil(len(winners) / 3)
        assert sum(calls) == len(winners) and max(calls) == 3

    def test_pivot_keys_memoise_the_welfare_alone(self):
        mechanism, bids, allocation, welfare, winners = self._task()
        before = set(shared_solve_cache()._entries)
        mechanism.payments_for_users(bids, winners, allocation, welfare, 99)
        entries = shared_solve_cache()._entries
        added = [entries[key] for key in entries if key not in before]
        assert len(added) == len(winners)
        assert all(isinstance(value, float) for value in added)

    def test_pivot_resolve_span_counts_resolves_and_memo_hits(self):
        mechanism, bids, allocation, welfare, winners = self._task()
        with observe() as observation:
            mechanism.payments_for_users(bids, winners[:2], allocation, welfare, 99)
            mechanism.payments_for_users(bids, winners, allocation, welfare, 99)
        details = [
            (span.detail["users"], span.detail["resolves"], span.detail["memo_hits"])
            for span in observation.tracer.spans
            if span.name == "pivot_resolve"
        ]
        assert details == [(2, 2, 0), (len(winners), len(winners) - 2, 2)]


    def test_work_units_are_counted_before_the_memo_and_repeat_exactly(self):
        def engine_counters(observation):
            instruments = observation.metrics.snapshot()["instruments"]
            return {
                name: instrument["value"]
                for name, instrument in instruments.items()
                if name.startswith("engine.")
            }

        def counted_run():
            clear_solve_cache()
            with observe() as observation:
                mechanism, bids, allocation, welfare, winners = self._task()
                mechanism.payments_for_users(bids, bids.user_ids, allocation, welfare, 99)
                cold = engine_counters(observation)
                mechanism.solve_allocation(bids, 99)
                mechanism.payments_for_users(bids, winners[:3], allocation, welfare, 99)
            warm = engine_counters(observation)
            return len(winners), len(eligible_user_bids(bids)), mechanism.restarts, cold, warm

        won, eligible, restarts, cold, warm = counted_run()
        rows = restarts * (1 + won)  # the base solve, then one problem per winner
        assert cold == {
            "engine.solves": 1,
            "engine.resolves": won,
            "engine.kernel_calls": 2,
            "engine.kernel_rows": rows,
            "engine.kernel_cells": rows * eligible,
        }
        # Memo hits are logical work too, and none of them reaches the kernel.
        assert warm == {**cold, "engine.solves": 2, "engine.resolves": won + 3}
        assert counted_run() == (won, eligible, restarts, cold, warm)


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
