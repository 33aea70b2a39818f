"""What the honest providers of a round share, and what they must never share.

Since the bid agreement decides one ``FrozenMap`` object per view, the providers
holding it assemble one ``BidVector`` and read one execution of ``A`` off it
(``BidAgreementBlock._assemble``, ``SequentialAllocatorBlock._execute``).  These
tests count builds, validations and executions and compare identities — never a
clock — and hold every path on which providers hold *different* objects to the
outcome of the same round with the instance memo switched off in the test.
"""

import copy
import dataclasses
import functools
import pickle
import random
import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.coalition import Coalition
from repro.adversary.provider_behaviors import (
    DeviantProviderNode,
    OutputTamperingProviderNode,
)
from repro.auctions import base as auction_base
from repro.auctions.base import AuctionResult, BidVector, Payments, ProviderAsk, UserBid
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.engine import VectorizedStandardAuction, clear_solve_cache, pivot
from repro.auctions.engine.pivot import bid_vector_fingerprint
from repro.auctions.standard_auction import StandardAuction
from repro.common import is_abort
from repro.community.workload import DoubleAuctionWorkload, StandardAuctionWorkload
from repro.core import allocator, bid_agreement
from repro.core.allocator import SequentialAllocatorBlock
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.core.provider_protocol import FrameworkProviderNode
from repro.net.faults import FaultPlan, RecoveryPolicy, make_fault
from repro.net.latency import UniformLatencyModel
from repro.net.serialization import DERIVED_ATTR, FrozenMap, canonical_encode, estimate_size
from repro.net.transport import ThreadedNetwork
from repro.obs import observe
from repro.scenarios.registry import SCHEDULERS
from repro.scenarios.spec import ComponentSpec

#: Every module that keeps a memo of the agreement path on an instance.
MEMO_USERS = (bid_agreement, allocator, pivot, auction_base)
RESULTS_ATTR = allocator._RESULTS_ATTR


@contextmanager
def unshared():
    """The instance-memo helper forgets: everything is computed where it is asked for."""
    with ExitStack() as stack:
        for module in MEMO_USERS:
            stack.enter_context(
                mock.patch.object(module, "memoise", lambda instance, attr, memo: memo)
            )
        yield


class CountingDoubleAuction(DoubleAuction):
    def __init__(self):
        self.runs = 0

    def run(self, bids, rng=None):
        self.runs += 1
        return super().run(bids, rng)


@contextmanager
def recorded_executions():
    """``(block.bids, seed)`` of every ``SequentialAllocatorBlock._execute`` call."""
    calls = []
    original = SequentialAllocatorBlock._execute

    def spy(block, seed):
        calls.append((block.bids, seed))
        original(block, seed)

    with mock.patch.object(SequentialAllocatorBlock, "_execute", spy):
        yield calls


def distinct(objects):
    """The objects of ``objects`` that differ by identity."""
    kept = []
    for candidate in objects:
        if not any(candidate is known for known in kept):
            kept.append(candidate)
    return kept


def providers_named(count):
    return [f"p{i}" for i in range(count)]


def double_bids(users, providers, seed=0):
    return DoubleAuctionWorkload(seed=seed).generate(
        users, len(providers), provider_ids=providers
    )


class Round:
    """One distributed round and what its providers held."""

    def __init__(self, report, executions, mechanism):
        self.report = report
        self.vectors = [bids for bids, _seed in executions]
        self.seeds = [seed for _bids, seed in executions]
        self.runs = getattr(mechanism, "runs", None)

    def observable(self):
        """Everything a caller can see of the round, floats by ``repr``."""
        outcome, stats = self.report.outcome, self.report.stats
        return repr((outcome.provider_outputs, outcome, dataclasses.asdict(stats)))


def run_round(
    bids,
    providers,
    config,
    mechanism_factory=CountingDoubleAuction,
    inputs=None,
    node_factory=None,
    **auctioneer_kwargs,
):
    mechanism = mechanism_factory()
    auctioneer = DistributedAuctioneer(
        mechanism, providers=providers, config=config, **auctioneer_kwargs
    )
    if inputs is None:
        inputs = auctioneer.consistent_inputs(bids)
    with recorded_executions() as executions:
        report = auctioneer.run(
            inputs,
            expected_users=[u.user_id for u in bids.users],
            node_factory=node_factory,
        )
    return Round(report, executions, mechanism)


def both_ways(deviant_mechanisms=0, **kwargs):
    """The same round with sharing and with the memo switched off."""
    shared = run_round(**kwargs)
    with unshared():
        separate = run_round(**kwargs)
    assert shared.observable() == separate.observable()
    assert len(distinct(separate.vectors)) == len(separate.vectors)
    # Every execution through the allocator ran the round's mechanism, unless a
    # deviant brought its own.
    assert separate.runs == len(separate.vectors) - deviant_mechanisms
    return shared


# -- (a) what an honest round shares -----------------------------------------------------
class TestHonestRoundShares:
    def test_one_vector_one_validation_pass_one_execution(self):
        providers = providers_named(7)
        bids = double_bids(300, providers)
        with mock.patch.object(
            bid_agreement, "coerce_user_bid", wraps=bid_agreement.coerce_user_bid
        ) as validity_rule:
            shared = run_round(bids=bids, providers=providers, config=FrameworkConfig(k=3))
        assert not shared.report.aborted
        assert len(shared.vectors) == 7
        assert len(distinct(shared.vectors)) == 1
        assert validity_rule.call_count == 300
        assert shared.runs == 1
        outputs = list(shared.report.outcome.provider_outputs.values())
        assert len(distinct(outputs)) == 1
        # What they read is what the trusted auctioneer computes on the agreed input.
        assert len(set(shared.seeds)) == 1
        assert outputs[0] == DoubleAuction().run(
            shared.vectors[0], random.Random(shared.seeds[0])
        )
        assert shared.vectors[0] == bids

    def test_the_parent_did_each_m_times(self):
        providers = providers_named(7)
        bids = double_bids(300, providers)
        with unshared(), mock.patch.object(
            bid_agreement, "coerce_user_bid", wraps=bid_agreement.coerce_user_bid
        ) as validity_rule:
            separate = run_round(bids=bids, providers=providers, config=FrameworkConfig(k=3))
        assert len(distinct(separate.vectors)) == 7
        assert validity_rule.call_count == 7 * 300
        assert separate.runs == 7

    def test_the_fingerprint_is_hashed_once_per_vector(self):
        providers = providers_named(5)
        bids = StandardAuctionWorkload(seed=3).generate(10, 5, provider_ids=providers)
        clear_solve_cache()
        with mock.patch.object(pivot, "stable_hash", wraps=pivot.stable_hash) as hashed:
            report = DistributedAuctioneer(
                VectorizedStandardAuction(epsilon=0.5),
                providers=providers,
                config=FrameworkConfig(k=1, parallel=True),
            ).run_from_bids(bids)
            assert not report.aborted
            assert hashed.call_count == 1
            assert bid_vector_fingerprint(bids) == bid_vector_fingerprint(
                BidVector(bids.users, bids.providers)
            )
            assert hashed.call_count == 3  # two vectors nobody had hashed

    def test_two_mechanisms_or_two_seeds_never_share_a_result(self, small_double_bids):
        def execute(mechanism, seed):
            block = SequentialAllocatorBlock("a", small_double_bids, mechanism)
            block._execute(seed)
            return block.result

        first, second = CountingDoubleAuction(), CountingDoubleAuction()
        result = execute(first, 7)
        assert execute(first, 7) is result
        assert first.runs == 1
        assert execute(second, 7) is not result
        assert (first.runs, second.runs) == (1, 1)
        assert execute(first, 8) is not result
        assert first.runs == 2
        assert execute(first, 7) is result

    def test_a_direct_run_always_computes(self, small_double_bids):
        mechanism = CountingDoubleAuction()
        block = SequentialAllocatorBlock("a", small_double_bids, mechanism)
        block._execute(0)
        direct = mechanism.run(small_double_bids, random.Random(0))
        assert mechanism.runs == 2
        assert direct is not block.result
        assert direct == block.result


# -- (b) views that must not share give the parent's outcome ----------------------------
class Rewrapping(DeviantProviderNode):
    """Ships its first-round batch in another container, one per recipient."""

    def __init__(self, *args, rewrap, **kwargs):
        super().__init__(*args, **kwargs)
        self.rewrap = rewrap

    def transform_send(self, recipient, payload, tag):
        if tag.endswith("/batch|value"):
            return self.rewrap(payload), tag
        return payload, tag


REWRAPS = {
    "equal-frozen-map": FrozenMap,
    "plain-dict": dict,
    "other-key-order": lambda batch: dict(reversed(list(batch.items()))),
}


class TestViewsThatDoNotShare:
    PROVIDERS = providers_named(5)
    CONFIG = FrameworkConfig(k=2)

    def test_equivocating_bidder_takes_the_majority_path(self):
        bids = double_bids(12, self.PROVIDERS, seed=1)
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=self.PROVIDERS, config=self.CONFIG
        )
        inputs = auctioneer.consistent_inputs(bids)
        liar = bids.users[0]
        for provider in self.PROVIDERS[3:]:
            inputs[provider].received_user_bids[liar.user_id] = liar.with_unit_value(
                liar.unit_value * 2
            )
        shared = both_ways(
            bids=bids, providers=self.PROVIDERS, config=self.CONFIG, inputs=inputs
        )
        assert not shared.report.aborted
        assert shared.vectors[0].user(liar.user_id) == liar  # the majority's bid
        assert len(distinct(shared.vectors)) == len(self.PROVIDERS) == shared.runs

    @pytest.mark.parametrize("rewrap", sorted(REWRAPS))
    def test_lowest_provider_ships_its_batch_in_another_container(self, rewrap):
        deviant = Coalition.of(
            ["p0"], functools.partial(Rewrapping, rewrap=REWRAPS[rewrap])
        )
        shared = both_ways(
            bids=double_bids(12, self.PROVIDERS, seed=2),
            providers=self.PROVIDERS,
            config=self.CONFIG,
            node_factory=deviant.factory(),
        )
        assert not shared.report.aborted
        # Every receiver holds its own copy of the deciding batch: the parent's counts.
        assert len(distinct(shared.vectors)) == len(self.PROVIDERS) == shared.runs

    @pytest.mark.parametrize("rewrap", sorted(REWRAPS))
    def test_another_provider_ships_its_batch_in_another_container(self, rewrap):
        deviant = Coalition.of(
            ["p3"], functools.partial(Rewrapping, rewrap=REWRAPS[rewrap])
        )
        shared = both_ways(
            bids=double_bids(12, self.PROVIDERS, seed=2),
            providers=self.PROVIDERS,
            config=self.CONFIG,
            node_factory=deviant.factory(),
        )
        assert not shared.report.aborted
        # The copies hold the very bids everyone holds, so the identity sweep
        # passes and the lowest provider's batch still decides.
        assert len(distinct(shared.vectors)) == 1 == shared.runs

    @pytest.mark.parametrize("mode, users", [("per_label", 8), ("per_bit", 3)])
    def test_faithful_modes_decide_into_a_dict_of_their_own(self, mode, users):
        providers = providers_named(3)
        shared = both_ways(
            bids=double_bids(users, providers, seed=4),
            providers=providers,
            config=FrameworkConfig(k=1, agreement_mode=mode),
        )
        assert not shared.report.aborted
        assert len(distinct(shared.vectors)) == 3 == shared.runs

    def test_degraded_round_with_different_batch_sets(self):
        providers = providers_named(3)

        def partitioned():
            plan = FaultPlan(
                [make_fault("partition", {"nodes": ["p2"], "at": 0.0, "duration": 1e9})],
                recovery=RecoveryPolicy(max_retries=1),
            )
            plan.reset()
            return plan

        def run():
            return run_round(
                bids=double_bids(8, providers, seed=5),
                providers=providers,
                config=FrameworkConfig(k=1, round_timeout=0.05, use_common_coin=False),
                latency_model=UniformLatencyModel(0.001, 0.01),
                fault_plan=partitioned(),
            )

        shared = run()
        with unshared():
            separate = run()
        assert shared.observable() == separate.observable()
        assert shared.report.outcome.degraded and not shared.report.aborted
        # p0 and p1 decided p0's batch; p2, alone, its own.
        assert len(distinct(shared.vectors)) == 2 == shared.runs
        assert len(distinct(separate.vectors)) == 3 == separate.runs

    @pytest.mark.parametrize("round_timeout", [None, 5.0], ids=["strict", "timeout"])
    def test_echo_with_a_provider_key_that_does_not_order(self, round_timeout):
        """Choosing the lowest provider id must not sort a deviant's keys."""

        class ExtraKey(DeviantProviderNode):
            def transform_send(self, recipient, payload, tag):
                if tag.endswith("/batch|echo"):
                    return {**payload, 1: payload["p1"]}, tag
                return payload, tag

        shared = both_ways(
            bids=double_bids(6, self.PROVIDERS, seed=6),
            providers=self.PROVIDERS,
            config=FrameworkConfig(k=2, round_timeout=round_timeout),
            node_factory=Coalition.of(["p4"], ExtraKey).factory(),
        )
        outputs = shared.report.outcome.provider_outputs
        # Strict mode compares whole views (⊥ at every receiver); the merged view
        # just has one more key, whose batch holds what every batch holds.
        for honest in self.PROVIDERS[:4]:
            assert is_abort(outputs[honest]) == (round_timeout is None)


# -- (c) a doctored result is detected and never served ---------------------------------
class TestDoctoredResults:
    PROVIDERS = providers_named(4)

    def test_tampered_output_is_detected_and_stays_with_the_deviant(self):
        coalition = Coalition.of(
            ["p0"], functools.partial(OutputTamperingProviderNode, bonus=10.0)
        )
        shared = both_ways(
            bids=double_bids(8, self.PROVIDERS),
            providers=self.PROVIDERS,
            config=FrameworkConfig(k=1),
            node_factory=coalition.factory(),
        )
        assert shared.report.aborted
        outputs = shared.report.outcome.provider_outputs
        honest = DoubleAuction().run(shared.vectors[0], random.Random(shared.seeds[0]))
        assert outputs["p0"] != honest
        assert all(outputs[p] == honest for p in self.PROVIDERS[1:])
        assert list(getattr(shared.vectors[0], RESULTS_ATTR).values()) == [honest]

    def test_a_doctoring_mechanism_serves_only_its_owner(self):
        class Inflating(DoubleAuction):
            def run(self, bids, rng=None):
                result = super().run(bids, rng)
                revenues = tuple((p, r + 1.0) for p, r in result.payments.provider_revenues)
                return AuctionResult(
                    result.allocation, Payments(result.payments.user_payments, revenues)
                )

        doctored = Inflating()

        def with_own_mechanism(provider_input, _algorithm, *rest):
            return FrameworkProviderNode(provider_input, doctored, *rest)

        shared = both_ways(
            deviant_mechanisms=1,
            bids=double_bids(8, self.PROVIDERS),
            providers=self.PROVIDERS,
            config=FrameworkConfig(k=1),
            node_factory=Coalition.of(["p0"], with_own_mechanism).factory(),
        )
        assert shared.report.aborted
        assert len(distinct(shared.vectors)) == 1  # the deviant holds the shared vector
        outputs = shared.report.outcome.provider_outputs
        honest = DoubleAuction().run(shared.vectors[0], random.Random(shared.seeds[0]))
        assert honest.payments.provider_revenues  # there is something to inflate
        assert outputs["p0"] != honest
        assert all(outputs[p] == honest for p in self.PROVIDERS[1:])
        assert shared.runs == 1  # the honest mechanism, once, for the three of them


# -- (d) hygiene: what a copy carries ---------------------------------------------------
def _cleared_vector():
    """An agreed vector that has been assembled, sized, fingerprinted, indexed and cleared."""
    providers = providers_named(3)
    shared = run_round(
        bids=double_bids(10, providers, seed=9), providers=providers, config=FrameworkConfig(k=1)
    )
    vector = shared.vectors[0]
    estimate_size(vector)
    bid_vector_fingerprint(vector)
    vector.user(vector.users[0].user_id)
    assert getattr(vector, RESULTS_ATTR)
    return vector


COPIES = {
    **{f"pickle-{p}": (lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))) for p in range(6)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


class TestMemoHygiene:
    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_carry_no_mechanism_no_result_and_nothing_stale(self, how):
        vector = _cleared_vector()
        memos = set(vars(vector)) - {"users", "providers"}
        assert memos == {RESULTS_ATTR, "_repro_wire_size", "_repro_fingerprint", "_repro_by_id"}
        clone = COPIES[how](vector)
        assert clone is not vector and clone == vector
        # A copy is made of the fields: no mechanism, no result, no memo at all.
        assert set(vars(clone)) == {"users", "providers"}
        assert memos < set(vars(vector))  # the original keeps its own
        # What the copy then derives is what a fresh vector derives, about itself.
        fresh = BidVector(clone.users, clone.providers)
        assert estimate_size(clone) == estimate_size(fresh)
        assert bid_vector_fingerprint(clone) == bid_vector_fingerprint(fresh)
        for bid in clone.users:
            assert clone.user(bid.user_id) is bid
        for ask in clone.providers:
            assert clone.provider(ask.provider_id) is ask

    def test_value_semantics_ignore_the_memos(self):
        vector = _cleared_vector()
        fresh = BidVector(vector.users, vector.providers)
        assert vars(fresh).keys() == {"users", "providers"}
        assert vector == fresh and hash(vector) == hash(fresh)
        assert repr(vector) == repr(fresh)
        assert canonical_encode(vector) == canonical_encode(fresh)
        assert estimate_size(vector) == estimate_size(fresh)
        assert dataclasses.asdict(vector) == dataclasses.asdict(fresh)

    def test_decided_batch_keeps_its_vector_to_itself(self):
        decided = FrozenMap({"user:u0": UserBid("u0", 1.0, 0.5), "ask:p0": ProviderAsk("p0", 0.1, 1.0)})
        block = bid_agreement.BidAgreementBlock("ba", ["u0"], ["p0"], {}, {})
        block._decisions = decided
        block._assemble()
        assert getattr(decided, DERIVED_ATTR)
        for clone in (copy.copy(decided), copy.deepcopy(decided), pickle.loads(pickle.dumps(decided))):
            assert clone == decided and type(clone) is FrozenMap
            assert getattr(clone, DERIVED_ATTR, None) is None
        assert decided == dict(decided)
        assert estimate_size(decided) == estimate_size(dict(decided))
        assert canonical_encode(decided) == canonical_encode(dict(decided))

    def test_other_expected_ids_assemble_another_vector(self):
        decided = FrozenMap({"user:u0": UserBid("u0", 1.0, 0.5), "ask:p0": ProviderAsk("p0", 0.1, 1.0)})

        def assemble(users, providers):
            block = bid_agreement.BidAgreementBlock("ba", users, providers, {}, {})
            block._decisions = decided
            block._assemble()
            return block.result

        vector = assemble(["u0"], ["p0"])
        assert assemble(["u0"], ["p0"]) is vector
        wider = assemble(["u0", "u1"], ["p0"])
        assert wider is not vector and wider.user_ids == ["u0", "u1"]

    def test_lookup_errors_read_as_before(self, small_double_bids):
        assert small_double_bids.user("u3") is small_double_bids.users[3]
        assert small_double_bids.provider("p1") is small_double_bids.providers[1]
        for lookup, missing, text in (
            (small_double_bids.user, "nobody", "\"unknown user 'nobody'\""),
            (small_double_bids.provider, "p9", "\"unknown provider 'p9'\""),
            (small_double_bids.user, ["u0"], "\"unknown user ['u0']\""),
        ):
            with pytest.raises(KeyError) as error:
                lookup(missing)
            assert str(error.value) == text

    def test_threads_racing_on_one_vector_agree(self):
        providers = providers_named(5)
        bids = double_bids(40, providers, seed=12)
        config = FrameworkConfig(k=2)
        auctioneer = DistributedAuctioneer(DoubleAuction(), providers=providers, config=config)
        inputs = auctioneer.consistent_inputs(bids)
        users = [u.user_id for u in bids.users]
        simulated = auctioneer.run(inputs, expected_users=users)
        mechanism = DoubleAuction()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                threaded = ThreadedNetwork()
                for pid in providers:
                    threaded.add_node(
                        FrameworkProviderNode(inputs[pid], mechanism, config, users, providers)
                    )
                outputs = threaded.run(timeout=30.0)
                assert set(outputs) == set(providers)
                assert all(output == simulated.result for output in outputs.values())
        finally:
            sys.setswitchinterval(interval)


# -- the replicated path stays audited --------------------------------------------------
_VALUES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 1e9])
_DEMANDS = st.sampled_from([1e-9, 0.25, 0.5, 0.5, 2.0, 1e9])
_COSTS = st.sampled_from([0.0, 0.2, 0.2, 0.9, 1e9])
_CAPACITIES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1e12])
_FAULT_CELLS = {
    "none": None,
    "loss": ("loss", {"rate": 0.2}),
    "duplicate": ("duplicate", {}),
}
_MECHANISMS = {"double": DoubleAuction, "standard": functools.partial(StandardAuction, epsilon=0.5)}


@st.composite
def _bid_vectors(draw):
    """Small vectors with ties, zero bids, bids at the validation bounds, one seller."""
    users = draw(st.lists(st.tuples(_VALUES, _DEMANDS), min_size=1, max_size=6))
    sellers = draw(st.lists(st.tuples(_COSTS, _CAPACITIES), min_size=1, max_size=3))
    return BidVector(
        tuple(UserBid(f"u{i}", value, demand) for i, (value, demand) in enumerate(users)),
        tuple(ProviderAsk(f"p{j}", cost, cap) for j, (cost, cap) in enumerate(sellers)),
    )


class TestReplicatedPathStaysAudited:
    """Definition 1 is still *checked* once one computation serves m providers."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        bids=_bid_vectors(),
        mechanism=st.sampled_from(sorted(_MECHANISMS)),
        schedule=st.sampled_from(sorted(SCHEDULERS.available())),
        fault=st.sampled_from(sorted(_FAULT_CELLS)),
        seed=st.integers(0, 2**16),
    )
    def test_shared_equals_separate_equals_the_trusted_auctioneer(
        self, bids, mechanism, schedule, fault, seed
    ):
        providers = providers_named(3)

        def run():
            plan = None
            if _FAULT_CELLS[fault] is not None:
                plan = FaultPlan(
                    [make_fault(*_FAULT_CELLS[fault])], seed=seed, recovery=RecoveryPolicy()
                )
                plan.reset()
            return run_round(
                bids=bids,
                providers=providers,
                config=FrameworkConfig(k=1),
                mechanism_factory=_MECHANISMS[mechanism],
                scheduler=SCHEDULERS.create(ComponentSpec(schedule), "schedule"),
                latency_model=UniformLatencyModel(0.001, 0.01),
                seed=seed,
                fault_plan=plan,
            )

        shared = run()
        with unshared():
            separate = run()
        assert shared.observable() == separate.observable()
        outputs = shared.report.outcome.provider_outputs
        if shared.report.aborted:
            assert separate.report.aborted
            return
        # Every provider that executed did so on one agreed vector and one coin,
        # and output what the trusted auctioneer computes from them.
        assert len(shared.vectors) == len(providers)
        assert len(set(shared.seeds)) == 1
        assert all(vector == shared.vectors[0] for vector in shared.vectors)
        trusted = _MECHANISMS[mechanism]().run(
            shared.vectors[0], random.Random(shared.seeds[0])
        )
        assert all(repr(output) == repr(trusted) for output in outputs.values())


# -- observability ----------------------------------------------------------------------
class TestSharingIsCounted:
    def _counters(self, **kwargs):
        with observe() as observation:
            run_round(**kwargs)
        instruments = observation.metrics.snapshot()["instruments"]
        return {
            name.split(".", 1)[1]: instrument["value"]
            for name, instrument in instruments.items()
            if name.startswith("core.")
        }

    def test_honest_round_counts_logical_and_shared_work(self):
        providers = providers_named(5)
        counters = self._counters(
            bids=double_bids(12, providers), providers=providers, config=FrameworkConfig(k=2)
        )
        assert counters == {
            "assemblies": 5,
            "assemblies_shared": 4,
            "executions": 5,
            "executions_shared": 4,
        }

    def test_an_equivocating_bidder_shows_as_m_times_the_work(self):
        providers = providers_named(5)
        bids = double_bids(12, providers)
        inputs = DistributedAuctioneer(
            DoubleAuction(), providers=providers, config=FrameworkConfig(k=2)
        ).consistent_inputs(bids)
        liar = bids.users[0]
        inputs["p4"].received_user_bids[liar.user_id] = liar.with_unit_value(9.0)
        counters = self._counters(
            bids=bids, providers=providers, config=FrameworkConfig(k=2), inputs=inputs
        )
        assert counters == {
            "assemblies": 5,
            "assemblies_shared": 0,
            "executions": 5,
            "executions_shared": 0,
        }

    def test_nothing_is_counted_without_an_observation(self):
        providers = providers_named(3)
        with observe(metrics=False) as observation:
            run_round(bids=double_bids(4, providers), providers=providers, config=FrameworkConfig(k=1))
        assert observation.metrics is None
