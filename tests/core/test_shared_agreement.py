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
import threading
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
from repro.consensus.commitment import CommitmentScheme
from repro.consensus import multi_consensus
from repro.core import allocator, bid_agreement, input_validation
from repro.core.allocator import SequentialAllocatorBlock
from repro.core.config import FrameworkConfig
from repro.core.framework import DistributedAuctioneer
from repro.core.provider_protocol import FrameworkProviderNode, ProviderInput
from repro.net.faults import FaultPlan, RecoveryPolicy, make_fault
from repro.net.latency import UniformLatencyModel
from repro.net.serialization import (
    DERIVED_ATTR,
    FrozenMap,
    UnsupportedPayloadError,
    canonical_encode,
    estimate_size,
)
from repro.obs import observe
from repro.scenarios.registry import SCHEDULERS
from repro.scenarios.spec import ComponentSpec

#: Every module that keeps a memo of the agreement path on an instance.
MEMO_USERS = (bid_agreement, input_validation, allocator, pivot, auction_base)
RESULTS_ATTR = allocator._RESULTS_ATTR
DIGEST_ATTR = input_validation._DIGEST_ATTR


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


class CountingSeededAuction(CountingDoubleAuction):
    """Draws from its RNG, so the allocator may not share it across seeds."""

    randomized = True

    def run(self, bids, rng=None):
        rng.getrandbits(63)
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


@contextmanager
def recorded_digests():
    """The value of every input-validation digest computed (a memo read is not)."""
    digested = []
    original = CommitmentScheme.digest_of

    def spy(value, nonce):
        if nonce == input_validation.InputValidationBlock._FIXED_NONCE:
            digested.append(value)
        return original(value, nonce)

    with mock.patch.object(CommitmentScheme, "digest_of", staticmethod(spy)):
        yield digested


@dataclasses.dataclass
class _Mutable:
    ids: tuple


@dataclasses.dataclass(frozen=True)
class _Frozen:
    ids: tuple


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
        ) as validity_rule, recorded_digests() as digested:
            shared = run_round(bids=bids, providers=providers, config=FrameworkConfig(k=3))
        assert not shared.report.aborted
        assert len(shared.vectors) == 7
        assert len(distinct(shared.vectors)) == 1
        assert validity_rule.call_count == 300
        assert digested == [shared.vectors[0]]
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
        ) as validity_rule, recorded_digests() as digested:
            separate = run_round(bids=bids, providers=providers, config=FrameworkConfig(k=3))
        assert len(distinct(separate.vectors)) == 7
        assert validity_rule.call_count == 7 * 300
        assert len(distinct(digested)) == 7
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
        """Two seeds share only a mechanism that declares it never draws."""

        def execute(mechanism, seed):
            block = SequentialAllocatorBlock("a", small_double_bids, mechanism)
            block._execute(seed)
            return block.result

        first, second = CountingSeededAuction(), CountingSeededAuction()
        result = execute(first, 7)
        assert execute(first, 7) is result
        assert first.runs == 1
        assert execute(second, 7) is not result
        assert (first.runs, second.runs) == (1, 1)
        assert execute(first, 8) is not result
        assert first.runs == 2
        assert execute(first, 7) is result

        seed_free, other = CountingDoubleAuction(), CountingDoubleAuction()
        assert not seed_free.randomized
        result = execute(seed_free, 7)
        assert execute(seed_free, 8) is result
        assert seed_free.runs == 1
        assert execute(other, 8) is not result
        assert (seed_free.runs, other.runs) == (1, 1)

    def test_an_equal_vector_digests_its_own(self, small_double_bids):
        copied = BidVector(small_double_bids.users, small_double_bids.providers)
        with recorded_digests() as digested:
            first = _digest(small_double_bids)
            assert _digest(small_double_bids) == first
            assert _digest(copied) == first
        assert distinct(digested) == [small_double_bids, copied]

    @pytest.mark.parametrize(
        "value",
        [_Mutable(("u0",)), _Frozen(("u0", ["u1"])), FrozenMap({"u0": ["u1"]})],
        ids=["non-frozen", "frozen-holding-a-list", "frozen-map-holding-a-list"],
    )
    def test_only_a_deep_immutable_value_keeps_its_digest(self, value):
        with recorded_digests() as digested:
            first = _digest(value)
            assert _digest(value) == first
        assert len(digested) == 2
        assert getattr(value, DIGEST_ATTR, None) is None

    def test_a_proxy_cannot_pose_as_a_kept_digest(self):
        """A ``Mock`` answers any attribute; the gate is asked before the memo."""
        with pytest.raises(UnsupportedPayloadError):
            _digest(mock.Mock())

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
                config=FrameworkConfig(k=1, round_timeout=0.05),
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
    """An agreed vector that has been assembled, validated, sized, fingerprinted,
    indexed (the maps a next round run from it is handed) and cleared."""
    providers = providers_named(3)
    shared = run_round(
        bids=double_bids(10, providers, seed=9), providers=providers, config=FrameworkConfig(k=1)
    )
    vector = shared.vectors[0]
    estimate_size(vector)
    bid_vector_fingerprint(vector)
    vector.user(vector.users[0].user_id)
    assert getattr(vector, RESULTS_ATTR)
    assert len(getattr(vector, DIGEST_ATTR)) == 64
    return vector


def _digest(vector):
    return input_validation.InputValidationBlock("iv", vector)._fingerprint(vector)


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
        assert memos == {
            RESULTS_ATTR,
            DIGEST_ATTR,
            "_repro_wire_size",
            "_repro_fingerprint",
            "_repro_by_id",
        }
        clone = COPIES[how](vector)
        assert clone is not vector and clone == vector
        # A copy is made of the fields: no mechanism, no result, no memo at all.
        assert set(vars(clone)) == {"users", "providers"}
        assert memos < set(vars(vector))  # the original keeps its own
        # What the copy then derives is what a fresh vector derives, about itself.
        fresh = BidVector(clone.users, clone.providers)
        assert estimate_size(clone) == estimate_size(fresh)
        assert bid_vector_fingerprint(clone) == bid_vector_fingerprint(fresh)
        assert _digest(clone) == _digest(fresh) == getattr(vector, DIGEST_ATTR)
        received, kept = clone.by_id(), vector.by_id()
        assert received == fresh.by_id() == kept
        assert all(mine is not theirs for mine, theirs in zip(received, kept))
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


# -- threads racing to publish one memo all read the first value published ---------------
#: Only stops a broken race from hanging the suite; no assertion reads a clock.
HANG_GUARD_S = 60.0


def race(entries, target, attribute):
    """Call each of ``entries`` on a thread of its own, parked inside ``target.attribute``.

    A thread parks on a barrier once ``attribute`` has returned its value, and
    so before the caller publishes it.  Threads start one at a time, each once
    the previous one is parked, so every thread has found the shared table and
    missed the value in it; the barrier then lets all of them publish at once.
    The race therefore happens on every run, not when the OS allows it.
    """
    barrier = threading.Barrier(len(entries), timeout=HANG_GUARD_S)
    parked = threading.Semaphore(0)
    original = getattr(target, attribute)
    failures = []

    def park(*args):
        value = original(*args)
        parked.release()
        barrier.wait()
        return value

    def body(entry):
        try:
            entry()
        except BaseException as exc:  # re-raised on the test's thread below
            failures.append(exc)
            barrier.abort()
            parked.release()

    threads = [threading.Thread(target=body, args=(entry,)) for entry in entries]
    with mock.patch.object(target, attribute, park):
        for thread in threads:
            thread.start()
            # A thread that never parks leaves the barrier short: it breaks below.
            parked.acquire(timeout=HANG_GUARD_S)
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


class TestRacingThreads:
    """One thread per block, all of them racing into the same memo table."""

    THREADS = 5

    def test_assemblies_adopt_the_first_vector(self):
        bids = double_bids(40, providers_named(5), seed=12)
        decided = FrozenMap(
            {f"user:{bid.user_id}": bid for bid in bids.users}
            | {f"ask:{ask.provider_id}": ask for ask in bids.providers}
        )
        blocks = []
        for _ in range(self.THREADS):
            block = bid_agreement.BidAgreementBlock(
                "ba", bids.user_ids, bids.provider_ids, {}, {}
            )
            block._decisions = decided
            blocks.append(block)
        race([block._assemble for block in blocks], bid_agreement.BidAgreementBlock, "_build_vector")
        vectors = [block.result for block in blocks]
        assert len(distinct(vectors)) == 1
        assert vectors[0] == bids

    def test_executions_adopt_the_first_result(self):
        bids = double_bids(40, providers_named(5), seed=12)
        mechanism = CountingDoubleAuction()
        blocks = [
            SequentialAllocatorBlock("alloc", bids, mechanism) for _ in range(self.THREADS)
        ]
        race([functools.partial(block._execute, 7) for block in blocks], mechanism, "run")
        results = [block.result for block in blocks]
        assert mechanism.runs == self.THREADS  # every thread computed before any published
        assert len(distinct(results)) == 1
        assert results[0] == DoubleAuction().run(bids, random.Random(7))

    def test_validations_keep_one_digest(self):
        bids = double_bids(40, providers_named(5), seed=12)
        digests = []

        def validate():
            digests.append(_digest(bids))

        race([validate] * self.THREADS, CommitmentScheme, "digest_of")
        assert len(digests) == self.THREADS  # every thread computed before any published
        assert set(digests) == {getattr(bids, DIGEST_ATTR)}
        assert getattr(bids, DIGEST_ATTR) == _digest(BidVector(bids.users, bids.providers))


# -- (e) input link 0: one frozen input batch per honest round ---------------------------
@contextmanager
def recorded_batches():
    """The ``BidAgreementBlock`` of every label-keyed batch built."""
    built = []
    original = bid_agreement.BidAgreementBlock._build_batch

    def spy(block):
        built.append(block)
        return original(block)

    with mock.patch.object(bid_agreement.BidAgreementBlock, "_build_batch", spy):
        yield built


_HONEST_MECHANISMS = {
    "double": (CountingDoubleAuction, double_bids),
    "standard": (
        functools.partial(StandardAuction, epsilon=0.5),
        lambda users, providers, seed=0: StandardAuctionWorkload(seed=seed).generate(
            users, len(providers), provider_ids=providers
        ),
    ),
}


def _duplicate_and_loss():
    plan = FaultPlan(
        [make_fault("duplicate", {}), make_fault("loss", {"rate": 0.2})],
        seed=11,
        recovery=RecoveryPolicy(),
    )
    plan.reset()
    return plan


_HONEST_CASES = {
    "plain": lambda: {"config": FrameworkConfig(k=2)},
    "round-timeout": lambda: {
        "config": FrameworkConfig(k=2, round_timeout=5.0),
        "latency_model": UniformLatencyModel(0.001, 0.01),
    },
    "duplicate-and-loss": lambda: {
        "config": FrameworkConfig(k=2),
        "latency_model": UniformLatencyModel(0.001, 0.01),
        "fault_plan": _duplicate_and_loss(),
    },
}


class TestInputLinkZero:
    PROVIDERS = providers_named(5)

    def _from_bids(self, mechanism, case):
        factory, make_bids = _HONEST_MECHANISMS[mechanism]
        auctioneer = DistributedAuctioneer(
            factory(), providers=self.PROVIDERS, seed=4, **_HONEST_CASES[case]()
        )
        with recorded_batches() as built, recorded_executions() as executions:
            report = auctioneer.run_from_bids(make_bids(30, self.PROVIDERS, seed=8))
        return Round(report, executions, auctioneer.algorithm), built

    @pytest.mark.parametrize("case", sorted(_HONEST_CASES))
    @pytest.mark.parametrize("mechanism", sorted(_HONEST_MECHANISMS))
    def test_shared_batch_equals_one_batch_per_provider(self, mechanism, case):
        shared, shared_built = self._from_bids(mechanism, case)
        with unshared():
            separate, separate_built = self._from_bids(mechanism, case)
        assert not shared.report.aborted
        assert (shared.report.stats.faults_injected > 0) == (case == "duplicate-and-loss")
        assert shared.observable() == separate.observable()
        assert len(shared_built) == 1
        assert len(separate_built) == len(self.PROVIDERS)

    def _rounds_of_one_vector(self, mechanism_factory):
        """k = 1 on three of the five sellers, then k = 2 on all five, from one vector."""
        bids = double_bids(30, self.PROVIDERS, seed=8)
        mechanism = mechanism_factory()
        reports = []
        with ExitStack() as stack:
            built = stack.enter_context(recorded_batches())
            executions = stack.enter_context(recorded_executions())
            digested = stack.enter_context(recorded_digests())
            for k, providers in ((1, self.PROVIDERS[:3]), (2, self.PROVIDERS)):
                auctioneer = DistributedAuctioneer(
                    mechanism, providers=providers, config=FrameworkConfig(k=k), seed=4
                )
                reports.append(auctioneer.run_from_bids(bids))
        observables = [Round(report, [], mechanism).observable() for report in reports]
        assert not any(report.aborted for report in reports)
        counts = {
            "batches": len(built),
            "vectors": len(distinct(vector for vector, _seed in executions)),
            "digests": len(digested),
            "runs": mechanism.runs,
        }
        return observables, counts, {seed for _vector, seed in executions}

    @pytest.mark.parametrize(
        "mechanism_factory",
        [CountingDoubleAuction, CountingSeededAuction],
        ids=["seed-free", "seeded"],
    )
    def test_rounds_of_one_vector_share_every_link(self, mechanism_factory):
        shared, counts, seeds = self._rounds_of_one_vector(mechanism_factory)
        with unshared():
            separate, separate_counts, _seeds = self._rounds_of_one_vector(mechanism_factory)
        assert shared == separate
        # A seeded A runs once per coin seed the two rounds drew, on the one
        # agreed vector; a seed-free A runs no coin, so both rounds read the
        # fixed seed and A runs once for both.
        assert len(seeds) == (2 if mechanism_factory.randomized else 1)
        assert counts == {"batches": 1, "vectors": 1, "digests": 1, "runs": len(seeds)}
        assert separate_counts == {"batches": 8, "vectors": 8, "digests": 8, "runs": 8}

    def test_every_provider_holds_the_same_frozen_maps(self):
        bids = double_bids(12, self.PROVIDERS)
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=self.PROVIDERS, config=FrameworkConfig(k=2)
        )
        with recorded_batches() as built:
            assert not auctioneer.run_from_bids(bids).aborted
        (block,) = built
        assert type(block.received_user_bids) is FrozenMap
        assert type(block.received_provider_asks) is FrozenMap
        assert block.received_user_bids == {bid.user_id: bid for bid in bids.users}

    def test_a_plain_dict_input_is_copied(self):
        user_bids = {"u0": UserBid("u0", 1.0, 0.5)}
        asks = FrozenMap({"p0": ProviderAsk("p0", 0.1, 1.0)})
        block = bid_agreement.BidAgreementBlock("ba", ["u0"], ["p0"], user_bids, asks)
        assert block.received_user_bids is not user_bids
        assert block.received_user_bids == user_bids
        assert block.received_provider_asks is asks
        user_bids["u0"] = None
        assert block._my_inputs()["user:u0"] == UserBid("u0", 1.0, 0.5)

    def test_another_asks_map_builds_another_batch(self):
        user_bids = FrozenMap({"u0": UserBid("u0", 1.0, 0.5)})

        def batch(asks):
            return bid_agreement.BidAgreementBlock(
                "ba", ["u0"], ["p0"], user_bids, asks
            )._my_inputs()

        asks = FrozenMap({"p0": ProviderAsk("p0", 0.1, 1.0)})
        first = batch(asks)
        assert batch(asks) is first
        other = batch(FrozenMap({"p0": ProviderAsk("p0", 0.2, 1.0)}))
        assert other is not first and other["ask:p0"].unit_cost == 0.2

    def test_consistent_inputs_stay_one_mutable_pair_per_provider(self):
        bids = double_bids(6, self.PROVIDERS)
        auctioneer = DistributedAuctioneer(
            DoubleAuction(), providers=self.PROVIDERS, config=FrameworkConfig(k=2)
        )
        inputs = auctioneer.consistent_inputs(bids)
        victim = bids.users[0]
        inputs["p0"].received_user_bids[victim.user_id] = None
        del inputs["p0"].received_provider_asks["p1"]
        for provider in self.PROVIDERS[1:]:
            assert type(inputs[provider].received_user_bids) is dict
            assert inputs[provider].received_user_bids[victim.user_id] is victim
            assert "p1" in inputs[provider].received_provider_asks
        # Nor does a perturbed copy reach the maps a later honest round is handed.
        user_bids, asks = bids.by_id()
        assert user_bids[victim.user_id] is victim and "p1" in asks


# -- (f) one label set per shared batch; a relayed own batch is accepted by identity ----
@contextmanager
def recorded_label_sets():
    """The ``BidAgreementBlock`` of every label set built."""
    built = []
    original = bid_agreement.BidAgreementBlock._labels

    def spy(block):
        built.append(block)
        return original(block)

    with mock.patch.object(bid_agreement.BidAgreementBlock, "_labels", spy):
        yield built


@contextmanager
def recorded_batch_checks():
    """``(block, batch)`` of every label and validator check of a batch."""
    checked = []
    original = multi_consensus.BatchedConsensusBlock._valid_batch

    def spy(block, batch):
        checked.append((block, batch))
        return original(block, batch)

    with mock.patch.object(multi_consensus.BatchedConsensusBlock, "_valid_batch", spy):
        yield checked


class Relabelling(DeviantProviderNode):
    """Relays its first-round batch as ``relabel(batch)``, one copy per recipient."""

    def __init__(self, *args, relabel, **kwargs):
        super().__init__(*args, **kwargs)
        self.relabel = relabel

    def transform_send(self, recipient, payload, tag):
        if tag.endswith("/batch|value"):
            return self.relabel(payload), tag
        return payload, tag


def _missing_one_label(batch):
    return FrozenMap(list(batch.items())[1:])


def _one_extra_label(batch):
    return FrozenMap({**batch, "user:zz": None})


class TestOneLabelSet:
    SELLERS = providers_named(8)

    def _figure4_point(self):
        """k = 1, 2, 3 on 3, 5 and 7 of eight sellers, all from one bid vector."""
        bids = double_bids(30, self.SELLERS, seed=8)
        mechanism = CountingDoubleAuction()
        with recorded_label_sets() as built:
            reports = [
                DistributedAuctioneer(
                    mechanism,
                    providers=self.SELLERS[: 2 * k + 1],
                    config=FrameworkConfig(k=k),
                    seed=4,
                ).run_from_bids(bids)
                for k in (1, 2, 3)
            ]
        assert not any(report.aborted for report in reports)
        return [Round(report, [], mechanism).observable() for report in reports], built

    def test_a_figure4_point_builds_one_label_set(self):
        shared, shared_built = self._figure4_point()
        with unshared():
            separate, separate_built = self._figure4_point()
        assert shared == separate
        assert len(shared_built) == 1
        # One per agreement block, 3 + 5 + 7, and never two for one block.
        assert len(separate_built) == len(distinct(separate_built)) == 15

    def test_maps_of_ones_own_build_one_label_set_per_block(self):
        providers = providers_named(5)
        with recorded_label_sets() as built:
            shared = both_ways(
                bids=double_bids(12, providers, seed=3),
                providers=providers,
                config=FrameworkConfig(k=2),
            )
        assert not shared.report.aborted
        assert len(built) == len(distinct(built)) == 2 * len(providers)

    def test_every_honest_block_checks_the_one_label_set(self):
        providers = providers_named(5)
        bids = double_bids(12, providers, seed=3)
        with recorded_batch_checks() as checked:
            report = DistributedAuctioneer(
                DoubleAuction(), providers=providers, config=FrameworkConfig(k=2)
            ).run_from_bids(bids)
        assert not report.aborted
        blocks = [block for block, _batch in checked]
        # One check per block, of its own input, in on_start; the peers' relays
        # of that very object are accepted by identity.
        assert len(blocks) == len(distinct(blocks)) == len(providers)
        assert len(distinct(batch for _block, batch in checked)) == 1
        assert len(distinct(block.labels for block in blocks)) == 1
        assert len(distinct(block._label_set for block in blocks)) == 1

    def _relabelled_round(self, relabel):
        """p3 relays its batch as ``relabel(batch)``; every provider shares the maps."""
        providers = providers_named(5)
        bids = double_bids(12, providers, seed=2)
        user_bids, asks = bids.by_id()
        inputs = {p: ProviderInput(p, user_bids, asks) for p in providers}
        deviant = Coalition.of(["p3"], functools.partial(Relabelling, relabel=relabel))
        run = functools.partial(
            run_round,
            bids=bids,
            providers=providers,
            config=FrameworkConfig(k=2),
            inputs=inputs,
            node_factory=deviant.factory(),
        )
        with recorded_batch_checks() as checked:
            shared = run()
        with unshared():
            separate = run()
        assert shared.observable() == separate.observable()
        relayed = [batch for block, batch in checked if batch is not block.my_inputs]
        return shared, relayed

    def test_a_content_equal_dict_is_checked_in_full(self):
        shared, relayed = self._relabelled_round(dict)
        assert not shared.report.aborted
        # Each of the four receivers checked its own copy of p3's batch.
        assert len(relayed) == len(distinct(relayed)) == 4
        assert all(type(batch) is dict for batch in relayed)

    @pytest.mark.parametrize(
        "relabel", [_missing_one_label, _one_extra_label], ids=["missing", "extra"]
    )
    def test_a_frozen_copy_with_another_label_set_is_bottom(self, relabel):
        shared, relayed = self._relabelled_round(relabel)
        assert shared.report.aborted
        outputs = shared.report.outcome.provider_outputs
        assert all(is_abort(outputs[p]) for p in ("p0", "p1", "p2", "p4"))
        assert relayed and all(type(batch) is FrozenMap for batch in relayed)


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

    @settings(max_examples=60, derandomize=True)
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
            "validations": 5,
            "validations_shared": 4,
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
            "validations": 5,
            "validations_shared": 0,
        }

    def test_nothing_is_counted_without_an_observation(self):
        providers = providers_named(3)
        with observe(metrics=False) as observation:
            run_round(bids=double_bids(4, providers), providers=providers, config=FrameworkConfig(k=1))
        assert observation.metrics is None
