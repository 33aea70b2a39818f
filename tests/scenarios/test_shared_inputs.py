"""A sweep instance's bids are generated once for every cell that reads them.

The centralised baseline and k = 1, 2, 3 of one Figure 4 point run the same
workload instance; the sweep's component cache hands them one vector, and every
distributed round run from it builds no agreement batch or agreed vector of
its own: the first round builds one of each, the rest read them.  The double
auction never draws from the coin, so the rounds also read one execution of it
whatever seed each drew.  The chaos audit's fault cells share a seed's vector
the same way.  Counted, never timed: a counting workload, spies on the
builders, and records that must equal those of a per-cell ``run_scenario``
loop or of the same grid with the instance memos forgotten.
"""

from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.community.workload import DoubleAuctionWorkload
from repro.auctions import base as auction_base
from repro.core import allocator, bid_agreement
from repro.scenarios import (
    WORKLOADS,
    ChaosSpec,
    SweepSpec,
    figure4_sweep,
    run_chaos,
    run_scenario,
    run_sweep,
    spec_from_dict,
)
from repro.scenarios.sweep import SweepContext

_GENERATED = []


class _CountingWorkload(DoubleAuctionWorkload):
    def generate(self, num_users, num_providers, provider_ids=None, instance=0):
        _GENERATED.append((num_users, instance))
        return super().generate(num_users, num_providers, provider_ids, instance)


@pytest.fixture
def generated():
    _GENERATED.clear()
    WORKLOADS.register("counting", lambda **kw: _CountingWorkload(**kw))
    yield _GENERATED
    WORKLOADS.unregister("counting")


#: Every module that keeps a memo of a round's path on an instance.
_MEMO_USERS = (auction_base, bid_agreement, allocator)


@contextmanager
def counted_builds(forget=False):
    """Counts batch builds, vector assemblies and the executions of ``A``
    inside a ``SequentialAllocatorBlock``.

    ``forget`` switches every instance memo of the round's path off.
    """
    counts = Counter()
    agreement = bid_agreement.BidAgreementBlock
    execute, clear = allocator.SequentialAllocatorBlock._execute, DoubleAuction.run
    executing = []

    def execute_spy(block, seed):
        executing.append(block)
        try:
            return execute(block, seed)
        finally:
            executing.pop()

    def clear_spy(mechanism, bids, rng=None):
        counts["executions"] += bool(executing)  # the trusted baseline is not counted
        return clear(mechanism, bids, rng)

    def counting(name, original):
        def spy(*args):
            counts[name] += 1
            return original(*args)

        return spy

    with ExitStack() as stack:
        for name, method in (("batches", "_build_batch"), ("vectors", "_build_vector")):
            stack.enter_context(
                mock.patch.object(agreement, method, counting(name, getattr(agreement, method)))
            )
        stack.enter_context(
            mock.patch.object(allocator.SequentialAllocatorBlock, "_execute", execute_spy)
        )
        stack.enter_context(mock.patch.object(DoubleAuction, "run", clear_spy))
        if forget:
            for module in _MEMO_USERS:
                stack.enter_context(
                    mock.patch.object(module, "memoise", lambda instance, attr, memo: memo)
                )
        yield counts


def _fig4(n_values, rounds):
    return figure4_sweep(n_values=n_values, seed=5).with_base_overrides(
        {"workload": "counting", "rounds": rounds}
    )


def _per_cell(sweep):
    """The sweep's cells one ``run_scenario`` call each, nothing shared."""
    return [
        run_scenario(spec, instance)
        for spec in sweep.scenarios()
        for instance in range(spec.rounds)
    ]


class TestOneVectorPerInstance:
    N_VALUES = (8, 12)

    def test_one_generate_per_size_and_instance(self, generated):
        result = run_sweep(_fig4(self.N_VALUES, rounds=2))
        assert len(result.records) == 2 * 4 * 2
        assert sorted(generated) == [(n, i) for n in self.N_VALUES for i in range(2)]

    def test_records_equal_a_per_cell_loop(self, generated):
        sweep = _fig4(self.N_VALUES, rounds=2)
        shared = run_sweep(sweep).records
        del generated[:]
        assert _per_cell(sweep) == shared
        assert len(generated) == len(shared)

    def test_two_workers_give_the_serial_records(self, generated):
        sweep = _fig4(self.N_VALUES, rounds=2)
        assert run_sweep(sweep, workers=2).records == run_sweep(sweep).records

    @pytest.mark.parametrize("batch", [False, True], ids=["figure-4", "batch"])
    def test_no_vector_outlives_its_last_reader(self, generated, batch):
        sweep = _fig4(self.N_VALUES, rounds=3)
        if batch:  # one point, three rounds: every read is the last
            sweep = SweepSpec(base=sweep.scenarios()[1])
        context = SweepContext(sweep)
        try:
            cells = context.run_order()
            for cell in cells:
                context.run_cell(*cell)
            ran = len(generated)
            # A vector the cache still held would be handed out, not generated.
            for point, instance in cells:
                context.cache.bids(context.scenarios[point], instance, last=True)
            assert len(generated) - ran == len(cells)
        finally:
            context.close()


def _same_outcome(records):
    """The centralised record clears what each distributed record clears."""
    outcomes = {(r.winners, r.total_paid, r.total_received) for r in records}
    assert [r.runner for r in records].count("centralized") == 1
    assert len(outcomes) == 1


class TestFigure4OpCounts:
    """One ``fig4_sweep``-shaped op: one size, one round, centralised + k = 1, 2, 3."""

    def test_shared(self, generated):
        with counted_builds() as built:
            records = run_sweep(_fig4((20,), rounds=1)).records
        assert len(records) == 4
        assert len(generated) == 1
        _same_outcome(records)
        # One of each for the instance: k = 2 and k = 3 read what k = 1 built,
        # and the double auction ignores the coin, so one clearing serves all three.
        assert built == {"batches": 1, "vectors": 1, "executions": 1}

    def test_unshared(self, generated):
        with counted_builds(forget=True) as built:
            records = _per_cell(_fig4((20,), rounds=1))
        assert len(records) == 4
        assert len(generated) == 4
        _same_outcome(records)
        # One of each per executing provider.
        assert built == {
            "batches": 3 + 5 + 7,
            "vectors": 3 + 5 + 7,
            "executions": 3 + 5 + 7,
        }


class TestChaosOpCounts:
    """One ``chaos_grid``-shaped op: six fault cells of one seed, each run twice."""

    FAULTS = (
        {"kind": "loss", "rate": 0.05},
        {"kind": "loss", "rate": 0.2, "label": "heavy-loss"},
        "duplicate",
        "reorder",
        {"kind": "latency_spike", "at": 0.001, "duration": 0.004, "extra": 0.05},
        {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002},
    )

    def _spec(self):
        base = {
            "name": "chaos-op",
            "mechanism": "double",
            "users": 20,
            "providers": 5,
            "runner": "distributed",
            "latency": "constant",
            "seed": 3,
            "config": {"k": 2},
        }
        table = {"name": "chaos-op", "base": base, "faults": list(self.FAULTS), "seeds": [3]}
        return spec_from_dict(table, ChaosSpec)

    def test_one_build_of_each_for_the_seed(self):
        with counted_builds() as built:
            shared = run_chaos(self._spec())
        with counted_builds(forget=True) as separate_built:
            separate = run_chaos(self._spec())
        assert shared.is_clean()
        assert shared.records == separate.records
        assert built == {"batches": 1, "vectors": 1, "executions": 1}
        # One of each per provider per run, and the crashed provider builds its
        # batch again when it restarts, once in each of the crash cell's two runs.
        builds = 5 * 2 * len(self.FAULTS)
        assert separate_built == {
            "batches": builds + 2,
            "vectors": builds,
            "executions": builds,
        }
