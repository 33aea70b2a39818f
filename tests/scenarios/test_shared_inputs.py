"""A sweep instance's bids are generated once for every cell that reads them.

The centralised baseline and k = 1, 2, 3 of one Figure 4 point run the same
workload instance; the sweep's component cache hands them one vector, and the
providers of each distributed round build one agreement batch from it.  Counted,
never timed: a counting workload, a spy on the batch builder, and records that
must equal those of a per-cell ``run_scenario`` loop.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from repro.community.workload import DoubleAuctionWorkload
from repro.core import bid_agreement
from repro.scenarios import WORKLOADS, SweepSpec, figure4_sweep, run_scenario, run_sweep
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


@contextmanager
def counted_batches(forget=False):
    """Counts label-keyed batch builds; ``forget`` switches the batch memo off."""
    calls = []
    original = bid_agreement.BidAgreementBlock._build_batch

    def spy(block):
        calls.append(block)
        return original(block)

    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(bid_agreement.BidAgreementBlock, "_build_batch", spy)
        )
        if forget:
            stack.enter_context(
                mock.patch.object(bid_agreement, "memoise", lambda instance, attr, memo: memo)
            )
        yield calls


def _fig4(n_values, rounds):
    return figure4_sweep(n_values=n_values, seed=5).with_base_overrides(
        {"workload": "counting", "measure_compute": False, "rounds": rounds}
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


class TestFigure4OpCounts:
    """One ``fig4_sweep``-shaped op: one size, one round, centralised + k = 1, 2, 3."""

    def test_shared(self, generated):
        with counted_batches() as batches:
            records = run_sweep(_fig4((20,), rounds=1)).records
        assert len(records) == 4
        assert len(generated) == 1
        assert len(batches) == 3  # one per distributed round

    def test_unshared(self, generated):
        with counted_batches(forget=True) as batches:
            records = _per_cell(_fig4((20,), rounds=1))
        assert len(records) == 4
        assert len(generated) == 4
        assert len(batches) == 3 + 5 + 7  # one per executing provider
