"""Fail-fast grid execution: worker errors surface, ``--resume`` recovers.

The contract under test:

* a worker exception carries the chunk's partial results, the original
  traceback and the typed cause across the process boundary
  (``ChunkExecutionError``), so the parent journals what finished and then
  re-raises the typed error;
* a dead worker process surfaces as ``BrokenProcessPool`` after the cells
  that finished were journaled, and a healed ``resume=True`` run executes
  only the cells the journal lacks;
* every grid — sweep, resilience audit, chaos audit — honours journal-per-chunk
  through the one worker body: a chunk that fails midway still journals the
  cells it finished, so a resumed run only repeats what never ran.
"""

import os
import pickle
from types import SimpleNamespace
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.provider_protocol import FrameworkProviderNode
from repro.net.faults import FaultModel
from repro.scenarios import (
    ADVERSARIES,
    FAULTS,
    WORKLOADS,
    ChaosSpec,
    ResilienceSpec,
    ResultsStore,
    SpecError,
    SweepSpec,
    run_chaos,
    run_resilience,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenarios.chaos import CHAOS_GRID
from repro.scenarios.dispatch import ChunkExecutionError, execute_chunks
from repro.scenarios.grid import GridResult, chunk_cells, run_chunk
from repro.scenarios.resilience import RESILIENCE_GRID
from repro.scenarios.sweep import SWEEP_GRID
from repro.community.workload import DoubleAuctionWorkload

_PARENT_PID = os.getpid()


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    # Keep the pool paths parallel (and warning-free) on single-core runners.
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: 64)


# --------------------------------------------------------- worker functions --
# Module-level so the fork-based pool pickles them by reference.
def _lethal_worker(items):
    """Kill the worker process at the 'die' item; return item*2 otherwise."""
    results = []
    for item in items:
        if item == "die" and os.getpid() != _PARENT_PID:
            os._exit(17)
        results.append(item * 2)
    return results


def _typed_error_worker(items):
    raise ChunkExecutionError(
        [], "Traceback (most recent call last):\nSpecError: config.k: bad",
        SpecError("config.k", "bad"),
    )


def _partial_then_typed_worker(items):
    """Finish the items before 'bad', then fail with a typed cause."""
    finished = [item * 2 for item in items[: items.index("bad")]]
    raise ChunkExecutionError(
        finished, "Traceback (most recent call last):\nSpecError: config.k: bad",
        SpecError("config.k", "bad"),
    )


def _opaque_error_worker(items):
    raise ChunkExecutionError(
        [], "Traceback (most recent call last):\n  File \"cell.py\"\nOpaqueError: lost"
    )


# ---------------------------------------------------------------- unit layer --
class TestChunkExecutionError:
    def test_pickles_losslessly(self):
        error = ChunkExecutionError(
            [(0, 0, "r")], "tb text\nValueError: boom", ValueError("boom")
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.partial_results == [(0, 0, "r")]
        assert clone.traceback == "tb text\nValueError: boom"
        assert isinstance(clone.cause, ValueError)

    def test_pickles_without_a_cause(self):
        clone = pickle.loads(pickle.dumps(ChunkExecutionError([1], "tb\nOpaqueError: x")))
        assert clone.partial_results == [1] and clone.cause is None
        assert clone.error == "OpaqueError: x"

    def test_error_is_the_final_traceback_line(self):
        error = ChunkExecutionError([], "Traceback:\n  ...\nValueError: boom\n")
        assert error.error == "ValueError: boom"
        assert ChunkExecutionError([], "").error == "worker chunk failed"


class TestExecuteChunks:
    def test_raise_mode_reraises_the_typed_cause(self):
        with pytest.raises(SpecError, match=r"config\.k"):
            list(execute_chunks([["x"]], _typed_error_worker, 2))

    def test_raise_mode_death_propagates(self):
        with pytest.raises(BrokenProcessPool):
            list(execute_chunks([["die"]], _lethal_worker, 2))

    def test_every_result_arrives_once(self):
        results = execute_chunks([[1, 2], [3], [4, 5, 6]], _lethal_worker, 2)
        assert sorted(results) == [2, 4, 6, 8, 10, 12]

    def test_partial_results_are_yielded_before_the_typed_cause(self):
        # The caller journals what it is yielded, so the cells the failing
        # chunk finished must come out before the error does.
        stream = execute_chunks([[1, 2, "bad", 3]], _partial_then_typed_worker, 2)
        assert [next(stream), next(stream)] == [2, 4]
        with pytest.raises(SpecError, match=r"config\.k"):
            next(stream)

    def test_a_cause_that_did_not_pickle_is_a_runtime_error_with_the_traceback(self):
        with pytest.raises(RuntimeError, match=r"OpaqueError: lost") as excinfo:
            list(execute_chunks([["x"]], _opaque_error_worker, 2))
        assert 'File "cell.py"' in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ChunkExecutionError)


# --------------------------------------------------------------- sweep layer --
_POISON = {"armed": True}


class _FragileWorkload(DoubleAuctionWorkload):
    def generate(self, num_users, num_providers, provider_ids=None, instance=0):
        if _POISON["armed"] and num_users == 6:
            raise ValueError("injected poison point")
        return super().generate(num_users, num_providers, provider_ids, instance)


class _OpaqueError(Exception):
    pass


class _OpaqueWorkload(DoubleAuctionWorkload):
    def generate(self, num_users, num_providers, provider_ids=None, instance=0):
        if num_users == 6:
            error = _OpaqueError("injected opaque point")
            error.hook = lambda: None  # an attribute that cannot pickle
            raise error
        return super().generate(num_users, num_providers, provider_ids, instance)


class _LethalWorkload(DoubleAuctionWorkload):
    def generate(self, num_users, num_providers, provider_ids=None, instance=0):
        if _POISON["armed"] and num_users == 6 and os.getpid() != _PARENT_PID:
            os._exit(17)
        return super().generate(num_users, num_providers, provider_ids, instance)


@pytest.fixture
def fragile_workload():
    _POISON["armed"] = True
    WORKLOADS.register("fragile", lambda **kw: _FragileWorkload(**kw))
    yield
    WORKLOADS.unregister("fragile")


@pytest.fixture
def opaque_workload():
    WORKLOADS.register("opaque", lambda **kw: _OpaqueWorkload(**kw))
    yield
    WORKLOADS.unregister("opaque")


@pytest.fixture
def lethal_workload():
    _POISON["armed"] = True
    WORKLOADS.register("lethal", lambda **kw: _LethalWorkload(**kw))
    yield
    WORKLOADS.unregister("lethal")


def _sweep(workload):
    return SweepSpec(
        base=spec_from_dict(
            {
                "mechanism": "double",
                "latency": "constant",
                "users": 4,
                "providers": 3,
                "workload": workload,
            }
        ),
        axes=(("users", (4, 5, 6, 7)),),
    )


class TestRunChunk:
    def test_a_mid_chunk_failure_carries_the_finished_cells_and_the_typed_cause(
        self, fragile_workload
    ):
        sweep = _sweep("fragile")
        cells = SWEEP_GRID.context(sweep).run_order()  # users 4, 5, 6, 7
        with pytest.raises(ChunkExecutionError) as excinfo:
            run_chunk(SWEEP_GRID, spec_to_dict(sweep), cells)
        error = excinfo.value
        assert [(point, instance) for point, instance, _r in error.partial_results] == cells[:2]
        assert [record.users for _p, _i, record in error.partial_results] == [4, 5]
        assert isinstance(error.cause, ValueError)
        assert error.error == "ValueError: injected poison point"

    def test_an_error_that_does_not_pickle_leaves_no_cause(self, opaque_workload):
        sweep = _sweep("opaque")
        cells = SWEEP_GRID.context(sweep).run_order()
        with pytest.raises(ChunkExecutionError) as excinfo:
            run_chunk(SWEEP_GRID, spec_to_dict(sweep), cells)
        assert excinfo.value.cause is None
        assert "injected opaque point" in excinfo.value.traceback
        assert len(excinfo.value.partial_results) == 2


class TestSweepFailFast:
    def test_raise_mode_propagates_with_worker_traceback(self, fragile_workload):
        with pytest.raises(ValueError, match=r"injected poison point") as excinfo:
            run_sweep(_sweep("fragile"), workers=2)
        # The chunk context rides along as the cause chain.
        assert isinstance(excinfo.value.__cause__, ChunkExecutionError)
        assert "injected poison point" in excinfo.value.__cause__.traceback

    def test_resume_recovers_a_worker_death(self, lethal_workload, tmp_path):
        # A dead worker fails the run fast; the cells that finished first are
        # journaled (which ones depends on scheduling, so the asserts read the
        # journal), and a healed resume runs exactly the missing cells.
        path = str(tmp_path / "journal.jsonl")
        sweep = _sweep("lethal")
        cells = SWEEP_GRID.context(sweep).run_order()
        poison = (2, 0)  # users=6
        with pytest.raises(BrokenProcessPool):
            run_sweep(sweep, workers=2, store=path)
        _manifest, journaled = ResultsStore(path, record_type=SWEEP_GRID.record_type).read()
        assert poison not in journaled

        _POISON["armed"] = False  # heal the poison, then resume
        resumed = run_sweep(sweep, workers=2, store=path, resume=True)
        assert resumed.executed == len(cells) - len(journaled)
        assert resumed.resumed == len(journaled)
        assert [r.users for r in resumed.records] == [4, 5, 6, 7]

        again = run_sweep(sweep, workers=2, store=path, resume=True)
        assert again.executed == 0 and again.resumed == len(cells)

    def test_serial_path_still_fails_fast(self, fragile_workload):
        with pytest.raises(ValueError, match=r"injected poison point"):
            run_sweep(_sweep("fragile"))

    def test_serial_failure_journals_the_cells_before_it(self, fragile_workload, tmp_path):
        # Serially the cells run in grid order, so the journal holds exactly
        # the points ahead of the poison, and a resume runs the rest.
        path = str(tmp_path / "journal.jsonl")
        sweep = _sweep("fragile")
        with pytest.raises(ValueError, match=r"injected poison point"):
            run_sweep(sweep, store=path)
        _manifest, journaled = ResultsStore(path, record_type=SWEEP_GRID.record_type).read()
        assert sorted(journaled) == [(0, 0), (1, 0)]

        _POISON["armed"] = False  # heal the poison, then resume
        resumed = run_sweep(sweep, store=path, resume=True)
        assert (resumed.executed, resumed.resumed) == (2, 2)
        assert [r.users for r in resumed.records] == [4, 5, 6, 7]

    def test_an_unpicklable_worker_error_surfaces_as_a_runtime_error(self, opaque_workload):
        with pytest.raises(RuntimeError, match=r"injected opaque point") as excinfo:
            run_sweep(_sweep("opaque"), workers=2)
        assert isinstance(excinfo.value.__cause__, ChunkExecutionError)

    def test_failure_mode_is_not_an_engine_keyword(self, fragile_workload):
        with pytest.raises(TypeError, match=r"failure_mode"):
            run_sweep(_sweep("fragile"), workers=2, failure_mode="quarantine")

    def test_a_clean_payload_has_exactly_the_shared_keys(self):
        result = run_sweep(_sweep("double"))
        assert result.is_clean()
        assert set(result.to_dict()) == {"kind", "name", "base", "clean", "records"}


def test_is_clean_means_no_failing_record():
    verdict = CHAOS_GRID.verdict
    passed, failed = SimpleNamespace(**{verdict: True}), SimpleNamespace(**{verdict: False})
    dirty = GridResult(CHAOS_GRID, "audit", {}, records=[passed, failed])
    assert dirty.failing == [failed] and not dirty.is_clean()
    assert GridResult(CHAOS_GRID, "audit", {}, records=[passed]).is_clean()
    # A kind without a verdict has nothing that can fail.
    assert GridResult(SWEEP_GRID, "sweep", {}, records=[failed]).is_clean()


# ------------------------------------------------- every grid, one worker body --
def _poison_deviation(*args):
    """A deviating-node constructor that raises while armed, else plays honest."""
    if _POISON["armed"]:
        raise RuntimeError("injected poison cell")
    return FrameworkProviderNode(*args)


class _PoisonFault(FaultModel):
    kind = "poison"

    def on_send(self, message, rng):
        if _POISON["armed"]:
            raise RuntimeError("injected poison cell")
        return None


@pytest.fixture
def poison_kinds(fragile_workload):
    ADVERSARIES.register("poison", lambda: _poison_deviation)
    FAULTS.register("poison", lambda **kw: _PoisonFault(**kw))
    yield
    ADVERSARIES.unregister("poison")
    FAULTS.unregister("poison")


_AUDIT_BASE = {
    "mechanism": "double",
    "latency": "constant",
    "users": 5,
    "providers": 4,
    "config": {"k": 1},
}


def _poisoned_grid(kind):
    """``(declaration, entry point, spec)``: 16 one-group cells, the last one poisoned."""
    if kind == "sweep":
        users = (4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 6)
        return SWEEP_GRID, run_sweep, SweepSpec(base=_sweep("fragile").base, axes=(("users", users),))
    if kind == "chaos":
        losses = [{"kind": "loss", "rate": 0.01 * n, "label": f"loss-{n}"} for n in range(1, 16)]
        return CHAOS_GRID, run_chaos, ChaosSpec(base=_AUDIT_BASE, faults=losses + ["poison"])
    crashes = [{"kind": "crash", "max_sends": n} for n in range(1, 16)]
    spec = ResilienceSpec(base=_AUDIT_BASE, coalitions=((0,),), adversaries=crashes + ["poison"])
    return RESILIENCE_GRID, run_resilience, spec


@pytest.mark.parametrize("kind", ["sweep", "resilience", "chaos"])
def test_mid_chunk_failure_journals_the_cells_the_chunk_finished(kind, poison_kinds, tmp_path):
    # The journal-per-chunk contract of dispatch.py, for every grid: the
    # failing chunk's finished cells reach the journal before the typed
    # error re-raises, and a resumed run executes only what never ran.
    grid, run, spec = _poisoned_grid(kind)
    context = grid.context(spec)
    cells = context.run_order()
    poison = cells[-1]
    (chunk,) = [c for c in chunk_cells(context, cells, workers=2) if poison in c]
    finished = chunk[: chunk.index(poison)]
    assert finished  # the poison cell really sits mid-chunk

    path = str(tmp_path / "journal.jsonl")
    with pytest.raises((RuntimeError, ValueError), match=r"injected poison") as excinfo:
        run(spec, workers=2, store=path)
    assert isinstance(excinfo.value.__cause__, ChunkExecutionError)
    _manifest, journaled = ResultsStore(path, record_type=grid.record_type).read()
    assert set(finished) <= set(journaled)
    assert poison not in journaled

    _POISON["armed"] = False  # heal the poison, then resume
    resumed = run(spec, workers=2, store=path, resume=True)
    assert resumed.executed == len(cells) - len(journaled)
    assert len(resumed.records) == len(cells)


@pytest.mark.parametrize("kind", ["sweep", "resilience", "chaos"])
def test_serial_failure_journals_every_cell_before_the_poison(kind, poison_kinds, tmp_path):
    # Fail-fast without a pool, for every grid: the cells ahead of the poison
    # are all journaled, the typed error surfaces unwrapped, and a healed
    # resume executes the poison cell alone.
    grid, run, spec = _poisoned_grid(kind)
    cells = grid.context(spec).run_order()
    path = str(tmp_path / "journal.jsonl")
    with pytest.raises((RuntimeError, ValueError), match=r"injected poison") as excinfo:
        run(spec, store=path)
    assert not isinstance(excinfo.value.__cause__, ChunkExecutionError)
    _manifest, journaled = ResultsStore(path, record_type=grid.record_type).read()
    assert sorted(journaled) == sorted(cells[:-1])

    _POISON["armed"] = False  # heal the poison, then resume
    resumed = run(spec, store=path, resume=True)
    assert (resumed.executed, resumed.resumed) == (1, len(cells) - 1)
    assert len(resumed.records) == len(cells) and resumed.is_clean()
