"""Crash-tolerant executor: bounded retries, poison quarantine, resume.

The contract under test (ISSUE 9, recovery layer):

* a worker exception carries the chunk's partial results and original
  traceback across the process boundary (``ChunkExecutionError``), so
  fail-fast callers lose nothing and crash-tolerant callers can retry;
* ``failure_mode="quarantine"`` survives per-chunk exceptions *and* worker
  death (``BrokenProcessPool``) with a literal retry bound
  (``MAX_CHUNK_RETRIES``); items that keep failing are quarantined —
  journaled, skipped, reported — while the rest of the grid completes;
* a later ``--resume`` re-executes exactly the quarantined rounds — for every
  grid declaration, since ``failure_mode`` is the engine's option;
* every grid — sweep, resilience audit, chaos audit — honours journal-per-chunk
  through the one worker body: a chunk that fails midway still journals the
  cells it finished, so a resumed run only repeats what never ran.
"""

import json
import os
import pickle

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
)
from repro.scenarios.chaos import CHAOS_GRID
from repro.scenarios.dispatch import (
    MAX_CHUNK_RETRIES,
    ChunkExecutionError,
    ChunkQuarantine,
    execute_chunks,
)
from repro.scenarios.grid import chunk_cells
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
def _flaky_worker(items):
    """Raise at the 'poison' item, every time; return item*2 otherwise."""
    results = []
    for position, item in enumerate(items):
        if item == "poison":
            raise ChunkExecutionError(
                results, "Traceback (most recent call last):\nValueError: poison",
                items[position:],
            )
        results.append(item * 2)
    return results


def _lethal_worker(items):
    """Kill the worker process at the 'die' item; return item*2 otherwise."""
    results = []
    for position, item in enumerate(items):
        if item == "die" and os.getpid() != _PARENT_PID:
            os._exit(17)
        results.append(item * 2)
    return results


def _second_time_lucky_worker(items):
    """Fail while the marker file is absent, creating it; succeed after."""
    marker = items[0]
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise ChunkExecutionError(
            [], "Traceback (most recent call last):\nRuntimeError: transient", items
        )
    return ["recovered"]


def _typed_error_worker(items):
    raise ChunkExecutionError(
        [], "Traceback (most recent call last):\nSpecError: config.k: bad",
        items, SpecError("config.k", "bad"),
    )


# ---------------------------------------------------------------- unit layer --
class TestChunkExecutionError:
    def test_pickles_losslessly(self):
        error = ChunkExecutionError(
            [(0, 0, "r")], "tb text\nValueError: boom", [(1, {}, [0])],
            ValueError("boom"),
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.partial_results == [(0, 0, "r")]
        assert clone.traceback == "tb text\nValueError: boom"
        assert clone.remaining_items == [(1, {}, [0])]
        assert isinstance(clone.cause, ValueError)

    def test_error_is_the_final_traceback_line(self):
        error = ChunkExecutionError([], "Traceback:\n  ...\nValueError: boom\n", [])
        assert error.error == "ValueError: boom"
        assert ChunkExecutionError([], "", []).error == "worker chunk failed"


class TestProcessBackendQuarantine:
    def _run(self, chunks, worker, workers=2, mode="quarantine"):
        results, quarantined = [], []
        for item in execute_chunks(chunks, worker, workers, mode):
            (quarantined if isinstance(item, ChunkQuarantine) else results).append(item)
        return results, quarantined

    def test_poison_item_is_quarantined_and_chunkmates_survive(self):
        results, quarantined = self._run(
            [["a", "poison", "b"], ["c"]], _flaky_worker
        )
        assert sorted(results) == ["aa", "bb", "cc"]
        assert len(quarantined) == 1
        assert quarantined[0].items == ("poison",)
        assert quarantined[0].error == "ValueError: poison"
        assert "ValueError" in quarantined[0].traceback

    def test_worker_death_is_quarantined_and_chunkmates_survive(self):
        results, quarantined = self._run(
            [["a"], ["die"], ["b"], ["c"]], _lethal_worker
        )
        assert sorted(results) == ["aa", "bb", "cc"]
        assert len(quarantined) == 1
        assert quarantined[0].items == ("die",)
        assert "BrokenProcessPool" in quarantined[0].error

    def test_worker_death_in_multi_item_chunk_is_bisected_out(self):
        results, quarantined = self._run([["a", "b", "die", "c"]], _lethal_worker)
        assert sorted(results) == ["aa", "bb", "cc"]
        assert [q.items for q in quarantined] == [("die",)]

    def test_transient_failure_is_retried_within_the_bound(self, tmp_path):
        marker = str(tmp_path / "marker")
        results, quarantined = self._run([[marker]], _second_time_lucky_worker)
        assert results == ["recovered"]
        assert quarantined == []
        assert MAX_CHUNK_RETRIES >= 2  # the retry that saved the round exists

    def test_raise_mode_reraises_the_typed_cause(self):
        with pytest.raises(SpecError, match=r"config\.k"):
            list(execute_chunks([["x"]], _typed_error_worker, 2))

    def test_raise_mode_death_propagates(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            list(execute_chunks([["die"]], _lethal_worker, 2))


# --------------------------------------------------------------- sweep layer --
_POISON = {"armed": True}


class _FragileWorkload(DoubleAuctionWorkload):
    def generate(self, num_users, num_providers, provider_ids=None, instance=0):
        if _POISON["armed"] and num_users == 6:
            raise ValueError("injected poison point")
        return super().generate(num_users, num_providers, provider_ids, instance)


class _LethalWorkload(DoubleAuctionWorkload):
    def generate(self, num_users, num_providers, provider_ids=None, instance=0):
        if num_users == 6 and os.getpid() != _PARENT_PID:
            os._exit(17)
        return super().generate(num_users, num_providers, provider_ids, instance)


@pytest.fixture
def fragile_workload():
    _POISON["armed"] = True
    WORKLOADS.register("fragile", lambda **kw: _FragileWorkload(**kw))
    yield
    WORKLOADS.unregister("fragile")


@pytest.fixture
def lethal_workload():
    WORKLOADS.register("lethal", lambda **kw: _LethalWorkload(**kw))
    yield
    WORKLOADS.unregister("lethal")


def _sweep(workload):
    return SweepSpec(
        base=spec_from_dict(
            {
                "mechanism": "double",
                "latency": "constant",
                "measure_compute": False,
                "users": 4,
                "providers": 3,
                "workload": workload,
            }
        ),
        axes=(("users", (4, 5, 6, 7)),),
    )


class TestSweepQuarantine:
    def test_failure_mode_is_validated(self):
        with pytest.raises(SpecError, match=r"failure_mode"):
            run_sweep(_sweep("double"), failure_mode="retry-forever")

    def test_quarantine_completes_the_rest_of_the_grid(self, fragile_workload):
        result = run_sweep(_sweep("fragile"), workers=2, failure_mode="quarantine")
        assert len(result.records) == 3
        assert result.quarantined == [
            {"point": 2, "instance": 0, "error": "ValueError: injected poison point"}
        ]
        assert result.to_dict()["quarantined"] == result.quarantined
        assert sorted(r.users for r in result.records) == [4, 5, 7]

    def test_clean_sweep_omits_quarantined_from_payload(self):
        result = run_sweep(_sweep("double"), workers=2, failure_mode="quarantine")
        assert result.quarantined == []
        assert "quarantined" not in result.to_dict()

    def test_worker_death_quarantines_only_the_poison_point(self, lethal_workload):
        result = run_sweep(_sweep("lethal"), workers=2, failure_mode="quarantine")
        assert len(result.records) == 3
        assert [(q["point"], q["instance"]) for q in result.quarantined] == [(2, 0)]
        assert "BrokenProcessPool" in result.quarantined[0]["error"]

    def test_raise_mode_propagates_with_worker_traceback(self, fragile_workload):
        with pytest.raises(ValueError, match=r"injected poison point") as excinfo:
            run_sweep(_sweep("fragile"), workers=2)
        # The chunk context rides along as the cause chain.
        assert isinstance(excinfo.value.__cause__, ChunkExecutionError)
        assert "injected poison point" in excinfo.value.__cause__.traceback

    def test_recovery_lock_resume_reexecutes_only_the_quarantined_point(
        self, fragile_workload, tmp_path
    ):
        # The ISSUE's recovery lock: crash -> quarantine with a journaled
        # error record -> --resume re-executes exactly the poison point.
        path = str(tmp_path / "journal.jsonl")
        sweep = _sweep("fragile")
        first = run_sweep(sweep, workers=2, store=path, failure_mode="quarantine")
        assert len(first.records) == 3 and len(first.quarantined) == 1

        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        quarantine_lines = [l for l in lines if l.get("kind") == "quarantine"]
        assert [(l["point"], l["instance"]) for l in quarantine_lines] == [(2, 0)]
        assert quarantine_lines[0]["error"] == "ValueError: injected poison point"
        assert "injected poison point" in quarantine_lines[0]["traceback"]

        _POISON["armed"] = False  # heal the poison, then resume
        resumed = run_sweep(
            sweep, workers=2, store=path, resume=True, failure_mode="quarantine"
        )
        assert resumed.executed == 1  # only the quarantined round re-ran
        assert resumed.resumed == 3
        assert len(resumed.records) == 4
        assert resumed.quarantined == []

        again = run_sweep(sweep, workers=2, store=path, resume=True)
        assert again.executed == 0 and again.resumed == 4

    def test_serial_path_still_fails_fast(self, fragile_workload):
        with pytest.raises(ValueError, match=r"injected poison point"):
            run_sweep(_sweep("fragile"), failure_mode="quarantine")


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
    "measure_compute": False,
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
def test_quarantine_reaches_every_declaration(kind, poison_kinds, tmp_path):
    # failure_mode is the engine's option, so each entry point gets it: the
    # poison cell is reported and journaled, every other cell has a record,
    # the verdict is withheld, and a healed resume runs exactly that cell.
    grid, run, spec = _poisoned_grid(kind)
    cells = grid.context(spec).run_order()
    poison = cells[-1]
    path = str(tmp_path / "journal.jsonl")

    result = run(spec, workers=2, store=path, failure_mode="quarantine")
    assert [(q["point"], q["instance"]) for q in result.quarantined] == [poison]
    assert "injected poison" in result.quarantined[0]["error"]
    assert len(result.records) == len(cells) - 1
    assert result.to_dict()["quarantined"] == result.quarantined
    assert not result.is_clean()
    _manifest, journaled = ResultsStore(path, record_type=grid.record_type).read()
    assert set(journaled) == set(cells) - {poison}

    _POISON["armed"] = False  # heal the poison, then resume
    resumed = run(spec, workers=2, store=path, resume=True, failure_mode="quarantine")
    assert resumed.executed == 1
    assert len(resumed.records) == len(cells)
    assert resumed.quarantined == []
    assert "quarantined" not in resumed.to_dict()
