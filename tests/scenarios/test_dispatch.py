"""Worker resolution policy + the executor dispatch layer.

The contract under test (DESIGN.md, "The grid engine"):

* ``workers="auto"`` sizes the pool from the CPUs this process may actually
  use (affinity-aware), and on a single available CPU resolves to the
  sequential path — pool overhead can never be the default;
* an explicit count above the available CPUs degrades to the available count
  with a stderr warning instead of oversubscribing;
* every grid declaration (sweep, resilience audit, chaos audit) dispatches
  through the one grid engine, and serial, ``workers=2``,
  resumed-from-half-a-journal and jsonl-vs-columnar runs all return
  identical records;
* the engine's keywords are declared once, on ``run_grid``: the three entry
  points forward them, and anything else is a ``TypeError`` naming the
  keyword;
* the CLI accepts ``--workers auto`` and surfaces the degrade warning.
"""

import pytest

from repro.cli import main
from repro.scenarios import (
    ChaosSpec,
    ResultsStore,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    WorkerPlan,
    resolve_workers,
    run_chaos,
    run_resilience,
    run_sweep,
    spec_from_dict,
)
from repro.scenarios.chaos import CHAOS_GRID
from repro.scenarios.dispatch import CHUNKS_PER_WORKER, split_chunks
from repro.scenarios.resilience import RESILIENCE_GRID, ResilienceSpec
from repro.scenarios.spec import spec_fingerprint
from repro.scenarios.sweep import SWEEP_GRID


def _pin_cpus(monkeypatch, count):
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: count)


def _sweep():
    return SweepSpec(
        base=spec_from_dict(
            {"mechanism": "double", "users": 5, "providers": 3,
             "latency": "constant"}
        ),
        axes=(("users", (4, 5)), ("seed", (0, 1))),
    )


def _audit():
    return ResilienceSpec(
        name="dispatch-audit",
        base=ScenarioSpec(
            mechanism="double", users=6, providers=3, config={"k": 1},
            latency="constant",
        ),
        k=1,
        adversaries=("equivocate",),
        seeds=(0, 1),
    )


def _chaos():
    return ChaosSpec(
        name="dispatch-chaos",
        base=_audit().base,
        faults=("loss", "duplicate", {"kind": "loss", "rate": 0.3, "label": "heavy"}),
        seeds=(0, 1),
    )


#: The three grid declarations, each with its public entry point and a spec
#: whose records are fully deterministic (compute time is modelled).
GRIDS = {
    "sweep": (SWEEP_GRID, run_sweep, _sweep),
    "resilience": (RESILIENCE_GRID, run_resilience, _audit),
    "chaos": (CHAOS_GRID, run_chaos, _chaos),
}
ALL_GRIDS = pytest.mark.parametrize("kind", sorted(GRIDS))


class TestResolveWorkers:
    def test_none_is_sequential(self):
        assert resolve_workers(None) == WorkerPlan(
            requested=None, workers=1, capped=False
        )

    def test_auto_sizes_from_available_cpus(self, monkeypatch):
        _pin_cpus(monkeypatch, 6)
        plan = resolve_workers("auto")
        assert plan.workers == 6
        assert plan.requested == "auto"
        assert not plan.capped
        assert plan.parallel

    def test_auto_on_one_core_host_is_sequential(self, monkeypatch, capsys):
        # The headline policy: the default fast path can never pay pool
        # overhead — one available CPU means the sequential path, silently.
        _pin_cpus(monkeypatch, 1)
        plan = resolve_workers("auto")
        assert plan == WorkerPlan(requested="auto", workers=1, capped=False)
        assert not plan.parallel
        assert capsys.readouterr().err == ""

    def test_oversubscription_degrades_with_warning(self, monkeypatch, capsys):
        _pin_cpus(monkeypatch, 2)
        plan = resolve_workers(4)
        assert plan.workers == 2
        assert plan.parallel
        assert plan.capped
        err = capsys.readouterr().err
        assert "requested 4 workers" in err
        assert "2 CPUs are available" in err
        assert "running 2" in err

    def test_oversubscription_warns_once_per_resolution(self, monkeypatch, capsys):
        # Audit harnesses re-resolve the same worker request several times in
        # one invocation; the degrade warning must print exactly once per
        # distinct (requested, available) resolution, not once per call.
        _pin_cpus(monkeypatch, 2)
        first = resolve_workers(4)
        second = resolve_workers(4)
        assert first == second  # the dedupe changes stderr, never the plan
        err = capsys.readouterr().err
        assert err.count("requested 4 workers") == 1
        assert len(err.strip().splitlines()) == 1
        # A different request is a different warning, and still prints.
        resolve_workers(8)
        assert "requested 8 workers" in capsys.readouterr().err

    def test_warn_once_dedupe_is_resettable(self, monkeypatch, capsys):
        from repro.scenarios.dispatch import reset_oversubscription_warnings

        _pin_cpus(monkeypatch, 2)
        resolve_workers(4)
        reset_oversubscription_warnings()
        resolve_workers(4)
        assert capsys.readouterr().err.count("requested 4 workers") == 2

    def test_explicit_count_within_budget_is_silent(self, monkeypatch, capsys):
        _pin_cpus(monkeypatch, 8)
        plan = resolve_workers(3)
        assert plan == WorkerPlan(requested=3, workers=3)
        assert plan.parallel
        assert capsys.readouterr().err == ""

    def test_explicit_count_on_one_core_degrades_to_serial(self, monkeypatch, capsys):
        _pin_cpus(monkeypatch, 1)
        plan = resolve_workers(4)
        assert not plan.parallel
        assert plan.workers == 1
        assert plan.capped
        assert "only 1 CPU is available" in capsys.readouterr().err

    def test_workers_one_is_sequential_without_warning(self, monkeypatch, capsys):
        _pin_cpus(monkeypatch, 8)
        assert not resolve_workers(1).parallel
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("bad", [0, -2, "fast", "", 2.5, True])
    def test_invalid_values_raise_path_precise_spec_errors(self, bad):
        with pytest.raises(SpecError, match=r"workers"):
            resolve_workers(bad)

    def test_error_path_is_customisable(self):
        with pytest.raises(SpecError, match=r"audit\.workers"):
            resolve_workers("sideways", path="audit.workers")


class TestSplitChunks:
    def test_splits_largest_until_target(self):
        chunks = split_chunks([list(range(8))], target=4)
        assert len(chunks) == 4
        assert sorted(x for chunk in chunks for x in chunk) == list(range(8))

    def test_indivisible_chunks_survive(self):
        assert split_chunks([[1], [2]], target=10) == [[1], [2]]

    def test_empty_input(self):
        assert split_chunks([], target=4) == []


class TestDispatchBitIdentity:
    @ALL_GRIDS
    def test_auto_equals_sequential(self, kind, monkeypatch):
        _grid, run, make = GRIDS[kind]
        spec = make()
        sequential = run(spec)
        _pin_cpus(monkeypatch, 4)
        parallel = run(spec, workers="auto")
        assert parallel.records == sequential.records
        assert parallel.to_dict() == sequential.to_dict()  # verdicts included

    @ALL_GRIDS
    def test_auto_on_one_core_never_launches_a_pool(self, kind, monkeypatch):
        _pin_cpus(monkeypatch, 1)

        def forbidden(chunks, worker, workers):  # pragma: no cover
            raise AssertionError("process pool launched on a 1-CPU host")

        monkeypatch.setattr("repro.scenarios.grid.execute_chunks", forbidden)
        _grid, run, make = GRIDS[kind]
        result = run(make(), workers="auto")
        assert result.records

    @ALL_GRIDS
    def test_one_result_and_one_counter_family(self, kind):
        # Every kind returns run_grid's GridResult: one payload shape, one
        # verdict, and the three <kind>.<unit>_* counters emitted by the engine.
        from repro.obs import observe

        grid, run, make = GRIDS[kind]
        with observe() as observation:
            result = run(make())
        assert result.grid is grid and result.is_clean() and not result.failing
        assert list(result.to_dict()) == ["kind", "name", "base", "clean", "records"]
        assert result.to_dict()["kind"] == kind
        instruments = observation.metrics.snapshot()["instruments"]
        counts = {
            what: instruments[f"{kind}.{grid.unit}_{what}"]["value"]
            for what in ("executed", "reused", "failed")
        }
        assert counts == {"executed": len(result.records), "reused": 0, "failed": 0}

    @ALL_GRIDS
    def test_serial_parallel_resumed_and_both_store_formats_agree(
        self, kind, monkeypatch, tmp_path
    ):
        # The engine's record-identity contract, once for every declaration:
        # serial == workers=2 == resumed from half a journal, on jsonl and on
        # columnar journals alike, always in grid order.
        grid, run, make = GRIDS[kind]
        spec = make()
        serial = run(spec)
        cells = sorted(grid.context(spec).run_order())
        assert len(cells) == len(serial.records) >= 4
        _pin_cpus(monkeypatch, 4)
        assert run(spec, workers=2).records == serial.records
        for fmt, suffix in (("jsonl", ".jsonl"), ("columnar", ".rcol")):
            full = str(tmp_path / f"full{suffix}")
            assert run(spec, workers=2, store=full, store_format=fmt).records == serial.records
            _manifest, journaled = ResultsStore(full, record_type=grid.record_type).read()
            assert [journaled[cell] for cell in cells] == serial.records

            for workers in (None, 2):
                # Half a journal, written the way an interrupted run leaves it.
                half = str(tmp_path / f"half-{workers}{suffix}")
                store = ResultsStore(half, record_type=grid.record_type, format=fmt)
                store.begin(spec, total_rounds=len(cells), fingerprint=spec_fingerprint(spec))
                for cell, record in list(zip(cells, serial.records))[::2]:
                    store.append(cell[0], cell[1], record)
                store.close()
                held = len(cells[::2])
                resumed = run(spec, workers=workers, store=half, resume=True)
                assert resumed.records == serial.records
                assert (resumed.executed, resumed.resumed) == (len(cells) - held, held)
                again = run(spec, workers=workers, store=half, resume=True)
                assert again.records == serial.records
                assert (again.executed, again.resumed) == (0, len(cells))

    def test_capped_sweep_still_bit_identical(self, monkeypatch, capsys):
        # Degrading 4 -> 2 workers must only change the pool size, never the
        # records: chunk determinism is independent of the worker count.
        sweep = _sweep()
        sequential = run_sweep(sweep)
        _pin_cpus(monkeypatch, 2)
        capped = run_sweep(sweep, workers=4)
        assert capped.records == sequential.records
        assert "requested 4 workers" in capsys.readouterr().err


class TestOneKeywordList:
    @ALL_GRIDS
    @pytest.mark.parametrize("keyword", [{"bogus": 1}, {"backend": "process"}])
    def test_unknown_and_removed_engine_keywords_are_type_errors(self, kind, keyword):
        _grid, run, make = GRIDS[kind]
        with pytest.raises(TypeError, match=next(iter(keyword))):
            run(make(), **keyword)


class TestCliWorkers:
    def test_cli_accepts_auto(self, tmp_path, capsys, monkeypatch):
        _pin_cpus(monkeypatch, 2)
        from repro.scenarios import dump_spec

        spec_path = tmp_path / "sweep.json"
        dump_spec(_sweep(), spec_path)
        journal = tmp_path / "out.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_path), "--workers", "auto",
             "--output", str(journal)]
        ) == 0
        assert "executed 4 new rounds" in capsys.readouterr().err

    def test_cli_oversubscription_warning(self, tmp_path, capsys, monkeypatch):
        _pin_cpus(monkeypatch, 1)
        from repro.scenarios import dump_spec

        spec_path = tmp_path / "sweep.json"
        dump_spec(_sweep(), spec_path)
        assert main(["sweep", "--spec", str(spec_path), "--workers", "64"]) == 0
        assert "requested 64 workers" in capsys.readouterr().err

    def test_cli_rejects_garbage_worker_counts(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--spec", "unread.json", "--workers", "sideways"])
        assert "expected a positive integer or 'auto'" in capsys.readouterr().err

    def test_chunks_per_worker_bounds_checkpoint_loss(self):
        # Documented knob: chunk count targets workers * CHUNKS_PER_WORKER so
        # a crash loses at most the in-flight chunks between journal appends.
        assert CHUNKS_PER_WORKER >= 2
