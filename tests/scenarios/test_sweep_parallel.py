"""Parallel sweep executor: differential locks, amortisation and lifecycle.

The contract under test (DESIGN.md, "The grid engine"):

* ``run_sweep(workers=N)`` is bit-identical to sequential ``run_sweep`` on
  every :class:`RunRecord` field, in the same grid order —
  ``elapsed_seconds`` included (the virtual clock is modelled);
* chunking preserves the per-configuration state amortisation (all rounds of
  a grid point share one worker and one component cache);
* component caches — including the latency-model cache and the canonical
  parameter keys — never change results, only skip rebuilds;
* every context is closed on every path, including worker chunks whose
  grid point raises — for every grid declaration, not only the sweep's.
"""

import pickle

import pytest

from repro.scenarios import (
    ComponentCache,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    WORKLOADS,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenarios.chaos import CHAOS_GRID, ChaosContext, ChaosSpec
from repro.scenarios.dispatch import CHUNKS_PER_WORKER, ChunkExecutionError
from repro.scenarios.grid import chunk_cells, run_chunk
from repro.scenarios.resilience import (
    RESILIENCE_GRID,
    AuditContext,
    ResilienceSpec,
)
from repro.scenarios.spec import ComponentSpec
from repro.scenarios.sweep import SWEEP_GRID, SweepContext, _component_key


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    # The worker policy degrades explicit counts to the CPUs this process may
    # use; pin a big host so the pool paths under test stay parallel (and
    # warning-free) on single-core CI runners.
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: 64)


def _spec(data):
    base = {"mechanism": "double", "latency": "constant"}
    base.update(data)
    return spec_from_dict(base)


class TestParallelDifferential:
    def test_parallel_bit_identical_to_sequential(self):
        # The virtual clock is modelled, so the lock is FULL record
        # equality — elapsed_seconds included.
        sweep = SweepSpec(
            base=_spec({"users": 6, "providers": 3, "rounds": 2}),
            axes=(("users", (5, 6)), ("seed", (0, 1))),
        )
        sequential = run_sweep(sweep)
        parallel = run_sweep(sweep, workers=4)
        assert parallel.records == sequential.records
        assert len(parallel.records) == 8
        assert parallel.executed == 8

    def test_parallel_bit_identical_on_wan_latency(self):
        # Jittered WAN delays: still full record equality, elapsed included.
        sweep = SweepSpec(
            base=spec_from_dict(
                {"mechanism": "double", "users": 8, "providers": 4, "latency": "wan"}
            ),
            axes=(("users", (6, 8)),),
        )
        sequential = run_sweep(sweep)
        parallel = run_sweep(sweep, workers=2)
        assert parallel.records == sequential.records

    def test_parallel_vectorized_engine(self):
        sweep = SweepSpec(
            base=_spec(
                {
                    "mechanism": {"kind": "standard", "epsilon": 0.5},
                    "users": 8,
                    "providers": 3,
                    "config": {"k": 1, "parallel": True},
                }
            ),
            axes=(("users", (6, 8)),),
        )
        assert run_sweep(sweep, workers=2).records == run_sweep(sweep).records

    def test_parallel_mixed_runners_and_topologies(self):
        sweep = SweepSpec(
            base=_spec({"users": 8, "providers": 4, "rounds": 2}),
            points=(
                {"runner": "centralized", "series": "central"},
                {"config.k": 1, "series": "dist"},
                {
                    "topology": "community",
                    "latency": "community",
                    "providers": 4,
                    "series": "topo",
                },
            ),
        )
        assert run_sweep(sweep, workers=3).records == run_sweep(sweep).records

    def test_workers_one_equals_sequential(self):
        sweep = SweepSpec(base=_spec({"users": 5, "providers": 3}), axes=(("seed", (0, 1)),))
        assert run_sweep(sweep, workers=1).records == run_sweep(sweep).records

    def test_invalid_worker_count_rejected(self):
        sweep = SweepSpec(base=_spec({"users": 4, "providers": 3}))
        with pytest.raises(SpecError, match=r"workers"):
            run_sweep(sweep, workers=0)

    def test_worker_error_propagates(self):
        # 'auction_run' rejects executor subsetting only at run time, so the
        # failure happens inside the worker and must cross the process
        # boundary as the original path-precise SpecError.
        sweep = SweepSpec(
            base=_spec({"users": 4, "providers": 3}),
            points=({}, {"runner": "auction_run", "executors": 2}),
        )
        with pytest.raises(SpecError, match=r"executors"):
            run_sweep(sweep, workers=2)

    def test_spec_error_pickles_losslessly(self):
        error = SpecError("config.k", "needs a bigger quorum")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.path == "config.k"
        assert clone.message == "needs a bigger quorum"
        assert str(clone) == str(error)


def _sweep_context(points, rounds=1):
    base = _spec({"users": 4, "providers": 3, "rounds": rounds})
    return SweepContext(SweepSpec(base=base, points=tuple(points)))


def _audit_base():
    return _spec({"users": 6, "providers": 4, "config": {"k": 1}})


def _grid_contexts():
    """One context per grid declaration, each with a multi-group grid."""
    return {
        "sweep": _sweep_context([{"users": 4 + i, "seed": i % 2} for i in range(4)], rounds=3),
        "resilience": AuditContext(
            ResilienceSpec(
                base=_audit_base(), k=1, adversaries=("equivocate", "crash"),
                schedules=("fair", "round_robin"), seeds=(0, 1, 2),
            )
        ),
        "chaos": ChaosContext(
            ChaosSpec(base=_audit_base(), faults=("loss", "duplicate", "reorder"), seeds=(0, 1))
        ),
    }


class TestChunking:
    """Properties of the one chunker (``repro.scenarios.grid.chunk_cells``)."""

    def test_rounds_of_one_point_stay_in_one_chunk(self):
        context = _sweep_context([{"users": 4 + i} for i in range(4)], rounds=3)
        chunks = chunk_cells(context, context.run_order(), workers=8)
        homes = {}
        for number, chunk in enumerate(chunks):
            for point, _instance in chunk:
                homes.setdefault(point, set()).add(number)
        assert sorted(homes) == [0, 1, 2, 3]  # each grid point appears
        assert all(len(numbers) == 1 for numbers in homes.values())  # ...in exactly one chunk
        for chunk in chunks:
            by_point = {}
            for point, instance in chunk:
                by_point.setdefault(point, []).append(instance)
            assert all(instances == [0, 1, 2] for instances in by_point.values())

    def test_single_configuration_grid_still_parallelises(self):
        # Figure-4 shape: one mechanism/workload config for the whole grid
        # would be one cache-key chunk — it must split so workers have work.
        context = _sweep_context([{} for _ in range(6)])
        assert len(chunk_cells(context, context.run_order(), workers=3)) >= 3

    @pytest.mark.parametrize("kind", ["sweep", "resilience", "chaos"])
    def test_single_key_grid_splits_toward_the_chunk_target(self, kind):
        context = _grid_contexts()[kind]
        first = context.run_order()[0]
        one_group = [
            cell for cell in context.run_order()
            if context.group_key(*cell) == context.group_key(*first)
        ]
        units = len({point for point, _instance in one_group})
        chunks = chunk_cells(context, one_group, workers=2)
        assert len(chunks) == min(units, 2 * CHUNKS_PER_WORKER)

    def test_distinct_configurations_group_by_amortisation_key(self):
        context = _sweep_context([{"users": 6, "seed": 0}, {"users": 6, "seed": 1}, {"users": 7, "seed": 0}])
        assert context.group_key(0, 0) != context.group_key(1, 0)
        assert context.group_key(0, 0) == context.group_key(2, 0)

    @pytest.mark.parametrize("kind", ["sweep", "resilience", "chaos"])
    def test_fully_journaled_grids_produce_no_chunks(self, kind):
        assert chunk_cells(_grid_contexts()[kind], [], workers=4) == []

    @pytest.mark.parametrize("kind", ["sweep", "resilience", "chaos"])
    @pytest.mark.parametrize("workers", [1, 3, 16])
    def test_chunks_cover_cells_exactly_once(self, kind, workers):
        context = _grid_contexts()[kind]
        cells = context.run_order()
        chunks = chunk_cells(context, cells, workers=workers)
        flattened = [cell for chunk in chunks for cell in chunk]
        assert sorted(flattened) == sorted(cells)
        assert len(flattened) == len(set(flattened))
        assert all(chunks)  # no empty chunk is ever dispatched
        # A chunk never mixes group keys: whatever it amortises, it shares.
        for chunk in chunks:
            assert len({context.group_key(*cell) for cell in chunk}) == 1


class TestLatencyCache:
    def test_latency_model_built_once_for_all_rounds(self, monkeypatch):
        import repro.scenarios.sweep as sweep_module

        calls = []
        original = sweep_module.build_latency_model

        def counting(spec, topology=None):
            calls.append(spec.latency.kind)
            return original(spec, topology)

        monkeypatch.setattr(sweep_module, "build_latency_model", counting)
        sweep = SweepSpec(
            base=_spec({"users": 5, "providers": 3, "rounds": 3}),
            points=({}, {"users": 6}),
        )
        result = run_sweep(sweep)
        assert len(result.records) == 6
        # One build serves every round of every point with this latency config.
        assert calls == ["constant"]

    def test_same_model_object_serves_all_rounds_of_a_point(self):
        spec = _spec({"users": 5, "providers": 3, "rounds": 3})
        cache = ComponentCache()
        first = cache.latency(spec)
        assert cache.latency(spec) is first
        assert cache.latency(_spec({"users": 6, "providers": 3})) is first  # same config

    def test_community_latency_keyed_by_topology(self):
        base = {
            "users": 8,
            "providers": 4,
            "topology": "community",
            "latency": "community",
        }
        cache = ComponentCache()
        spec_a = _spec(base)
        spec_b = _spec({**base, "seed": 1})  # different topology generation
        model_a = cache.latency(spec_a, cache.topology(spec_a))
        model_b = cache.latency(spec_b, cache.topology(spec_b))
        assert model_a is not model_b
        assert cache.latency(spec_a, cache.topology(spec_a)) is model_a


class TestCanonicalKeys:
    def test_nested_param_order_is_canonicalised(self):
        a = ComponentSpec("custom", {"opts": {"a": 1, "b": [1, 2]}, "z": 3})
        b = ComponentSpec("custom", {"z": 3, "opts": {"b": [1, 2], "a": 1}})
        assert _component_key(a) == _component_key(b)

    def test_different_values_still_miss(self):
        a = ComponentSpec("custom", {"opts": {"a": 1}})
        b = ComponentSpec("custom", {"opts": {"a": 2}})
        assert _component_key(a) != _component_key(b)

    def test_numeric_types_are_not_conflated(self):
        assert _component_key(ComponentSpec("k", {"flag": True})) != _component_key(
            ComponentSpec("k", {"flag": 1})
        )
        assert _component_key(ComponentSpec("k", {"x": 1})) != _component_key(
            ComponentSpec("k", {"x": 1.0})
        )

    def test_mapping_key_types_are_not_conflated(self):
        # Programmatic specs may use non-string nested keys: {2: x} and
        # {"2": x} would reach the factory as different params, so they must
        # not alias to one cached component.
        assert _component_key(ComponentSpec("k", {"w": {2: 0.5}})) != _component_key(
            ComponentSpec("k", {"w": {"2": 0.5}})
        )
        assert _component_key(ComponentSpec("k", {"w": {2: 0.5, "a": 1}})) == _component_key(
            ComponentSpec("k", {"w": {"a": 1, 2: 0.5}})
        )

    def test_nested_param_order_hits_the_component_cache(self):
        from repro.community.workload import DoubleAuctionWorkload

        created = []

        def factory(seed=0, profile=None):
            created.append(profile)
            return DoubleAuctionWorkload(seed=seed)

        WORKLOADS.register("profiled", factory)
        try:
            cache = ComponentCache()
            spec_a = _spec(
                {"users": 4, "providers": 3,
                 "workload": {"kind": "profiled", "profile": {"a": 1, "b": [2]}}}
            )
            spec_b = _spec(
                {"users": 4, "providers": 3,
                 "workload": {"kind": "profiled", "profile": {"b": [2], "a": 1}}}
            )
            # Insertion order of nested params must not silently rebuild the
            # component (and, for mechanisms, drop the solve memo with it).
            assert cache.workload(spec_a) is cache.workload(spec_b)
            assert len(created) == 1
        finally:
            WORKLOADS.unregister("profiled")


_VECTORIZED = {
    "mechanism": {"kind": "standard", "epsilon": 0.5},
    "users": 8,
    "providers": 3,
}


class TestResourceLifecycle:
    def test_close_drops_the_cached_components(self):
        # No mechanism owns resources: closing a cache only forgets what it built.
        spec = _spec(_VECTORIZED)
        cache = ComponentCache()
        first = cache.mechanism(spec)
        assert cache.mechanism(spec) is first
        cache.close()
        cache.close()  # idempotent
        assert cache.mechanism(spec) is not first

    @pytest.mark.parametrize("kind", ["sweep", "resilience", "chaos"])
    def test_chunk_executor_closes_cache_when_point_raises(self, monkeypatch, kind):
        # One worker body for every grid: a cell that raises mid-chunk closes
        # the context and surfaces as ChunkExecutionError — never bare — so
        # the parent can journal what the chunk had finished.
        if kind == "sweep":
            grid, owner, diagnostic = SWEEP_GRID, ComponentCache, "executors"
            spec = SweepSpec(
                base=_spec(_VECTORIZED),
                points=({}, {"users": 4, "runner": "auction_run", "executors": 2}),
            )
        else:
            # An audit's constructor runs every check its spec allows, so no
            # audit spec fails mid-chunk: its second cell raises by hand.
            if kind == "resilience":
                grid, owner = RESILIENCE_GRID, AuditContext
                spec = ResilienceSpec(
                    base=_audit_base(), coalitions=((0,),), adversaries=("equivocate", "crash")
                )
            else:
                grid, owner = CHAOS_GRID, ChaosContext
                spec = ChaosSpec(base=_audit_base(), faults=("loss", "duplicate"))
            diagnostic = "injected failure"
            run_cell = owner.run_cell

            def failing_run_cell(self, point, instance):
                if point == 1:
                    raise SpecError(f"cells[{point}]", diagnostic)
                return run_cell(self, point, instance)

            monkeypatch.setattr(owner, "run_cell", failing_run_cell)
        closed = []
        original_close = owner.close

        def spying_close(self):
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(owner, "close", spying_close)
        with pytest.raises(ChunkExecutionError) as excinfo:
            run_chunk(grid, spec_to_dict(spec), [(0, 0), (1, 0)])
        # The failure wrapper preserves the original diagnostics and the
        # cells completed before the failure (the parent journals those).
        assert diagnostic in excinfo.value.traceback
        assert [(p, i) for p, i, _record in excinfo.value.partial_results] == [(0, 0)]
        assert isinstance(excinfo.value.partial_results[0][2], grid.record_type)
        assert isinstance(excinfo.value.cause, SpecError)  # the typed error rides along
        # The worker body's finally closed its context despite the mid-chunk error.
        assert len(closed) == 1

    @pytest.mark.parametrize("kind", ["sweep", "resilience", "chaos"])
    def test_a_context_whose_spec_fails_a_check_closes_its_cache(self, monkeypatch, kind):
        closed = []
        original_close = ComponentCache.close

        def spying_close(self):
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(ComponentCache, "close", spying_close)
        base = _spec({"users": 4, "providers": 3, "config": {"k": 2}})
        if kind == "sweep":
            make, spec = SweepContext, SweepSpec(base=base)
        elif kind == "resilience":
            make, spec = AuditContext, ResilienceSpec(base=base, coalitions=((0,),))
        else:
            make, spec = ChaosContext, ChaosSpec(base=base, faults=("loss",))
        with pytest.raises(SpecError, match=r"config\.k: .*m=3 executing providers, k=2"):
            make(spec)
        assert len(closed) == 1

    def test_sequential_sweep_closes_mechanisms_on_error(self, monkeypatch):
        closed = []
        original_close = ComponentCache.close

        def spying_close(self):
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(ComponentCache, "close", spying_close)
        sweep = SweepSpec(
            base=_spec({"users": 4, "providers": 3}),
            points=({}, {"runner": "auction_run", "executors": 2}),
        )
        with pytest.raises(SpecError, match=r"executors"):
            run_sweep(sweep)
        assert len(closed) == 1
