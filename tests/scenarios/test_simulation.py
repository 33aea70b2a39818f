"""Tests for the scenario runner, sweeps over a scenario and the registries."""

import dataclasses

import pytest

from repro.auctions.decomposable import DecomposableMechanism
from repro.core import config
from repro.scenarios import (
    LATENCIES,
    MECHANISMS,
    WORKLOADS,
    ComponentSpec,
    RunRecord,
    SpecError,
    render_records,
    render_series,
    run_scenario,
    run_sweep,
    spec_from_dict,
)
from repro.scenarios import runner
from repro.scenarios.io import dump_spec, load_spec
from repro.scenarios.spec import SweepSpec


def _deterministic(data):
    """A spec dict on constant latency (every record is deterministic)."""
    base = {"latency": "constant"}
    base.update(data)
    return spec_from_dict(base)


class TestRunners:
    def test_distributed_run_record(self):
        spec = _deterministic({"mechanism": "double", "users": 10, "providers": 4, "seed": 2})
        record = run_scenario(spec)
        assert record.runner == "distributed"
        assert record.mechanism == "double-auction-waterfill"
        assert record.messages > 0
        assert not record.aborted
        assert record.winners > 0
        assert record.elapsed_seconds > 0  # constant latency still advances clocks

    def test_centralized_run_record(self):
        spec = _deterministic(
            {"mechanism": "double", "users": 10, "providers": 4, "runner": "centralized"}
        )
        record = run_scenario(spec)
        assert record.runner == "centralized"
        assert record.messages == 0
        assert record.series == "centralised"

    def test_auction_run_with_adversarial_bidders(self):
        spec = _deterministic(
            {
                "mechanism": "double",
                "users": 8,
                "providers": 4,
                "runner": "auction_run",
                "config": {"k": 1},
                "bidders": [
                    {"kind": "silent", "indices": [0]},
                    {"kind": "inconsistent", "indices": [1]},
                ],
                "seed": 5,
            }
        )
        record = run_scenario(spec)
        assert not record.aborted
        honest = dataclasses.replace(spec, bidders=())
        honest_record = run_scenario(honest)
        # The silent bidder is neutralised; honest outcome differs from adversarial.
        assert record.messages != honest_record.messages or record.winners <= honest_record.winners

    def test_executors_subset_protocol(self):
        spec = _deterministic(
            {"mechanism": "double", "users": 10, "providers": 8, "executors": 3}
        )
        record = run_scenario(spec)
        assert record.executors == 3
        full = run_scenario(dataclasses.replace(spec, executors=None))
        assert full.executors == 8
        assert full.messages > record.messages

    def test_executors_ignored_and_unreported_for_centralized(self):
        spec = _deterministic(
            {"mechanism": "double", "users": 8, "providers": 8, "executors": 3,
             "runner": "centralized"}
        )
        record = run_scenario(spec)
        # The trusted auctioneer always sees all asks; the record must say so.
        assert record.executors == 8

    def test_executors_rejected_for_auction_run(self):
        spec = _deterministic(
            {"users": 6, "providers": 4, "executors": 3, "runner": "auction_run"}
        )
        with pytest.raises(SpecError, match=r"executors"):
            run_scenario(spec)

    def test_topology_scenario_uses_gateways(self):
        spec = _deterministic(
            {
                "mechanism": "double",
                "users": 10,
                "providers": 5,
                "topology": "community",
                "latency": "community",
                "config": {"k": 1},
            }
        )
        record = run_scenario(spec)
        assert record.providers == 5
        assert not record.aborted

    def test_vr_workload_runs_standard_auction(self):
        spec = _deterministic(
            {
                "mechanism": {"kind": "standard", "epsilon": 0.5},
                "workload": {"kind": "vr_sessions", "session_fraction": 0.5},
                "users": 12,
                "providers": 4,
                "seed": 9,
            }
        )
        record = run_scenario(spec)
        assert not record.aborted
        assert 0 < record.winners < 12  # scarce capacity: some but not all users win

    def test_unknown_kind_error_lists_available(self):
        spec = _deterministic({"mechanism": "mystery", "workload": "double"})
        with pytest.raises(SpecError, match=r"mechanism: unknown mechanism kind 'mystery'"):
            run_scenario(spec)

    def test_bad_factory_params_name_path(self):
        spec = _deterministic({"mechanism": {"kind": "standard", "epsilon": -1.0}})
        with pytest.raises(SpecError, match=r"mechanism: invalid parameters"):
            run_scenario(spec)

    @pytest.mark.parametrize("runner_kind", ["distributed", "auction_run"])
    @pytest.mark.parametrize(
        "mechanism, name",
        [("double", "double-auction-waterfill"), ("greedy", "greedy-pay-your-bid")],
    )
    def test_parallel_needs_a_mechanism_that_decomposes(self, mechanism, name, runner_kind):
        spec = _deterministic(
            {
                "mechanism": mechanism,
                "users": 10,
                "providers": 4,
                "runner": runner_kind,
                "config": {"parallel": True, "num_groups": 2},
            }
        )
        with pytest.raises(SpecError) as error:
            run_scenario(spec)
        assert error.value.path == "config.parallel"
        assert error.value.message == (
            f"{name!r} does not decompose into Algorithm 1's allocation and payments; "
            "the parallel allocator runs only the mechanism kinds that do: standard, vcg"
        )

    def test_the_kinds_named_are_the_kinds_that_decompose(self):
        decompose = [
            kind
            for kind in MECHANISMS.available()
            if isinstance(
                runner.build_mechanism(_deterministic({"mechanism": kind})), DecomposableMechanism
            )
        ]
        assert decompose == list(config._DECOMPOSABLE_KINDS)

    def test_overlapping_bidder_entries_rejected(self):
        spec = _deterministic(
            {
                "users": 4,
                "providers": 3,
                "runner": "auction_run",
                "bidders": [
                    {"kind": "silent", "indices": [0]},
                    {"kind": "scaling", "users": ["u0000"], "factor": 2.0},
                ],
            }
        )
        with pytest.raises(SpecError, match=r"more than one bidder entry"):
            run_scenario(spec)

    def test_bidder_index_out_of_range(self):
        spec = _deterministic(
            {
                "users": 4,
                "providers": 3,
                "runner": "auction_run",
                "bidders": [{"kind": "silent", "indices": [10]}],
            }
        )
        with pytest.raises(SpecError, match=r"bidders\[0\]\.indices"):
            run_scenario(spec)


class TestDeterminism:
    def test_same_spec_same_record(self):
        spec = _deterministic(
            {"mechanism": {"kind": "standard", "epsilon": 0.5}, "users": 8, "providers": 4}
        )
        assert run_scenario(spec) == run_scenario(spec)

    @pytest.mark.parametrize("mechanism", ["double", "standard"])
    def test_a_centralised_round_reads_zero_seconds(self, mechanism):
        # Compute is modelled and no mechanism declares its work yet: the
        # trusted auctioneer's round takes no modelled time at all.
        spec = _deterministic(
            {"mechanism": mechanism, "users": 8, "providers": 4, "runner": "centralized"}
        )
        first = run_scenario(spec)
        assert first == run_scenario(spec)
        assert first.elapsed_seconds == 0.0

    def test_engines_bit_identical_through_specs(self, reference_standard):
        spec = _deterministic(
            {
                "mechanism": {"kind": "standard", "epsilon": 0.5},
                "users": 10,
                "providers": 4,
                "seed": 6,
            }
        )
        with reference_standard():
            reference = run_scenario(spec)
        vectorized = run_scenario(spec)
        assert (reference.winners, reference.total_paid, reference.total_received) == (
            vectorized.winners,
            vectorized.total_paid,
            vectorized.total_received,
        )

    def test_batch_equals_repeated_runs(self):
        spec = _deterministic(
            {"mechanism": "double", "users": 8, "providers": 4, "rounds": 3, "seed": 2}
        )
        batch = run_sweep(SweepSpec(base=spec))
        singles = [run_scenario(spec, instance) for instance in range(3)]
        assert batch.records == singles
        assert not any(record.aborted for record in batch.records)


class TestSweeps:
    def test_sweep_axes(self):
        spec = _deterministic({"mechanism": "double", "users": 6, "providers": 4})
        result = run_sweep(SweepSpec(base=spec, axes={"users": [4, 6], "seed": [0, 1]}))
        assert [record.users for record in result.records] == [4, 4, 6, 6]
        assert [record.seed for record in result.records] == [0, 1, 0, 1]

    def test_sweep_rounds_expand_per_point(self):
        spec = _deterministic(
            {"mechanism": "double", "users": 5, "providers": 3, "rounds": 2}
        )
        result = run_sweep(SweepSpec(base=spec, points=({"users": 4}, {"users": 5})))
        assert [(r.users, r.instance) for r in result.records] == [
            (4, 0), (4, 1), (5, 0), (5, 1),
        ]
        # A scenario is a one-point sweep, so its sweep is its batch run.
        batch = [run_scenario(spec, instance) for instance in range(3)]
        assert run_sweep(SweepSpec(base=spec, points=[{"rounds": 3}])).records == batch
        as_sweep = SweepSpec(base=spec).with_base_overrides({"rounds": 3})
        assert run_sweep(as_sweep).records == batch

    def test_sweep_json_export_shape(self):
        import json

        spec = _deterministic({"mechanism": "double", "users": 4, "providers": 3})
        result = run_sweep(SweepSpec(base=spec, points=[{"series": "only"}], name="tiny"))
        data = json.loads(result.to_json())
        assert (data["kind"], data["name"], data["clean"]) == ("sweep", "tiny", True)
        assert len(data["records"]) == 1
        assert data["records"][0]["series"] == "only"
        assert data["base"]["users"] == 4

    def test_sweep_is_deterministic(self):
        spec = _deterministic({"mechanism": "double", "users": 5, "providers": 3})
        sweep = SweepSpec(base=spec, axes=(("users", (4, 5)),))
        assert run_sweep(sweep).records == run_sweep(sweep).records


class TestSweepRendering:
    """The two text views ``repro-auction sweep`` prints."""

    def _records(self):
        def record(series, users, seconds, messages=0, size=0):
            return RunRecord(
                name="fig4", series=series, runner="distributed", mechanism="double",
                engine=None, users=users, providers=8, executors=3, k=1, parallel=False,
                instance=0, seed=0, elapsed_seconds=seconds, messages=messages,
                bytes_transferred=size, aborted=False, winners=0, total_paid=0.0,
                total_received=0.0,
            )

        return [
            record("centralised", 200, 0.02),
            record("distributed k=1", 100, 0.05, 42, 1000),
            record("centralised", 100, 0.01),
        ]

    def test_record_table(self):
        assert render_records("fig4", self._records()).splitlines() == [
            "figure  series           users  seconds  messages  bytes  aborted",
            "------  ---------------  -----  -------  --------  -----  -------",
            "fig4    centralised      200    0.0200   0         0      False  ",
            "fig4    distributed k=1  100    0.0500   42        1000   False  ",
            "fig4    centralised      100    0.0100   0         0      False  ",
        ]
        assert render_records("fig4", []) == "(no data)"

    def test_series_listing_groups_and_sorts(self):
        assert render_series(self._records()).splitlines() == [
            "centralised:",
            "  n=  100     0.010 s",
            "  n=  200     0.020 s",
            "distributed k=1:",
            "  n=  100     0.050 s",
        ]


class TestRegistryExtension:
    def test_wan_latency_entry_is_bandwidth_aware(self):
        # The model both figure sweeps name: transmission time grows with size,
        # which is what makes Figure 4's overhead grow with the user count.
        import random

        model = LATENCIES.create(ComponentSpec("wan"), "latency")
        small = model.delay("a", "b", 100, random.Random(0))
        large = model.delay("a", "b", 10**6, random.Random(0))
        assert large > small

    def test_register_create_unregister(self):
        from repro.net.latency import ConstantLatencyModel

        LATENCIES.register("crawl", lambda: ConstantLatencyModel(1.0))
        try:
            spec = _deterministic(
                {"mechanism": "double", "users": 4, "providers": 3, "latency": "crawl"}
            )
            record = run_scenario(spec)
            assert record.elapsed_seconds > 1.0
        finally:
            LATENCIES.unregister("crawl")
        with pytest.raises(SpecError, match=r"unknown latency model kind 'crawl'"):
            run_scenario(
                _deterministic(
                    {"mechanism": "double", "users": 4, "providers": 3, "latency": "crawl"}
                )
            )

    def test_shadowing_builtin_kind_raises(self):
        with pytest.raises(ValueError, match=r"already registered"):
            WORKLOADS.register("double", lambda **kw: None)

    @pytest.mark.parametrize("kind", ["", None, 7])
    def test_a_kind_no_spec_file_could_name_is_rejected_at_registration(self, kind):
        with pytest.raises(ValueError, match=r"non-empty string"):
            WORKLOADS.register(kind, lambda **kw: None)
        assert kind not in WORKLOADS.available()

    def test_custom_workload_reachable_from_spec_file(self, tmp_path):
        from repro.community.workload import DoubleAuctionWorkload

        WORKLOADS.register("halved", lambda seed=0: DoubleAuctionWorkload(
            capacity_low=0.25, capacity_high=0.75, seed=seed
        ))
        try:
            spec = _deterministic(
                {"mechanism": "double", "workload": "halved", "users": 6, "providers": 3}
            )
            path = tmp_path / "custom.toml"
            dump_spec(spec, path)
            assert run_scenario(load_spec(path)) == run_scenario(spec)
        finally:
            WORKLOADS.unregister("halved")
