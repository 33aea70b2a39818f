"""Tests for the scenario spec tree: parsing, validation, overrides."""

import pytest

from repro.scenarios.spec import (
    BidderSpec,
    ComponentSpec,
    ConfigSpec,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    apply_overrides,
    parse_assignments,
    spec_from_dict,
    spec_to_dict,
    spec_with_overrides,
)


class TestComponentSpec:
    def test_bare_string_is_kind(self):
        component = ComponentSpec.from_value("double", "mechanism")
        assert component == ComponentSpec("double")
        assert component.to_value() == "double"

    def test_table_with_params(self):
        component = ComponentSpec.from_value(
            {"kind": "standard", "epsilon": 0.5}, "mechanism"
        )
        assert component.kind == "standard"
        assert component.params == {"epsilon": 0.5}
        assert component.to_value() == {"kind": "standard", "epsilon": 0.5}

    def test_missing_kind_names_path(self):
        with pytest.raises(SpecError, match=r"mechanism: expected a 'kind'"):
            ComponentSpec.from_value({"epsilon": 0.5}, "mechanism")

    def test_wrong_type_names_path(self):
        with pytest.raises(SpecError, match=r"latency: expected a string or a table"):
            ComponentSpec.from_value(3, "latency")


class TestScenarioSpecValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.mechanism.kind == "double"
        assert spec.runner == "distributed"

    def test_constructor_coerces_convenience_forms(self):
        spec = ScenarioSpec(
            mechanism="standard",
            workload={"kind": "vr_sessions", "session_fraction": 0.2},
            config={"k": 2},
            runner="auction_run",
            bidders=({"kind": "silent", "indices": [0]},),
        )
        assert spec.mechanism == ComponentSpec("standard")
        assert spec.workload.params == {"session_fraction": 0.2}
        assert spec.config == ConfigSpec(k=2)
        assert spec.bidders[0] == BidderSpec("silent", indices=(0,))

    def test_bidder_selection_scalars_get_precise_errors(self):
        with pytest.raises(SpecError, match=r"bidders\[0\]\.users: expected a list"):
            spec_from_dict(
                {"runner": "auction_run", "bidders": [{"kind": "silent", "users": 3}]}
            )
        with pytest.raises(SpecError, match=r"bidders\[0\]\.indices: expected a list"):
            spec_from_dict(
                {"runner": "auction_run", "bidders": [{"kind": "silent", "indices": "u1"}]}
            )

    def test_bidder_params_may_not_shadow_reserved_keys(self):
        with pytest.raises(SpecError, match=r"reserved keys"):
            BidderSpec("scaling", indices=(0,), params={"users": 3})

    def test_bidder_error_paths_are_not_double_prefixed(self):
        with pytest.raises(SpecError) as info:
            spec_from_dict({"runner": "auction_run", "bidders": [{"kind": "silent"}]})
        assert str(info.value).count("bidders") == 1
        assert str(info.value).startswith("bidders[0]: ")

    def test_unknown_key_is_named(self):
        with pytest.raises(SpecError, match=r"mechansim: unknown scenario key"):
            spec_from_dict({"mechansim": "double"})

    def test_unknown_runner(self):
        with pytest.raises(SpecError, match=r"runner: unknown runner 'quantum'"):
            spec_from_dict({"runner": "quantum"})

    def test_unknown_engine(self):
        with pytest.raises(SpecError, match=r"engine: unknown engine 'warp'"):
            spec_from_dict({"engine": "warp"})

    def test_executors_bounds(self):
        with pytest.raises(SpecError, match=r"executors"):
            spec_from_dict({"providers": 4, "executors": 5})

    def test_bidders_require_auction_run(self):
        with pytest.raises(SpecError, match=r"bidders: .*auction_run"):
            spec_from_dict({"bidders": [{"kind": "silent", "indices": [0]}]})

    def test_community_latency_requires_topology(self):
        with pytest.raises(SpecError, match=r"latency: .*topology"):
            spec_from_dict({"latency": "community"})

    def test_bad_config_value_names_path(self):
        with pytest.raises(SpecError, match=r"config"):
            spec_from_dict({"config": {"k": -1}})

    def test_unknown_config_key_is_named(self):
        with pytest.raises(SpecError, match=r"config\.kk: unknown configuration key"):
            spec_from_dict({"config": {"kk": 2}})

    def test_type_errors_are_precise(self):
        with pytest.raises(SpecError, match=r"users: expected an integer, got str"):
            spec_from_dict({"users": "many"})
        with pytest.raises(SpecError, match=r"users: expected an integer, got a boolean"):
            spec_from_dict({"users": True})

    def test_bidder_entry_needs_selection(self):
        with pytest.raises(SpecError, match=r"bidders\[0\]"):
            spec_from_dict({"runner": "auction_run", "bidders": [{"kind": "silent"}]})

    def test_default_workload_follows_mechanism(self):
        assert ScenarioSpec().effective_workload().kind == "double"
        standard = spec_from_dict({"mechanism": "standard"})
        assert standard.effective_workload().kind == "standard"

    def test_default_workload_unknown_mechanism_errors(self):
        spec = spec_from_dict({"mechanism": "mystery"})
        with pytest.raises(SpecError, match=r"workload: no default workload"):
            spec.effective_workload()

    def test_default_series_labels(self):
        assert spec_from_dict({"runner": "centralized"}).default_series() == "centralised"
        assert spec_from_dict({"config": {"k": 2}}).default_series() == "distributed k=2"
        parallel = spec_from_dict(
            {"config": {"k": 1, "parallel": True, "num_groups": 4}}
        )
        assert parallel.default_series() == "p=4 (distributed, k=1)"
        assert spec_from_dict({"series": "mine"}).default_series() == "mine"


class TestRoundTrip:
    def _rich_spec(self):
        return spec_from_dict(
            {
                "name": "rich",
                "mechanism": {"kind": "standard", "epsilon": 0.5},
                "engine": "vectorized",
                "workload": {"kind": "vr_sessions", "session_fraction": 0.4},
                "users": 24,
                "providers": 6,
                "executors": 5,
                "runner": "distributed",
                "config": {"k": 2, "parallel": True, "num_groups": 2},
                "latency": {"kind": "constant", "seconds": 0.002},
                "rounds": 3,
                "seed": 11,
                "deadline": 2.0,
                "measure_compute": False,
                "series": "custom",
            }
        )

    def test_dict_round_trip_is_lossless(self):
        spec = self._rich_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_dict_round_trip_default_spec(self):
        spec = ScenarioSpec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_no_none_values_in_serialized_form(self):
        def no_none(value):
            if isinstance(value, dict):
                return all(no_none(v) for v in value.values())
            if isinstance(value, list):
                return all(no_none(v) for v in value)
            return value is not None

        assert no_none(spec_to_dict(self._rich_spec()))
        assert no_none(spec_to_dict(ScenarioSpec()))

    def test_bidders_round_trip(self):
        spec = spec_from_dict(
            {
                "runner": "auction_run",
                "bidders": [
                    {"kind": "scaling", "indices": [0, 2], "factor": 0.5},
                    {"kind": "silent", "users": ["u0001"]},
                ],
            }
        )
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec
        assert again.bidders[0].params == {"factor": 0.5}


class TestOverrides:
    def test_parse_assignments_json_and_strings(self):
        overrides = parse_assignments(
            ["users=100", "config.parallel=true", "mechanism.epsilon=0.5", "name=vr run"]
        )
        assert overrides == {
            "users": 100,
            "config.parallel": True,
            "mechanism.epsilon": 0.5,
            "name": "vr run",
        }

    def test_parse_assignments_rejects_missing_equals(self):
        with pytest.raises(SpecError, match=r"--set"):
            parse_assignments(["users"])

    def test_apply_overrides_creates_tables(self):
        data = apply_overrides({}, {"config.k": 2, "users": 9})
        assert data == {"config": {"k": 2}, "users": 9}

    def test_apply_overrides_normalises_component_shorthand(self):
        data = apply_overrides({"mechanism": "standard"}, {"mechanism.epsilon": 0.5})
        assert data["mechanism"] == {"kind": "standard", "epsilon": 0.5}

    def test_apply_overrides_refuses_scalar_traversal(self):
        with pytest.raises(SpecError, match=r"users"):
            apply_overrides({"users": 5}, {"users.deep": 1})

    def test_spec_with_overrides_revalidates(self):
        spec = ScenarioSpec()
        with pytest.raises(SpecError, match=r"runner"):
            spec_with_overrides(spec, {"runner": "bogus"})
        assert spec_with_overrides(spec, {"users": 7}).users == 7


class TestSweepSpec:
    def test_points_and_axes_are_exclusive(self):
        with pytest.raises(SpecError, match=r"points"):
            SweepSpec(points=({"users": 1},), axes=(("users", (1, 2)),))

    def test_axes_expand_as_product_first_axis_slowest(self):
        sweep = SweepSpec(axes=(("users", (10, 20)), ("config.k", (1, 2))))
        assert sweep.expand() == [
            {"users": 10, "config.k": 1},
            {"users": 10, "config.k": 2},
            {"users": 20, "config.k": 1},
            {"users": 20, "config.k": 2},
        ]

    def test_empty_sweep_is_single_base_point(self):
        assert SweepSpec().expand() == [{}]

    def test_scenarios_apply_overrides_in_order(self):
        sweep = SweepSpec(points=({"users": 5, "providers": 3}, {"users": 6, "providers": 3}))
        users = [spec.users for spec in sweep.scenarios()]
        assert users == [5, 6]

    def test_sweep_dict_round_trip(self):
        sweep = SweepSpec(
            base=ScenarioSpec(users=9, providers=3),
            name="grid",
            axes=(("users", (3, 6)), ("seed", (0, 1))),
        )
        assert spec_from_dict(spec_to_dict(sweep), SweepSpec) == sweep
        pointy = SweepSpec(base=ScenarioSpec(), points=({"users": 4, "series": "a"},))
        assert spec_from_dict(spec_to_dict(pointy), SweepSpec) == pointy

    def test_sweep_unknown_key_is_named(self):
        with pytest.raises(SpecError, match=r"grid: unknown sweep key"):
            spec_from_dict({"grid": {}}, SweepSpec)

    def test_sweep_empty_axis_rejected(self):
        with pytest.raises(SpecError, match=r"axes\.users"):
            spec_from_dict({"axes": {"users": []}}, SweepSpec)
