"""Tests for spec file IO: JSON/TOML round-trips and precise error messages."""

import pytest

from repro.scenarios.io import (
    dump_spec,
    dumps_toml,
    load_any,
    load_spec,
)
from repro.scenarios.spec import ScenarioSpec, SpecError, SweepSpec, spec_from_dict


def _rich_spec():
    return spec_from_dict(
        {
            "name": "rich",
            "mechanism": {"kind": "standard", "epsilon": 0.5},
            "workload": {"kind": "vr_sessions", "session_fraction": 0.25},
            "users": 18,
            "providers": 5,
            "runner": "auction_run",
            "config": {"k": 1},
            "latency": {"kind": "uniform", "low": 0.001, "high": 0.002},
            "bidders": [{"kind": "scaling", "indices": [0], "factor": 2.0}],
            "seed": 4,
        }
    )


class TestFileRoundTrips:
    @pytest.mark.parametrize("extension", ["json", "toml"])
    def test_spec_round_trip(self, tmp_path, extension):
        spec = _rich_spec()
        path = tmp_path / f"spec.{extension}"
        dump_spec(spec, path)
        assert load_spec(path) == spec

    @pytest.mark.parametrize("extension", ["json", "toml"])
    def test_sweep_round_trip(self, tmp_path, extension):
        sweep = SweepSpec(
            base=_rich_spec(),
            name="grid",
            points=({"users": 6, "series": "small"}, {"users": 12, "config.k": 2}),
        )
        path = tmp_path / f"sweep.{extension}"
        dump_spec(sweep, path)
        assert load_spec(path, SweepSpec) == sweep

    @pytest.mark.parametrize("extension", ["json", "toml"])
    def test_load_any_distinguishes_shapes(self, tmp_path, extension):
        spec_path = tmp_path / f"spec.{extension}"
        sweep_path = tmp_path / f"sweep.{extension}"
        dump_spec(_rich_spec(), spec_path)
        dump_spec(SweepSpec(base=ScenarioSpec(), axes=(("users", (2, 3)),)), sweep_path)
        assert isinstance(load_any(spec_path), ScenarioSpec)
        assert isinstance(load_any(sweep_path), SweepSpec)


class TestErrors:
    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(SpecError, match=r"nowhere\.toml: spec file not found"):
            load_spec(tmp_path / "nowhere.toml")

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("users: 3\n")
        with pytest.raises(SpecError, match=r"\.json or \.toml"):
            load_spec(path)

    def test_invalid_toml_syntax(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("users = [1, \n")
        with pytest.raises(SpecError, match=r"broken\.toml: invalid TOML"):
            load_spec(path)

    def test_invalid_json_syntax(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"users\": ")
        with pytest.raises(SpecError, match=r"broken\.json: invalid JSON"):
            load_spec(path)

    def test_semantic_error_carries_file_and_path(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('runner = "quantum"\n')
        with pytest.raises(SpecError, match=r"bad\.toml: runner: unknown runner"):
            load_spec(path)

    def test_unreadable_path_becomes_spec_error(self, tmp_path):
        directory = tmp_path / "dir.toml"
        directory.mkdir()
        with pytest.raises(SpecError, match=r"dir\.toml: cannot read spec file"):
            load_spec(directory)

    def test_non_table_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(SpecError, match=r"expected a table at the top level"):
            load_spec(path)


class TestTomlEmitter:
    def test_quotes_dotted_keys(self):
        text = dumps_toml({"points": [{"config.k": 2}]})
        assert '"config.k" = 2' in text

    def test_preserves_int_float_distinction(self):
        import tomllib

        data = tomllib.loads(dumps_toml({"seed": 1, "deadline": 1.0}))
        assert isinstance(data["seed"], int)
        assert isinstance(data["deadline"], float)

    def test_rejects_non_finite_floats(self):
        with pytest.raises(SpecError):
            dumps_toml({"x": float("nan")})

    def test_rejects_unserializable_values(self):
        with pytest.raises(SpecError):
            dumps_toml({"x": object()})
