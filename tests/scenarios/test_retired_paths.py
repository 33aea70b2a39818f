"""A retired spec path: its retired value is accepted and dropped, any other refused.

``ScenarioSpec.RETIRED`` is the one table of paths a past commit read and
this one does not.  ``measure_compute`` is its row: compute is modelled,
never measured, so ``false`` — what every round now does — is accepted
wherever a spec is read and never reaches a canonical form, a fingerprint or
a journal; any other value is a :class:`SpecError` at its path that names
the last commit which read it.  The two Python keywords kept for callers
that still pass ``measure_compute=False`` accept nothing else.
"""

import json
import pathlib

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.cli import main
from repro.core.framework import DistributedAuctioneer
from repro.scenarios import (
    ChaosSpec,
    ResilienceSpec,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    load_any,
    load_spec,
    parse_assignments,
    spec_fingerprint,
    spec_from_dict,
    spec_to_dict,
    spec_with_overrides,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RETIRED = "retired after commit e3eec74: compute is modelled (ROADMAP item 1)"
SCENARIO = {"mechanism": "double", "users": 6, "providers": 3, "latency": "constant"}


def test_the_table_has_one_row_naming_the_commit():
    assert ScenarioSpec.RETIRED == {
        "measure_compute": (False, "e3eec74", "compute is modelled (ROADMAP item 1)"),
    }


def _write(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ------------------------------------------------------------------ refused --
@pytest.mark.parametrize("value", [True, 0, "false", None], ids=["true", "zero", "string", "null"])
def test_a_scenario_file_naming_another_value_is_refused_at_the_path(tmp_path, value):
    path = _write(tmp_path, {**SCENARIO, "measure_compute": value})
    with pytest.raises(SpecError) as refused:
        load_any(path)
    assert refused.value.path == str(path)
    assert refused.value.message.startswith(f"measure_compute: {RETIRED}; only false is accepted")


def test_a_sweep_base_and_an_audit_base_are_refused_at_base(tmp_path):
    sweep = _write(tmp_path, {"base": {**SCENARIO, "measure_compute": True}}, "sweep.json")
    chaos = _write(
        tmp_path,
        {"base": {**SCENARIO, "measure_compute": True}, "faults": ["loss"]},
        "chaos.json",
    )
    for path, kind in ((sweep, SweepSpec), (chaos, ChaosSpec)):
        with pytest.raises(SpecError, match=rf"^{path}: base\.measure_compute: retired after"):
            load_spec(path, kind)


def test_a_sweep_point_is_refused_at_its_index(tmp_path):
    path = _write(
        tmp_path,
        {"base": SCENARIO, "points": [{"users": 5}, {"users": 6, "measure_compute": True}]},
    )
    with pytest.raises(SpecError, match=rf"^{path}: points\[1\]\.measure_compute: retired"):
        load_any(path)


@pytest.mark.parametrize("values", [[True], [False, True]], ids=["true", "false-and-true"])
def test_a_sweep_axis_is_refused_at_load_at_its_path(tmp_path, values):
    path = _write(tmp_path, {"base": SCENARIO, "axes": {"measure_compute": values, "users": [4]}})
    with pytest.raises(SpecError, match=rf"^{path}: axes\.measure_compute: retired after"):
        load_any(path)


def test_a_set_override_is_refused_at_the_path():
    overrides = parse_assignments(["measure_compute=true"])
    with pytest.raises(SpecError, match=r"^measure_compute: retired after commit e3eec74"):
        spec_with_overrides(spec_from_dict(SCENARIO), overrides)
    sweep = SweepSpec(base=spec_from_dict(SCENARIO))
    with pytest.raises(SpecError, match=r"^measure_compute: retired after commit e3eec74"):
        sweep.with_base_overrides(overrides)
    audit = ResilienceSpec(base=spec_from_dict(SCENARIO))
    with pytest.raises(SpecError, match=r"^base\.measure_compute: retired after commit e3eec74"):
        spec_with_overrides(audit, parse_assignments(["base.measure_compute=true"]))


def test_the_python_keywords_accept_only_false():
    with pytest.raises(SpecError, match=r"^measure_compute: retired after commit e3eec74"):
        ScenarioSpec(measure_compute=True)
    with pytest.raises(ValueError, match=r"retired after commit e3eec74"):
        DistributedAuctioneer(DoubleAuction(), ["p0", "p1", "p2"], measure_compute=True)
    with pytest.raises(ValueError, match=r"retired after commit e3eec74"):
        DistributedAuctioneer(DoubleAuction(), ["p0", "p1", "p2"], measure_compute=0)
    assert ScenarioSpec(measure_compute=False) == ScenarioSpec()
    DistributedAuctioneer(DoubleAuction(), ["p0", "p1", "p2"], measure_compute=False)


# ----------------------------------------------------------------- accepted --
def test_false_is_accepted_everywhere_and_never_written(tmp_path):
    plain = spec_from_dict(SCENARIO)
    via_file = load_any(_write(tmp_path, {**SCENARIO, "measure_compute": False}))
    via_set = spec_with_overrides(plain, parse_assignments(["measure_compute=false"]))
    via_keyword = ScenarioSpec(**{**SCENARIO, "measure_compute": False})
    for spec in (via_file, via_set, via_keyword):
        assert spec == plain
        assert "measure_compute" not in spec_to_dict(spec)
        assert spec_fingerprint(spec) == spec_fingerprint(plain)

    sweep = SweepSpec(base=plain, points=({"users": 5, "measure_compute": False},))
    assert sweep.points == ({"users": 5},)
    assert spec_to_dict(sweep.with_base_overrides({"measure_compute": False})) == spec_to_dict(
        sweep
    )
    assert "measure_compute" not in json.dumps(spec_to_dict(sweep))


def test_an_axis_of_false_is_dropped_from_the_sweep(tmp_path):
    plain = spec_from_dict({"base": SCENARIO, "axes": {"users": [4, 5]}}, SweepSpec)
    axis = {"base": SCENARIO, "axes": {"measure_compute": [False], "users": [4, 5]}}
    for sweep in (spec_from_dict(axis, SweepSpec), load_any(_write(tmp_path, axis))):
        assert sweep == plain
        assert spec_to_dict(sweep)["axes"] == {"users": [4, 5]}
        assert spec_fingerprint(sweep) == spec_fingerprint(plain)
        assert sweep.expand() == [{"users": 4}, {"users": 5}]
    only = {"base": SCENARIO, "axes": {"measure_compute": [False, False]}}
    only = spec_from_dict(only, SweepSpec)
    assert only.axes == () and only.scenarios() == [spec_from_dict(SCENARIO)]


# ---------------------------------------------------------------------- CLI --
@pytest.mark.parametrize(
    "argv, path",
    [
        (["sweep", "--spec", "examples/specs/fig4_quick.json", "--set", "measure_compute=true",
          "--output", "{out}"], "measure_compute"),
        (["run", "--set", "measure_compute=true", "--trace", "{out}", "--metrics", "{out}.json"],
         "measure_compute"),
        (["sweep", "--spec", "{points}", "--output", "{out}"],
         "{points}: points[1].measure_compute"),
        (["chaos", "--spec", "examples/specs/chaos.toml", "--set", "base.measure_compute=true",
          "--output", "{out}"], "base.measure_compute"),
    ],
    ids=["sweep-set", "run-set", "sweep-point", "chaos-set"],
)
def test_the_cli_exits_2_and_writes_nothing(argv, path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    points = _write(
        tmp_path, {"base": SCENARIO, "points": [{}, {"measure_compute": True}]}, "points.json"
    )
    out = tmp_path / "out.jsonl"
    names = {"out": out, "points": points}
    assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {path.format(**names)}: {RETIRED}; only false is accepted, got true\n"
    )
    assert sorted(tmp_path.iterdir()) == [points]
