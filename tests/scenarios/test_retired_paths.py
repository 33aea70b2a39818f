"""A retired spec path: its retired value is accepted and dropped, any other refused.

A spec class's ``RETIRED`` table holds the paths a past commit read and this
one does not (``spec.retired_rows()`` lists them all, dotted).  Five rows:

* ``measure_compute``: compute is modelled, never measured, so ``false`` —
  what every round now does — is accepted;
* ``engine``: the ``standard`` kind always builds the vectorized engine (the
  reference class is only the test oracle), so ``"vectorized"`` is accepted;
* ``config.use_common_coin`` and ``config.require_quorum`` (``ConfigSpec``'s
  rows): the coin runs exactly when ``A`` is randomized and ``m > 2k`` is a
  rule, so ``true`` is accepted for each;
* ``config.agreement_mode``: the bid agreement has one form, whose batch
  carries each bid's 128 bits, so ``"batched"`` is accepted.

A sweep point or axis names the ``config`` rows by their dotted path.

A retired path's accepted value is taken wherever a spec is read and never
reaches a canonical form, a fingerprint or a journal; any other value is a
:class:`SpecError` at its path that names the last commit which read it.
The Python keywords kept for callers that still pass the accepted value
(``measure_compute=False``, ``AuctionRun(engine=None)``) accept nothing else.
"""

import json
import pathlib
import re

import pytest

from repro.auctions.double_auction import DoubleAuction
from repro.cli import main
from repro.community.workload import DoubleAuctionWorkload
from repro.core.framework import DistributedAuctioneer
from repro.runtime.auction_run import AuctionRun
from repro.scenarios import (
    ChaosSpec,
    ConfigSpec,
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
from repro.scenarios.spec import retired_rows

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RETIRED = "retired after commit e3eec74: compute is modelled (ROADMAP item 1)"
SCENARIO = {"mechanism": "double", "users": 6, "providers": 3, "latency": "constant"}

#: Retired path -> (its accepted value, a refused value, the refusal after ``path: ``).
ROWS = {
    "measure_compute": (False, True, f"{RETIRED}; only false is accepted"),
    "engine": (
        "vectorized",
        "reference",
        "retired after commit 1b436d7: one engine; the reference class is the test oracle; "
        'only "vectorized" is accepted',
    ),
    "config.use_common_coin": (
        True,
        False,
        "retired after commit fc23d76: the common coin runs exactly when A is randomized; "
        "only true is accepted",
    ),
    "config.require_quorum": (
        True,
        False,
        "retired after commit fc23d76: m > 2k is a rule of the rational consensus; "
        "only true is accepted",
    ),
    "config.agreement_mode": (
        "batched",
        "per_bit",
        "retired after commit da19b2d: one agreement: the batch carries each bid's 128 bits; "
        'only "batched" is accepted',
    ),
}
KEYS = list(ROWS)


def _accepted(key):
    return ROWS[key][0]


def _refused(key):
    return ROWS[key][1]


def _refusal(key):
    """The message a refused value at ``key`` starts with."""
    return f"{key}: {ROWS[key][2]}"


def _spelled(value):
    """``value`` as ``--set`` spells it."""
    return value if isinstance(value, str) else json.dumps(value)


def _set(key, value):
    return f"{key}={_spelled(value)}"


def _nested(key, value):
    """``key = value`` as a spec file writes it: ``config.k`` inside a ``config`` table."""
    *tables, leaf = key.split(".")
    data = {leaf: value}
    for table in reversed(tables):
        data = {table: data}
    return data


def _at(path):
    """A regex matching ``path`` literally."""
    return re.escape(path)


def test_the_table_has_one_row_per_retired_path_naming_the_commit():
    assert ScenarioSpec.RETIRED == {
        "measure_compute": (False, "e3eec74", "compute is modelled (ROADMAP item 1)"),
        "engine": ("vectorized", "1b436d7", "one engine; the reference class is the test oracle"),
    }
    assert ConfigSpec.RETIRED == {
        "use_common_coin": (True, "fc23d76", "the common coin runs exactly when A is randomized"),
        "require_quorum": (True, "fc23d76", "m > 2k is a rule of the rational consensus"),
        "agreement_mode": (
            "batched",
            "da19b2d",
            "one agreement: the batch carries each bid's 128 bits",
        ),
    }
    assert list(retired_rows()) == KEYS


def _write(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ------------------------------------------------------------------ refused --
@pytest.mark.parametrize(
    "key, value",
    [
        ("measure_compute", True),
        ("measure_compute", 0),
        ("measure_compute", "false"),
        ("measure_compute", None),
        ("engine", "reference"),
        ("engine", "Vectorized"),
        ("engine", None),
        ("config.use_common_coin", False),
        ("config.use_common_coin", 1),
        ("config.require_quorum", False),
        ("config.require_quorum", "true"),
        ("config.agreement_mode", "per_bit"),
        ("config.agreement_mode", "per_label"),
        ("config.agreement_mode", "Batched"),
        ("config.agreement_mode", None),
    ],
    ids=[
        "true", "zero", "string", "null", "engine-reference", "engine-case", "engine-null",
        "coin-false", "coin-one", "quorum-false", "quorum-string",
        "agreement-per-bit", "agreement-per-label", "agreement-case", "agreement-null",
    ],
)
def test_a_scenario_file_naming_another_value_is_refused_at_the_path(tmp_path, key, value):
    path = _write(tmp_path, {**SCENARIO, **_nested(key, value)})
    with pytest.raises(SpecError) as refused:
        load_any(path)
    assert refused.value.path == str(path)
    assert refused.value.message.startswith(_refusal(key))


@pytest.mark.parametrize("key", KEYS)
def test_a_sweep_base_and_an_audit_base_are_refused_at_base(tmp_path, key):
    base = {**SCENARIO, **_nested(key, _refused(key))}
    sweep = _write(tmp_path, {"base": base}, "sweep.json")
    chaos = _write(tmp_path, {"base": base, "faults": ["loss"]}, "chaos.json")
    resilience = _write(tmp_path, {"base": base}, "resilience.json")
    for path, kind in ((sweep, SweepSpec), (chaos, ChaosSpec), (resilience, ResilienceSpec)):
        with pytest.raises(SpecError, match=rf"^{path}: {_at(f'base.{key}')}: retired after"):
            load_spec(path, kind)


@pytest.mark.parametrize("key", KEYS)
def test_a_sweep_point_is_refused_at_its_index(tmp_path, key):
    path = _write(
        tmp_path,
        {"base": SCENARIO, "points": [{"users": 5}, {"users": 6, key: _refused(key)}]},
    )
    with pytest.raises(SpecError, match=rf"^{path}: {_at(f'points[1].{key}')}: retired"):
        load_any(path)


@pytest.mark.parametrize("both", [False, True], ids=["refused", "accepted-and-refused"])
@pytest.mark.parametrize("key", KEYS)
def test_a_sweep_axis_is_refused_at_load_at_its_path(tmp_path, key, both):
    values = [_accepted(key), _refused(key)] if both else [_refused(key)]
    path = _write(tmp_path, {"base": SCENARIO, "axes": {key: values, "users": [4]}})
    with pytest.raises(SpecError, match=rf"^{path}: {_at(f'axes.{key}')}: retired after"):
        load_any(path)


@pytest.mark.parametrize("key", KEYS)
def test_a_set_override_is_refused_at_the_path(key):
    overrides = parse_assignments([_set(key, _refused(key))])
    with pytest.raises(SpecError, match=rf"^{_at(key)}: retired after commit"):
        spec_with_overrides(spec_from_dict(SCENARIO), overrides)
    sweep = SweepSpec(base=spec_from_dict(SCENARIO))
    with pytest.raises(SpecError, match=rf"^{_at(key)}: retired after commit"):
        sweep.with_base_overrides(overrides)
    audit = ResilienceSpec(base=spec_from_dict(SCENARIO))
    with pytest.raises(SpecError, match=rf"^{_at(f'base.{key}')}: retired after commit"):
        spec_with_overrides(audit, parse_assignments([_set(f"base.{key}", _refused(key))]))


def test_the_python_keywords_accept_only_false():
    with pytest.raises(SpecError, match=r"^measure_compute: retired after commit e3eec74"):
        ScenarioSpec(measure_compute=True)
    with pytest.raises(ValueError, match=r"retired after commit e3eec74"):
        DistributedAuctioneer(DoubleAuction(), ["p0", "p1", "p2"], measure_compute=True)
    with pytest.raises(ValueError, match=r"retired after commit e3eec74"):
        DistributedAuctioneer(DoubleAuction(), ["p0", "p1", "p2"], measure_compute=0)
    assert ScenarioSpec(measure_compute=False) == ScenarioSpec()
    DistributedAuctioneer(DoubleAuction(), ["p0", "p1", "p2"], measure_compute=False)


def test_the_auction_run_keyword_accepts_only_none():
    bids = DoubleAuctionWorkload(seed=0).generate(6, 3)
    for engine in ("reference", "vectorized", False):
        with pytest.raises(ValueError, match=r"^engine: retired after commit 1b436d7"):
            AuctionRun(bids, DoubleAuction(), engine=engine)
    algorithm = DoubleAuction()
    assert AuctionRun(bids, algorithm, engine=None).algorithm is algorithm
    with pytest.raises(TypeError):
        ScenarioSpec(engine="vectorized")  # a file / override path, not a field


# ----------------------------------------------------------------- accepted --
@pytest.mark.parametrize("key", KEYS)
def test_the_accepted_value_is_taken_everywhere_and_never_written(tmp_path, key):
    leaf = key.rsplit(".", 1)[-1]
    plain = spec_from_dict(SCENARIO)
    via_file = load_any(_write(tmp_path, {**SCENARIO, **_nested(key, _accepted(key))}))
    via_set = spec_with_overrides(plain, parse_assignments([_set(key, _accepted(key))]))
    via_dict = spec_from_dict({**SCENARIO, **_nested(key, _accepted(key))})
    for spec in (via_file, via_set, via_dict):
        assert spec == plain
        assert leaf not in json.dumps(spec_to_dict(spec))
        assert spec_fingerprint(spec) == spec_fingerprint(plain)

    sweep = SweepSpec(base=plain, points=({"users": 5, key: _accepted(key)},))
    assert sweep.points == ({"users": 5},)
    assert spec_to_dict(sweep.with_base_overrides({key: _accepted(key)})) == spec_to_dict(sweep)
    assert leaf not in json.dumps(spec_to_dict(sweep))
    audit = spec_from_dict({"base": {**SCENARIO, **_nested(key, _accepted(key))}}, ResilienceSpec)
    assert audit == ResilienceSpec(base=plain)
    assert spec_fingerprint(audit) == spec_fingerprint(ResilienceSpec(base=plain))


@pytest.mark.parametrize("key", KEYS)
def test_an_axis_of_the_accepted_value_is_dropped_from_the_sweep(tmp_path, key):
    plain = spec_from_dict({"base": SCENARIO, "axes": {"users": [4, 5]}}, SweepSpec)
    axis = {"base": SCENARIO, "axes": {key: [_accepted(key)], "users": [4, 5]}}
    for sweep in (spec_from_dict(axis, SweepSpec), load_any(_write(tmp_path, axis))):
        assert sweep == plain
        assert spec_to_dict(sweep)["axes"] == {"users": [4, 5]}
        assert spec_fingerprint(sweep) == spec_fingerprint(plain)
        assert sweep.expand() == [{"users": 4}, {"users": 5}]
    only = {"base": SCENARIO, "axes": {key: [_accepted(key), _accepted(key)]}}
    only = spec_from_dict(only, SweepSpec)
    assert only.axes == () and only.scenarios() == [spec_from_dict(SCENARIO)]


@pytest.mark.parametrize("key", [key for key in KEYS if key.startswith("config.")])
def test_a_retired_path_inside_a_table_value_is_seen(key):
    # ``{"config": {...}}`` in a point, an axis or an override is the dotted
    # paths it holds: the retired one is dropped, or refused at its own path.
    leaf = key.rsplit(".", 1)[-1]
    plain = spec_from_dict(SCENARIO)
    accepted, refused = ({"k": 1, leaf: value} for value in (_accepted(key), _refused(key)))
    sweep = SweepSpec(base=plain, points=({"users": 5, "config": accepted},))
    assert sweep.points == ({"users": 5, "config.k": 1},)
    assert leaf not in json.dumps(spec_to_dict(sweep))
    axis = SweepSpec(base=plain, axes=(("config", (accepted, {"k": 1})),))
    assert axis.axes == (("config", ({"k": 1}, {"k": 1})),)
    assert spec_with_overrides(plain, {"config": accepted}) == plain
    with pytest.raises(SpecError, match=rf"^{_at(f'points[0].{key}')}: retired after"):
        SweepSpec(base=plain, points=({"config": refused},))
    with pytest.raises(SpecError, match=rf"^{_at(f'axes.{key}')}: retired after"):
        SweepSpec(base=plain, axes=(("config", (refused,)),))
    with pytest.raises(SpecError, match=rf"^{_at(key)}: retired after"):
        spec_with_overrides(plain, {"config": refused})


# ---------------------------------------------------------------------- CLI --
@pytest.mark.parametrize(
    "argv, path",
    [
        (["sweep", "--spec", "examples/specs/fig4_quick.json", "--set", "{key}={refused}",
          "--output", "{out}"], "{key}"),
        (["run", "--set", "{key}={refused}", "--trace", "{out}", "--metrics", "{out}.json"],
         "{key}"),
        (["sweep", "--spec", "{points}", "--output", "{out}"],
         "{points}: points[1].{key}"),
        (["chaos", "--spec", "examples/specs/chaos.toml", "--set", "base.{key}={refused}",
          "--output", "{out}"], "base.{key}"),
        (["resilience", "--spec", "examples/specs/resilience.json",
          "--set", "base.{key}={refused}", "--output", "{out}"], "base.{key}"),
    ],
    ids=["sweep-set", "run-set", "sweep-point", "chaos-set", "resilience-set"],
)
@pytest.mark.parametrize("key", KEYS)
def test_the_cli_exits_2_and_writes_nothing(key, argv, path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    points = _write(
        tmp_path, {"base": SCENARIO, "points": [{}, {key: _refused(key)}]}, "points.json"
    )
    out = tmp_path / "out.jsonl"
    names = {"out": out, "points": points, "key": key, "refused": _spelled(_refused(key))}
    assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {path.format(**names)}: {ROWS[key][2]}, got {json.dumps(_refused(key))}\n"
    )
    assert sorted(tmp_path.iterdir()) == [points]


def test_the_figure5_spec_refuses_the_reference_engine(tmp_path, capsys, monkeypatch):
    # The surface the Figure 5 engine comparison used to run.
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "x.jsonl"
    argv = ["sweep", "--spec", "examples/specs/fig5.toml", "--set", "engine=reference"]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: engine: retired after commit 1b436d7")
    assert not out.exists()
