"""The one spec walker: round trips and rejections generated from the fields.

``spec_from_dict`` / ``spec_to_dict`` derive a spec's file form from its
dataclass fields, so these tests derive their cases the same way: values of
all four kinds are built by Hypothesis and pushed through JSON and TOML, and
the wrong-type cases are enumerated with ``dataclasses.fields`` — a field
added tomorrow is covered without a new test.
"""

import dataclasses
import json
import string
import tomllib
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.net.faults import RecoveryPolicy
from repro.scenarios import (
    AdversarySpec,
    BidderSpec,
    ChaosSpec,
    ComponentSpec,
    ConfigSpec,
    FaultSpec,
    ResilienceSpec,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    dumps_toml,
    spec_from_dict,
    spec_to_dict,
    spec_with_overrides,
)

# ------------------------------------------------------------------ strategies --
_names = st.text(alphabet=string.ascii_letters + string.digits + "-_ ", min_size=1, max_size=10)
_kinds = st.sampled_from(["double", "standard", "wan", "constant", "loss", "crash", "fair"])
_ints = st.integers(min_value=0, max_value=2**31)
_scalars = st.one_of(
    _ints, st.booleans(), _names, st.floats(allow_nan=False, allow_infinity=False, width=32)
)
_param_keys = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6).filter(
    lambda key: key not in {"kind", "label", "users", "indices"}
)
_params = st.dictionaries(_param_keys, _scalars, max_size=3)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


#: Shorthand (no parameters: dumps as a bare string) and table forms alike.
_components = st.builds(ComponentSpec, _kinds, _params)


def _labelled(cls):
    return st.builds(cls, _kinds, _params, _optional(_names))


_bidders = st.one_of(
    st.builds(BidderSpec, _kinds, users=st.lists(_names, min_size=1, max_size=3), params=_params),
    st.builds(BidderSpec, _kinds, indices=st.lists(_ints, min_size=1, max_size=3), params=_params),
    st.builds(
        BidderSpec,
        _kinds,
        users=st.lists(_names, min_size=1, max_size=2),
        indices=st.lists(_ints, min_size=1, max_size=2),
    ),
)

_configs = st.builds(
    ConfigSpec,
    k=st.integers(min_value=1, max_value=3),
    parallel=st.booleans(),
    num_groups=_optional(st.integers(min_value=1, max_value=4)),
    agreement_mode=st.sampled_from(["batched", "per_label", "per_bit"]),
    use_common_coin=st.booleans(),
    require_quorum=st.booleans(),
    round_timeout=_optional(st.floats(min_value=0.001, max_value=10.0)),
)


@st.composite
def scenarios(draw, runners=("distributed", "centralized", "auction_run")):
    providers = draw(st.integers(min_value=2, max_value=9))
    runner = draw(st.sampled_from(runners))
    return ScenarioSpec(
        name=draw(_names),
        mechanism=draw(_components),
        engine=draw(_optional(st.sampled_from(["reference", "vectorized"]))),
        workload=draw(_optional(_components)),
        users=draw(st.integers(min_value=1, max_value=500)),
        providers=providers,
        executors=draw(_optional(st.integers(min_value=2, max_value=providers))),
        runner=runner,
        config=draw(_configs),
        latency=draw(_components),
        topology=draw(_optional(_components)),
        bidders=draw(st.lists(_bidders, max_size=3)) if runner == "auction_run" else (),
        rounds=draw(st.integers(min_value=0, max_value=5)),
        seed=draw(_ints),
        deadline=draw(st.floats(min_value=0.01, max_value=100.0)),
        measure_compute=draw(st.booleans()),
        series=draw(_optional(_names)),
    )


_override_keys = st.sampled_from(["users", "seed", "config.k", "series", "mechanism.epsilon"])
_points = st.lists(st.dictionaries(_override_keys, _scalars, max_size=3), min_size=1, max_size=3)
_axes = st.dictionaries(
    _override_keys, st.lists(_ints, min_size=1, max_size=3), min_size=1, max_size=2
)

sweeps = st.one_of(
    st.builds(SweepSpec, base=scenarios(), name=_names),
    st.builds(SweepSpec, base=scenarios(), name=_names, points=_points),
    st.builds(SweepSpec, base=scenarios(), name=_names, axes=_axes),
)

#: Coalitions mixing provider ids and executor indices (distinct within one).
_coalitions = st.lists(
    st.lists(st.one_of(_names, _ints), min_size=1, max_size=3, unique=True), max_size=3
)

resiliences = st.builds(
    ResilienceSpec,
    name=_names,
    base=scenarios(runners=("distributed",)),
    k=_optional(st.just(1)),
    coalitions=_coalitions,
    max_coalitions=_optional(st.integers(min_value=1, max_value=9)),
    adversaries=st.lists(st.one_of(_kinds, _labelled(AdversarySpec)), max_size=3),
    schedules=st.lists(st.one_of(_kinds, _components), min_size=1, max_size=3),
    seeds=st.lists(_ints, max_size=3),
)

_recoveries = st.builds(
    RecoveryPolicy,
    enabled=st.booleans(),
    max_retries=st.integers(min_value=0, max_value=9),
    base_backoff=st.floats(min_value=0.0, max_value=1.0),
    backoff_factor=st.floats(min_value=1.0, max_value=4.0),
)

chaoses = st.builds(
    ChaosSpec,
    name=_names,
    base=scenarios(runners=("distributed",)),
    faults=st.lists(st.one_of(_kinds, _labelled(FaultSpec)), min_size=1, max_size=3),
    recovery=_optional(_recoveries),
    seeds=st.lists(_ints, max_size=3),
)


# ------------------------------------------------------------------ round trips --
def _holds_none(value) -> bool:
    if isinstance(value, dict):
        return any(_holds_none(item) for item in value.values())
    if isinstance(value, list):
        return any(_holds_none(item) for item in value)
    return value is None


@pytest.mark.parametrize(
    "strategy", [scenarios(), sweeps, resiliences, chaoses], ids=["scenario", "sweep", "resilience", "chaos"]
)
def test_every_kind_round_trips_through_json_and_toml(strategy):
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=strategy)
    def check(spec):
        _round_trips(spec)

    check()


def _round_trips(spec):
    data = spec_to_dict(spec)
    assert not _holds_none(data)
    assert spec_from_dict(data, type(spec)) == spec
    assert spec_from_dict(json.loads(json.dumps(data)), type(spec)) == spec
    assert spec_from_dict(tomllib.loads(dumps_toml(data)), type(spec)) == spec


# ------------------------------------------------------- field-generated rejection --
#: A value of the wrong type for each scalar annotation — bools for numbers
#: and numbers for bools on purpose: ``True`` is an ``int`` to ``isinstance``.
_WRONG = {str: [5, True], int: ["5", True, 1.5], float: ["x", True], bool: ["no", 0]}


def _scalar_fields(cls):
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if typing.get_origin(hint) is typing.Union:
            (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if hint in _WRONG:
            for wrong in _WRONG[hint]:
                yield pytest.param(cls, field.name, wrong, id=f"{cls.__name__}.{field.name}={wrong!r}")


#: class -> (the enclosing spec to parse, the table its fields sit in, their prefix).
_HOSTS = {
    ScenarioSpec: (ScenarioSpec, lambda table: table, ""),
    ConfigSpec: (ScenarioSpec, lambda table: {"config": table}, "config."),
    SweepSpec: (SweepSpec, lambda table: table, ""),
    ResilienceSpec: (ResilienceSpec, lambda table: table, ""),
    ChaosSpec: (ChaosSpec, lambda table: {"faults": ["loss"], **table}, ""),
    RecoveryPolicy: (ChaosSpec, lambda table: {"faults": ["loss"], "recovery": table}, "recovery."),
}
_CASES = [case for cls in _HOSTS for case in _scalar_fields(cls)]


@pytest.mark.parametrize("cls, name, wrong", _CASES)
def test_wrong_type_in_a_file_table_names_the_field(cls, name, wrong):
    host, wrap, prefix = _HOSTS[cls]
    with pytest.raises(SpecError) as info:
        spec_from_dict(wrap({name: wrong}), host)
    assert info.value.path == prefix + name
    assert info.value.message.startswith("expected ")


@pytest.mark.parametrize("cls, name, wrong", _CASES)
def test_wrong_type_in_an_override_names_the_field(cls, name, wrong):
    host, wrap, prefix = _HOSTS[cls]
    valid = spec_from_dict(wrap({}), host)
    with pytest.raises(SpecError) as info:
        spec_with_overrides(valid, {prefix + name: wrong})
    assert info.value.path == prefix + name


@pytest.mark.parametrize(
    "cls, name, wrong", [case for case in _CASES if case.values[0] is not RecoveryPolicy]
)
def test_wrong_type_in_a_constructor_names_the_field(cls, name, wrong):
    required = {"faults": ("loss",)} if cls is ChaosSpec else {}
    with pytest.raises(SpecError) as info:
        cls(**{**required, name: wrong})
    assert info.value.path == name


# ---------------------------------------------------------------- the closed holes --
class TestConfigIsTypedLikeEveryOtherTable:
    """``--set config.parallel=no`` used to run the parallel allocator."""

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("config.parallel=no", "config.parallel: expected a boolean, got str"),
            ("config.k=true", "config.k: expected an integer, got a boolean"),
            ("config.num_groups=2.5", "config.num_groups: expected an integer, got float"),
            ("config.use_common_coin=0", "config.use_common_coin: expected a boolean, got int"),
        ],
    )
    def test_cli_exits_2_naming_the_field(self, assignment, message, capsys):
        assert main(["run", "--set", assignment]) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestPathPrefixes:
    def test_a_sweeps_base_errors_carry_the_prefix_like_the_audits(self):
        for kind in (SweepSpec, ResilienceSpec, ChaosSpec):
            with pytest.raises(
                SpecError, match=r"^base\.users: expected an integer, got str$"
            ):
                spec_from_dict({"base": {"users": "x"}}, kind)

    def test_prefixes_nest_to_any_depth(self):
        with pytest.raises(SpecError, match=r"^base\.config\.kk: unknown configuration key"):
            spec_from_dict({"base": {"config": {"kk": 1}}}, SweepSpec)
        with pytest.raises(SpecError, match=r"^base\.bidders\[1\]\.users: expected a list"):
            spec_from_dict(
                {
                    "base": {
                        "runner": "auction_run",
                        "bidders": [
                            {"kind": "silent", "indices": [0]},
                            {"kind": "silent", "users": 3},
                        ],
                    }
                },
                SweepSpec,
            )
        with pytest.raises(SpecError, match=r"^base\.config: k must be non-negative"):
            spec_from_dict({"base": {"config": {"k": -1}}, "faults": ["loss"]}, ChaosSpec)

    def test_a_scenarios_own_errors_and_base_overrides_stay_unprefixed(self):
        with pytest.raises(SpecError, match=r"^users: expected an integer, got str$"):
            spec_from_dict({"users": "x"})
        with pytest.raises(SpecError, match=r"^users: expected an integer, got str$"):
            SweepSpec().with_base_overrides({"users": "x"})


class TestConstructorsAreHeldToTheSameTypes:
    def test_scalars(self):
        with pytest.raises(SpecError, match=r"^users: expected an integer, got str$"):
            ScenarioSpec(users="5")
        with pytest.raises(SpecError, match=r"^seed: expected an integer, got float$"):
            ScenarioSpec(seed=1.5)

    def test_seeds_are_rejected_not_truncated(self):
        with pytest.raises(SpecError, match=r"^seeds\[0\]: expected an integer, got float$"):
            ChaosSpec(faults=("loss",), seeds=(1.7,))
        with pytest.raises(SpecError, match=r"^seeds\[1\]: expected an integer, got a boolean$"):
            ResilienceSpec(seeds=(0, True))

    def test_the_checks_the_parsers_made_survive(self):
        with pytest.raises(SpecError, match=r"^axes\.users: axis value list may not be empty"):
            SweepSpec(axes=(("users", ()),))
        with pytest.raises(SpecError, match=r"^coalitions\[0\]: coalition members must be distinct"):
            ResilienceSpec(coalitions=((0, 0),))
        with pytest.raises(SpecError, match=r"^coalitions\[0\]\[1\]: executor indices must be non"):
            ResilienceSpec(coalitions=((0, -1),))
        with pytest.raises(SpecError, match=r"^faults\[0\]\.label: fault label must be a string"):
            ChaosSpec(faults=({"kind": "loss", "label": 3},))
        with pytest.raises(SpecError, match=r"^adversaries: adversary parameters may not use the reserved"):
            AdversarySpec("crash", {"label": "x"})
        with pytest.raises(SpecError, match=r"^points: a sweep may define 'points' or 'axes'"):
            spec_from_dict({"points": [{"users": 1}], "axes": {"users": [1]}}, SweepSpec)
