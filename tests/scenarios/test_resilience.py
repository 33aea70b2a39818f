"""Resilience-audit subsystem: specs, records, registry, store and executor."""

import dataclasses
import json

import pytest

from repro.scenarios import (
    ADVERSARIES,
    SCHEDULERS,
    AdversarySpec,
    ResilienceRecord,
    ResilienceSpec,
    ScenarioSpec,
    SpecError,
    dump_spec,
    load_spec,
    run_resilience,
    spec_fingerprint,
    spec_from_dict,
    spec_to_dict,
    spec_with_overrides,
)
from repro.scenarios.resilience import DEFAULT_ADVERSARIES
from repro.scenarios.store import ResultsStore


def _spec(**overrides):
    data = {
        "name": "audit",
        "base": {
            "mechanism": "double",
            "users": 8,
            "providers": 4,
            "config": {"k": 1},
            "latency": "constant",
            "measure_compute": False,
        },
        "k": 1,
        "adversaries": ["equivocate", {"kind": "tamper_output", "bonus": 5.0}],
        "schedules": ["fair"],
        "seeds": [0],
    }
    data.update(overrides)
    return spec_from_dict(data, ResilienceSpec)


class TestRegistries:
    def test_builtin_adversaries_registered(self):
        for kind in ("equivocate", "drop_messages", "crash", "tamper_output", "forge_bids"):
            assert kind in ADVERSARIES

    def test_builtin_schedules_registered(self):
        for kind in ("fair", "round_robin", "random", "adversarial"):
            assert kind in SCHEDULERS

    def test_unknown_adversary_kind_is_path_precise(self):
        from repro.scenarios.spec import ComponentSpec

        with pytest.raises(SpecError) as excinfo:
            ADVERSARIES.create(ComponentSpec("nope"), "adversaries[0]")
        assert excinfo.value.path == "adversaries[0]"
        assert "equivocate" in str(excinfo.value)  # lists what IS available

    def test_bad_adversary_parameter_is_path_precise(self):
        from repro.scenarios.spec import ComponentSpec

        with pytest.raises(SpecError) as excinfo:
            ADVERSARIES.create(ComponentSpec("crash", {"bogus": 1}), "adversaries[2]")
        assert excinfo.value.path == "adversaries[2]"


class TestSpecParsing:
    def test_round_trip_is_lossless(self):
        spec = _spec()
        assert spec_from_dict(spec_to_dict(spec), ResilienceSpec) == spec

    def test_file_round_trip_json_and_toml(self, tmp_path):
        spec = _spec(coalitions=[[0], ["p01", "p02"]])
        for name in ("audit.json", "audit.toml"):
            path = tmp_path / name
            dump_spec(spec, path)
            assert load_spec(path, ResilienceSpec) == spec

    def test_unknown_key_is_path_precise(self):
        with pytest.raises(SpecError) as excinfo:
            _spec(adversariez=["equivocate"])
        assert "adversariez" in str(excinfo.value)

    def test_unknown_base_key_names_base_path(self):
        with pytest.raises(SpecError) as excinfo:
            spec_from_dict({"base": {"userz": 5}}, ResilienceSpec)
        assert excinfo.value.path.startswith("base.")

    def test_adversary_entry_errors_carry_index(self):
        with pytest.raises(SpecError) as excinfo:
            _spec(adversaries=["equivocate", {"bonus": 5.0}])
        assert excinfo.value.path == "adversaries[1]"

    def test_non_distributed_base_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            _spec(base={"mechanism": "double", "runner": "centralized"})
        assert excinfo.value.path == "base.runner"

    def test_coalition_selector_validation(self):
        with pytest.raises(SpecError) as excinfo:
            _spec(coalitions=[[0, 0]])
        assert excinfo.value.path == "coalitions[0]"
        with pytest.raises(SpecError) as excinfo:
            _spec(coalitions=[[-1]])
        assert excinfo.value.path == "coalitions[0][0]"

    def test_k_must_leave_an_honest_executor(self):
        with pytest.raises(SpecError) as excinfo:
            _spec(k=4)
        assert excinfo.value.path == "k"

    def test_empty_grid_is_rejected_not_vacuously_resilient(self):
        # A base config with k=0 and no explicit audit k would expand to zero
        # coalitions — and a 0-cell audit would exit 0 as a "resilient" CI
        # gate without checking anything.
        with pytest.raises(SpecError) as excinfo:
            _spec(
                k=None,
                base={"mechanism": "double", "users": 8, "providers": 4,
                      "config": {"k": 0}, "measure_compute": False},
            )
        assert excinfo.value.path == "k"
        assert "empty" in excinfo.value.message

    def test_unknown_adversary_fails_before_any_simulation(self, tmp_path):
        spec = _spec(adversaries=["equivocate", "not_registered"])
        journal = tmp_path / "audit.jsonl"
        with pytest.raises(SpecError) as excinfo:
            run_resilience(spec, store=journal)
        assert excinfo.value.path == "adversaries[1]"
        assert not journal.exists()  # failed up front, before the journal opened

    def test_default_adversary_library(self):
        spec = _spec()
        spec = dataclasses.replace(spec, adversaries=())
        kinds = [adversary.kind for adversary in spec.effective_adversaries()]
        assert kinds == [kind for kind, _ in DEFAULT_ADVERSARIES]

    def test_generated_coalitions_sizes_first_and_capped(self):
        spec = _spec(k=2, base={"mechanism": "double", "users": 8, "providers": 5,
                                "config": {"k": 2}, "measure_compute": False})
        selectors = spec.coalition_selectors()
        assert len(selectors) == 5 + 10  # sizes 1 then 2 over 5 executors
        assert selectors[0] == (0,) and selectors[5] == (0, 1)
        capped = dataclasses.replace(spec, max_coalitions=7)
        assert len(capped.coalition_selectors()) == 7

    def test_overrides_dig_into_base_and_audit_fields(self):
        spec = _spec()
        updated = spec_with_overrides(spec, {"base.users": 30, "k": 2, "seeds": [1, 2]})
        assert updated.base.users == 30
        assert updated.k == 2
        assert updated.seeds == (1, 2)
        assert updated.base.providers == spec.base.providers

    def test_fingerprint_tracks_spec_identity(self):
        spec = _spec()
        assert spec_fingerprint(spec) == spec_fingerprint(_spec())
        assert spec_fingerprint(spec) != spec_fingerprint(_spec(k=None))


class TestScheduleParameters:
    """A schedule's parameters are checked, never coerced into another schedule."""

    @pytest.mark.parametrize(
        "schedule, message",
        [
            (
                {"kind": "round_robin", "order": "p01"},
                "order must be a list of node ids, got the string 'p01'",
            ),
            (
                {"kind": "adversarial", "targets": ["p00"], "max_deferrals": 2.7},
                "max_deferrals must be an integer, got 2.7",
            ),
            (
                {"kind": "adversarial", "targets": ["p00"], "max_deferrals": True},
                "max_deferrals must be an integer, got True",
            ),
        ],
        ids=["order-string", "deferrals-float", "deferrals-bool"],
    )
    def test_a_bad_parameter_fails_before_the_journal(self, schedule, message, tmp_path):
        journal = tmp_path / "audit.jsonl"
        with pytest.raises(SpecError) as excinfo:
            run_resilience(_spec(schedules=["fair", schedule]), store=journal)
        assert excinfo.value.path == "schedules[1]"
        assert excinfo.value.message.endswith(message)
        assert not journal.exists()

    @pytest.mark.parametrize(
        "schedule, path, named",
        [
            ({"kind": "adversarial", "targets": ["p01", "p09"]}, "schedules[1].targets", "p09"),
            ({"kind": "adversarial", "targets": "p09"}, "schedules[1].targets", "p09"),
            ({"kind": "round_robin", "order": ["p02", "zz"]}, "schedules[1].order", "zz"),
        ],
        ids=["targets", "target-of-one", "order"],
    )
    def test_a_node_that_does_not_execute_is_refused(self, schedule, path, named):
        with pytest.raises(SpecError) as excinfo:
            run_resilience(_spec(schedules=["fair", schedule]))
        assert excinfo.value.path == path
        assert excinfo.value.message == (
            f"unknown provider id {named!r}; executing providers: p00, p01, p02, p03"
        )

    def test_schedules_that_name_executors_run(self):
        schedules = [
            {"kind": "adversarial", "targets": ["p01"], "max_deferrals": 2},
            {"kind": "round_robin", "order": ["p02", "p00"]},
        ]
        result = run_resilience(_spec(schedules=schedules))
        assert result.is_clean()
        assert {record.schedule for record in result.records} == {"adversarial", "round_robin"}


class TestAdversarySpec:
    def test_display_label(self):
        assert AdversarySpec("crash").display_label == "crash"
        assert AdversarySpec("crash", {"max_sends": 2}).display_label == "crash(max_sends=2)"
        assert AdversarySpec("crash", {}, "boom").display_label == "boom"

    def test_reserved_keys_rejected(self):
        with pytest.raises(SpecError):
            AdversarySpec("crash", {"label": "x"})


class TestRecord:
    def _record(self):
        return ResilienceRecord(
            name="audit",
            mechanism="double-auction-waterfill",
            schedule="fair",
            adversary="equivocate",
            label="equivocate",
            coalition=("p01", "p00"),
            users=8,
            providers=4,
            executors=4,
            k=1,
            audit_k=2,
            instance=0,
            seed=7,
            honest_aborted=False,
            deviating_aborted=True,
            altered_result=False,
            profitable=False,
            max_gain=-0.125,
            member_gains={"p01": -0.125, "p00": -0.25},
            honest_messages=100,
            deviating_messages=90,
            honest_elapsed=0.5,
            deviating_elapsed=0.4,
        )

    def test_round_trip_is_lossless(self):
        record = self._record()
        assert ResilienceRecord.from_dict(record.to_dict()) == record
        rehydrated = ResilienceRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rehydrated == record

    def test_members_and_coalition_are_canonically_ordered(self):
        record = self._record()
        assert list(record.member_gains) == ["p00", "p01"]
        assert record.coalition == ("p00", "p01")
        assert record.coalition_size == 2

    def test_verdict_property(self):
        record = self._record()
        assert record.resilient
        assert not dataclasses.replace(record, profitable=True).resilient
        assert not dataclasses.replace(record, altered_result=True).resilient


class TestStoreIntegration:
    def test_journal_resume_serves_all_cells(self, tmp_path):
        spec = _spec()
        path = tmp_path / "audit.jsonl"
        first = run_resilience(spec, store=path)
        assert first.executed == len(first.records)
        resumed = run_resilience(spec, store=path, resume=True)
        assert resumed.executed == 0
        assert resumed.resumed == len(first.records)
        assert resumed.records == first.records

    def test_journal_rejects_a_different_audit(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        run_resilience(_spec(), store=path)
        with pytest.raises(SpecError):
            run_resilience(_spec(k=None), store=path, resume=True)

    def test_store_rehydrates_resilience_records(self, tmp_path):
        from repro.scenarios.resilience import ResilienceRecord as RecordType

        spec = _spec()
        path = tmp_path / "audit.jsonl"
        result = run_resilience(spec, store=path)
        store = ResultsStore(path, record_type=RecordType)
        _manifest, completed = store.read(
            expected_fingerprint=spec_fingerprint(spec)
        )
        assert len(completed) == len(result.records)
        assert all(isinstance(record, RecordType) for record in completed.values())


class TestSimulationFacade:
    def test_audit_resilience_defaults(self):
        spec = ScenarioSpec(
            mechanism="double", users=8, providers=4, config={"k": 1},
            latency="constant", measure_compute=False,
        )
        from repro.scenarios import Simulation

        with Simulation(spec) as sim:
            result = sim.audit_resilience(adversaries=("equivocate",))
        # k defaults to the config's k=1: one cell per executor.
        assert len(result.records) == 4
        assert result.name == "scenario-resilience"
        assert {r.adversary for r in result.records} == {"equivocate"}
