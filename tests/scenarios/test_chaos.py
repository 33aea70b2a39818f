"""The chaos audit surface: spec tree, invariants, locks, CLI.

The contracts under test (ISSUE 9, audit surface):

* ``FaultSpec``/``ChaosSpec`` parse from JSON/TOML-shaped tables with
  path-precise errors, round-trip losslessly, and compose with ``--set``
  overrides;
* every cell of a chaos run checks delivery conservation, termination,
  bit-identical replay and (``torn_append``) journal repair-on-resume;
* the **differential lock**: an empty ``FaultPlan`` produces a byte-identical
  ``RunRecord`` JSON to no plan at all, and an unarmed (store-level-only)
  plan leaves the network counters identical to the fault-free run;
* the **determinism lock**: a chaos run — fault journal digest and
  retransmission counters included — replays bit-identically across
  interpreter invocations with different ``PYTHONHASHSEED`` values;
* parallel execution is bit-identical to sequential, journals resume with 0
  new cells, and a poison fault fails the audit fast after journaling the
  cells that finished, so ``--resume`` re-executes exactly the missing ones.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.community.workload import default_provider_ids
from repro.core.framework import DistributedAuctioneer
from repro.net.faults import FaultModel, FaultPlan, RecoveryPolicy
from repro.scenarios.registry import FAULTS
from repro.scenarios import (
    ChaosRecord,
    ChaosSpec,
    FaultSpec,
    ResultsStore,
    ScenarioSpec,
    SpecError,
    dump_spec,
    load_spec,
    run_chaos,
    spec_fingerprint,
    spec_from_dict,
    spec_to_dict,
    spec_with_overrides,
)
from repro.scenarios.runner import (
    build_latency_model,
    build_mechanism,
    build_topology,
    build_workload,
    record_from_outcome,
    resolve_provider_ids,
    run_scenario,
)

_PARENT_PID = os.getpid()
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    # Keep the pool paths parallel (and warning-free) on single-core runners.
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: 64)


def _base_table(**overrides):
    data = {
        "mechanism": "double",
        "users": 6,
        "providers": 3,
        "config": {"k": 1},
        "latency": "constant",
    }
    data.update(overrides)
    return data


def _chaos_table(**overrides):
    data = {
        "name": "test-audit",
        "base": _base_table(),
        "faults": ["loss", {"kind": "loss", "rate": 0.3, "label": "heavy"}],
        "seeds": [0, 1],
    }
    data.update(overrides)
    return data


# ------------------------------------------------------------------ spec tree --
class TestFaultSpec:
    def test_bare_string(self):
        fault = FaultSpec.from_value("loss", "faults[0]")
        assert fault.kind == "loss" and fault.params == {} and fault.label is None
        assert fault.display_label == "loss"
        assert fault.to_value() == "loss"

    def test_table_with_params_and_label(self):
        fault = FaultSpec.from_value(
            {"kind": "loss", "rate": 0.2, "label": "light"}, "faults[0]"
        )
        assert fault.params == {"rate": 0.2} and fault.label == "light"
        assert fault.display_label == "light"
        assert fault.to_value() == {"kind": "loss", "label": "light", "rate": 0.2}

    def test_display_label_sorts_params(self):
        fault = FaultSpec("crash", {"node": "p01", "at": 0.1, "duration": 0.2})
        assert fault.display_label == "crash(at=0.1,duration=0.2,node=p01)"

    def test_missing_kind_is_path_precise(self):
        with pytest.raises(SpecError, match=r"faults\[3\]"):
            FaultSpec.from_value({"rate": 0.5}, "faults[3]")

    def test_wrong_type_is_path_precise(self):
        with pytest.raises(SpecError, match=r"faults\[1\]"):
            FaultSpec.from_value(17, "faults[1]")

    def test_unknown_kind_fails_at_build(self):
        with pytest.raises(SpecError, match=r"faults\[0\].*no-such-fault"):
            FaultSpec("no-such-fault").build("faults[0]")

    def test_bad_params_fail_at_build_with_path(self):
        with pytest.raises(SpecError, match=r"faults\[2\]"):
            FaultSpec("loss", {"rate": 3.0}).build("faults[2]")


class TestChaosSpecParsing:
    def test_round_trip(self):
        spec = spec_from_dict(_chaos_table(recovery={"max_retries": 5}), ChaosSpec)
        assert spec_from_dict(spec_to_dict(spec), ChaosSpec) == spec
        assert spec.recovery.max_retries == 5
        assert spec.effective_seeds() == (0, 1)

    def test_file_round_trip_json_and_toml(self, tmp_path):
        spec = spec_from_dict(_chaos_table(recovery={"enabled": False}), ChaosSpec)
        for name in ("audit.json", "audit.toml"):
            path = tmp_path / name
            dump_spec(spec, path)
            assert load_spec(path, ChaosSpec) == spec

    def test_unknown_key_is_rejected(self):
        with pytest.raises(SpecError, match=r"fautls"):
            spec_from_dict(_chaos_table(fautls=["loss"]), ChaosSpec)

    def test_non_distributed_runner_is_rejected(self):
        table = _chaos_table(base=_base_table(runner="centralized"))
        with pytest.raises(SpecError, match=r"base\.runner"):
            spec_from_dict(table, ChaosSpec)

    def test_empty_fault_grid_is_rejected(self):
        with pytest.raises(SpecError, match=r"faults.*at least one"):
            spec_from_dict(_chaos_table(faults=[]), ChaosSpec)

    def test_recovery_unknown_key_is_path_precise(self):
        with pytest.raises(SpecError, match=r"recovery\.retries"):
            spec_from_dict(_chaos_table(recovery={"retries": 3}), ChaosSpec)

    def test_recovery_invalid_value_is_wrapped(self):
        with pytest.raises(SpecError, match=r"recovery"):
            spec_from_dict(_chaos_table(recovery={"max_retries": -1}), ChaosSpec)

    def test_seeds_must_be_integers(self):
        with pytest.raises(SpecError, match=r"seeds"):
            spec_from_dict(_chaos_table(seeds=[0, "one"]), ChaosSpec)

    def test_defaults_fall_back_to_base_seed_and_policy(self):
        spec = spec_from_dict(_chaos_table(seeds=[], base=_base_table(seed=7)), ChaosSpec)
        assert spec.effective_seeds() == (7,)
        assert spec.effective_recovery() == RecoveryPolicy()

    def test_overrides_compose(self):
        spec = spec_from_dict(_chaos_table(recovery={"max_retries": 3}), ChaosSpec)
        altered = spec_with_overrides(
            spec, {"base.users": 9, "recovery.max_retries": 6}
        )
        assert altered.base.users == 9
        assert altered.recovery.max_retries == 6
        assert spec.base.users == 6  # the original is untouched

    def test_fingerprint_tracks_the_grid(self):
        spec = spec_from_dict(_chaos_table(), ChaosSpec)
        same = spec_from_dict(_chaos_table(), ChaosSpec)
        other = spec_from_dict(_chaos_table(faults=["duplicate"]), ChaosSpec)
        assert spec_fingerprint(spec) == spec_fingerprint(same)
        assert spec_fingerprint(spec) != spec_fingerprint(other)


class TestFaultTargets:
    """A crash or partition names executing providers, or the audit is refused.

    A fault aimed at a node that is not in the round injects nothing, and the
    audit would report clean over cells that perturbed nothing.
    """

    CRASH = {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002}
    PARTITION = {"kind": "partition", "nodes": ["p01"], "at": 0.001, "duration": 0.01}

    def _audit(self, fault, **base):
        return spec_from_dict(
            _chaos_table(faults=["loss", fault], base=_base_table(**base)), ChaosSpec
        )

    @pytest.mark.parametrize(
        "fault, path, named",
        [
            (dict(CRASH, node="p05"), r"faults\[1\]\.node", "p05"),
            (dict(PARTITION, nodes=["p01", "zz"]), r"faults\[1\]\.nodes", "zz"),
            (dict(PARTITION, nodes="zz"), r"faults\[1\]\.nodes", "zz"),
        ],
        ids=["crash", "partition", "partition-of-one"],
    )
    def test_an_unknown_node_is_a_spec_error_before_the_journal(
        self, fault, path, named, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        message = rf"{path}: unknown provider id '{named}'; executing providers: p00, p01, p02$"
        with pytest.raises(SpecError, match=message):
            run_chaos(self._audit(fault), store=str(journal))
        assert not journal.exists()

    def test_a_provider_that_does_not_execute_is_unknown(self):
        spec = self._audit(dict(self.CRASH, node="p02"), executors=2)
        with pytest.raises(SpecError, match=r"'p02'; executing providers: p00, p01$"):
            run_chaos(spec)

    def test_every_seed_resolves_its_own_gateways(self):
        base = {"topology": "community", "latency": "community"}
        scenario = ScenarioSpec(mechanism="double", users=6, providers=3, **base)
        gateways = [
            resolve_provider_ids(seeded, build_topology(seeded))
            for seeded in (spec_with_overrides(scenario, {"seed": seed}) for seed in (0, 1))
        ]
        node = sorted(set(gateways[0]) - set(gateways[1]))[0]
        spec = self._audit(dict(self.CRASH, node=node), **base)
        with pytest.raises(SpecError, match=rf"'{node}'; executing providers: "):
            run_chaos(spec)
        assert run_chaos(spec_with_overrides(spec, {"seeds": [0]})).is_clean()

    @pytest.mark.parametrize("fault", [CRASH, PARTITION], ids=["crash", "partition"])
    def test_an_executing_provider_is_perturbed(self, fault):
        result = run_chaos(self._audit(fault))
        assert result.is_clean()
        assert all(record.faults_injected > 0 for record in result.records[2:])

    def test_the_benchmark_crash_among_five_providers_runs(self):
        result = run_chaos(self._audit(self.CRASH, providers=5, config={"k": 2}))
        assert result.is_clean() and result.records[-1].faults_injected > 0


# ------------------------------------------------------------------ invariants --
class TestChaosInvariants:
    def test_fault_library_is_clean_under_recovery(self):
        spec = spec_from_dict(
            _chaos_table(
                faults=[
                    # an m = 3 double round sends only 18 messages, which the
                    # default 10 % rate delivers whole on seed 0; 30 % loses
                    # and retransmits on both seeds
                    {"kind": "loss", "rate": 0.3},
                    "duplicate",
                    "reorder",
                    # windows sized to the base run's virtual-time span
                    # (~5 ms at constant latency) so both models really fire
                    {"kind": "latency_spike", "at": 0.001, "duration": 0.004, "extra": 0.05},
                    {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002},
                    "torn_append",
                ]
            ),
            ChaosSpec,
        )
        result = run_chaos(spec)
        assert len(result.records) == 12
        assert result.is_clean(), [r.label for r in result.failing]
        lossy = [r for r in result.records if r.fault == "loss"]
        assert all(r.messages_lost > 0 and r.retransmissions > 0 for r in lossy)
        crashy = [r for r in result.records if r.fault == "crash"]
        assert all(r.faults_injected > 0 for r in crashy)  # the window is live
        assert all(
            r.messages_sent
            == r.messages_delivered + r.messages_dropped + r.messages_lost
            for r in result.records
        )
        assert all(len(r.fault_digest) == 64 for r in result.records)

    def test_each_run_hashes_its_journal_once(self, monkeypatch):
        plans = []
        digest = FaultPlan.digest

        def counted(plan):
            plans.append(plan)
            return digest(plan)

        monkeypatch.setattr(FaultPlan, "digest", counted)
        result = run_chaos(spec_from_dict(_chaos_table(), ChaosSpec))
        # 2 faults x 2 seeds = 4 cells, each simulated twice: 8 plans, 8 digests.
        assert len(plans) == 8 and len({id(plan) for plan in plans}) == 8
        # A cell's two runs are adjacent; its record carries the first's digest.
        firsts = sorted(digest(plan) for plan in plans[::2])
        assert sorted(r.fault_digest for r in result.records) == firsts

    def test_record_round_trips_losslessly(self):
        spec = spec_from_dict(_chaos_table(seeds=[0]), ChaosSpec)
        record = run_chaos(spec).records[0]
        assert ChaosRecord.from_dict(record.to_dict()) == record

    def test_result_payload_shape(self):
        result = run_chaos(spec_from_dict(_chaos_table(seeds=[0]), ChaosSpec))
        payload = result.to_dict()
        assert (payload["kind"], payload["name"]) == ("chaos", "test-audit")
        assert payload["clean"] is True
        assert set(payload) == {"kind", "name", "base", "clean", "records"}
        assert len(payload["records"]) == 2

    def test_two_in_process_runs_are_identical(self):
        spec = spec_from_dict(_chaos_table(), ChaosSpec)
        first = run_chaos(spec)
        second = run_chaos(spec)
        assert [r.to_dict() for r in first.records] == [
            r.to_dict() for r in second.records
        ]

    def test_fields_in_keyword_form(self):
        base = spec_from_dict(_base_table())
        result = run_chaos(
            ChaosSpec(
                name="scenario-chaos",
                base=base,
                faults=["loss"],
                recovery={"max_retries": 5},
                seeds=[0, 1],
            )
        )
        assert result.name == "scenario-chaos"
        assert len(result.records) == 2 and result.is_clean()
        assert all(r.max_retries == 5 for r in result.records)


class TestDifferentialLock:
    def test_empty_plan_record_is_byte_identical_to_no_plan(self):
        spec = spec_from_dict(_base_table())
        mechanism = build_mechanism(spec)
        provider_ids = default_provider_ids(spec.providers)
        bids = build_workload(spec).generate(
            spec.users, spec.providers, provider_ids=provider_ids, instance=0
        )

        def run(plan):
            auctioneer = DistributedAuctioneer(
                mechanism,
                providers=provider_ids,
                config=spec.config.to_config(),
                latency_model=build_latency_model(spec, None),
                seed=spec.seed,
                fault_plan=plan,
            )
            report = auctioneer.run_from_bids(bids)
            record = record_from_outcome(
                spec, 0, report.outcome, mechanism, len(provider_ids)
            )
            return json.dumps(record.to_dict(), sort_keys=True)

        assert run(None) == run(FaultPlan())

    def test_unarmed_plan_counters_match_the_fault_free_run(self):
        # torn_append is store-level: the network must not see it at all.
        base = spec_from_dict(_base_table())
        baseline = run_scenario(base).to_dict()
        record = run_chaos(
            spec_from_dict(_chaos_table(faults=["torn_append"], seeds=[0]), ChaosSpec)
        ).records[0]
        assert record.faults_injected == 0 and record.retransmissions == 0
        assert record.messages_delivered == baseline["messages"]
        assert record.elapsed_seconds == baseline["elapsed_seconds"]


# ------------------------------------------------------------------- parallel --
class TestChaosParallel:
    def test_parallel_is_bit_identical_to_sequential(self):
        spec = spec_from_dict(_chaos_table(faults=["loss", "duplicate", "reorder"]), ChaosSpec)
        sequential = run_chaos(spec)
        parallel = run_chaos(spec, workers=2)
        assert [r.to_dict() for r in sequential.records] == [
            r.to_dict() for r in parallel.records
        ]

    def test_journal_resume_executes_zero_new_cells(self, tmp_path):
        spec = spec_from_dict(_chaos_table(), ChaosSpec)
        path = str(tmp_path / "chaos.jsonl")
        first = run_chaos(spec, workers=2, store=path)
        assert first.executed == 4 and first.resumed == 0
        resumed = run_chaos(spec, workers=2, store=path, resume=True)
        assert resumed.executed == 0 and resumed.resumed == 4
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in first.records
        ]

    def test_resume_rejects_a_different_audit(self, tmp_path):
        path = str(tmp_path / "chaos.jsonl")
        run_chaos(spec_from_dict(_chaos_table(), ChaosSpec), store=path)
        with pytest.raises(SpecError, match=r"manifest does not match"):
            run_chaos(
                spec_from_dict(_chaos_table(faults=["duplicate"]), ChaosSpec),
                store=path,
                resume=True,
            )


# ------------------------------------------------------------------ fail-fast --
_POISON = {"armed": True}


class _PoisonFault(FaultModel):
    """Raises while armed — from inside the simulated network's send path."""

    kind = "poison"

    def on_send(self, message, rng):
        if _POISON["armed"]:
            raise RuntimeError("injected poison fault")
        return None


@pytest.fixture
def poison_fault():
    _POISON["armed"] = True
    FAULTS.register("poison", lambda **kw: _PoisonFault(**kw))
    yield
    FAULTS.unregister("poison")


class TestFailFast:
    def test_poison_fault_fails_fast_and_resume_reexecutes_it(self, poison_fault, tmp_path):
        # The recovery lock, on the chaos path: a fault that crashes its
        # worker fails the audit with its own error, the poison cells never
        # reach the journal, and a healed --resume executes exactly the cells
        # the journal lacks.
        spec = spec_from_dict(_chaos_table(faults=["loss", "poison", "duplicate"]), ChaosSpec)
        path = str(tmp_path / "chaos.jsonl")
        with pytest.raises(RuntimeError, match=r"injected poison fault"):
            run_chaos(spec, workers=2, store=path)
        _manifest, journaled = ResultsStore(path, record_type=ChaosRecord).read()
        assert not {(1, 0), (1, 1)} & set(journaled)

        _POISON["armed"] = False  # heal the fault, then resume
        resumed = run_chaos(spec, workers=2, store=path, resume=True)
        assert resumed.executed == 6 - len(journaled)
        assert resumed.resumed == len(journaled)
        assert len(resumed.records) == 6 and resumed.is_clean()

        again = run_chaos(spec, workers=2, store=path, resume=True)
        assert again.executed == 0 and again.resumed == 6


# ----------------------------------------------------------- determinism lock --
#: Runs one chaos audit and prints its canonical record JSON — fault journal
#: digests and retransmission counters included.
_LOCK_SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.scenarios import ChaosSpec, run_chaos, spec_from_dict

spec = spec_from_dict({
    "name": "lock",
    "base": {
        "mechanism": "double", "users": 6, "providers": 3,
        "config": {"k": 1}, "latency": "constant",
    },
    "faults": [
        "loss", "duplicate", "reorder",
        {"kind": "crash", "node": "p01", "at": 0.001, "duration": 0.002},
        "torn_append",
    ],
    "recovery": {"max_retries": 4},
    "seeds": [0, 1],
}, ChaosSpec)
records = [r.to_dict() for r in run_chaos(spec).records]
print(json.dumps(records, sort_keys=True))
"""


class TestDeterminismLock:
    def _run_in_subprocess(self, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", _LOCK_SCRIPT, SRC],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return result.stdout.strip()

    def test_chaos_records_identical_across_hash_seeds(self):
        first = self._run_in_subprocess("0")
        second = self._run_in_subprocess("4242")
        assert first == second
        records = json.loads(first)
        assert all(record["replay_ok"] for record in records)
        assert any(record["retransmissions"] > 0 for record in records)


# ------------------------------------------------------------------------ CLI --
def _spec_file(tmp_path, **overrides):
    path = tmp_path / "chaos.json"
    dump_spec(spec_from_dict(_chaos_table(**overrides), ChaosSpec), path)
    return str(path)


class TestCli:
    def test_chaos_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])

    def test_chaos_grid_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--spec", "a.json", "--workers", "2", "--output", "o.jsonl"]
        )
        assert args.command == "chaos"
        assert args.workers == 2 and args.output == "o.jsonl"
        assert args.resume is False

    def test_quarantine_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["chaos", "--spec", "a.json", "--quarantine"])
        assert excinfo.value.code == 2

    def test_spec_round_trip_text_output(self, tmp_path, capsys):
        assert main(["chaos", "--spec", _spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: clean" in out
        assert "heavy" in out  # the labelled fault row

    def test_json_output_and_overrides(self, tmp_path, capsys):
        code = main(
            [
                "chaos",
                "--spec",
                _spec_file(tmp_path),
                "--set",
                "seeds=[3]",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert [r["seed"] for r in payload["records"]] == [3, 3]

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_chaos_table(faults=["no-such-fault"])))
        assert main(["chaos", "--spec", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_tear_into_the_manifest_is_a_spec_error(self, tmp_path, capsys):
        def audit(drop_bytes):
            path = tmp_path / "torn.json"
            faults = [{"kind": "torn_append", "drop_bytes": drop_bytes}]
            path.write_text(json.dumps(_chaos_table(faults=faults)))
            return main(["chaos", "--spec", str(path)]), capsys.readouterr()

        code, captured = audit(7)
        assert code == 0 and "VERDICT: clean" in captured.out
        code, captured = audit(100000)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: faults[0].drop_bytes: tears 100000 bytes, ")
        assert "record bytes" in captured.err

    def test_store_and_resume_report(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        out = str(tmp_path / "journal.jsonl")
        assert main(["chaos", "--spec", spec, "--output", out]) == 0
        assert "executed 4 new cells" in capsys.readouterr().err
        assert main(["chaos", "--spec", spec, "--output", out, "--resume"]) == 0
        err = capsys.readouterr().err
        assert "reused 4 journaled cells, executed 0 new cells" in err

    def test_poison_fault_propagates_and_resume_completes(self, poison_fault, tmp_path, capsys):
        # Serially the grid runs in order, so the loss cell is journaled
        # before the poison cell raises out of the command.
        spec = _spec_file(tmp_path, faults=["loss", "poison"], seeds=[0])
        out = str(tmp_path / "journal.jsonl")
        with pytest.raises(RuntimeError, match=r"injected poison fault"):
            main(["chaos", "--spec", spec, "--output", out])
        capsys.readouterr()

        _POISON["armed"] = False  # heal the fault, then resume
        assert main(["chaos", "--spec", spec, "--output", out, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "reused 1 journaled cells, executed 1 new cells" in captured.err
        assert "VERDICT: clean" in captured.out
