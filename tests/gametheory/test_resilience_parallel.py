"""Differential proof: the resilience-audit subsystem matches `check_k_resilience`.

Two locks, in the style of ``tests/net/test_event_queue_differential.py``:

* **library vs hand-wired** — for every (mechanism, schedule, seed) the
  declarative audit's records carry exactly the member gains and verdict flags
  that a hand-wired :func:`repro.gametheory.resilience.check_k_resilience`
  sweep computes over the same coalitions and deviations (exact float
  equality, not approx — the audit must not change a single bit of the
  science it promotes);
* **parallel vs sequential** — ``run_resilience(workers=2)`` returns records
  bit-identical to the sequential path, in the same grid order: *full*
  record equality (the virtual clock is modelled).  Chunking (including baseline-group splits) never changes
  a verdict.

Coverage: 2 mechanisms x 2 schedulers x 3 seeds, all in one audit grid per
mechanism so the honest-baseline memoisation is exercised across groups.
"""

import functools

import pytest

from repro.adversary.coalition import Coalition
from repro.adversary.provider_behaviors import (
    EquivocatingProviderNode,
    OutputTamperingProviderNode,
)
from repro.community.workload import default_provider_ids
from repro.core.framework import DistributedAuctioneer
from repro.gametheory.resilience import check_k_resilience
from repro.scenarios import ScenarioSpec
from repro.scenarios.registry import SCHEDULERS
from repro.scenarios.resilience import ResilienceSpec, run_resilience
from repro.scenarios.runner import build_latency_model, build_mechanism, build_workload
from repro.scenarios.spec import ComponentSpec, spec_with_overrides

MECHANISM_KINDS = ("double", "standard")
SCHEDULE_KINDS = ("fair", "round_robin")
SEEDS = (0, 1, 2)
NUM_USERS = 8
NUM_PROVIDERS = 4

#: The deviation library of the differential: (registry form, hand-wired factory).
ADVERSARY_PAIRS = (
    ("equivocate", EquivocatingProviderNode),
    (
        {"kind": "tamper_output", "bonus": 5.0},
        functools.partial(OutputTamperingProviderNode, bonus=5.0),
    ),
)


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    # Pin a big host so the worker policy never degrades these pool tests to
    # the sequential path on single-core CI runners.
    monkeypatch.setattr("repro.scenarios.dispatch.available_cpus", lambda: 64)


def _base_spec(mechanism: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"differential-{mechanism}",
        mechanism=mechanism,
        users=NUM_USERS,
        providers=NUM_PROVIDERS,
        config={"k": 1},
        latency="constant",
        seed=SEEDS[0],
    )


def _audit_spec(mechanism: str) -> ResilienceSpec:
    return ResilienceSpec(
        name=f"differential-{mechanism}",
        base=_base_spec(mechanism),
        k=1,
        adversaries=tuple(registry_form for registry_form, _ in ADVERSARY_PAIRS),
        schedules=SCHEDULE_KINDS,
        seeds=SEEDS,
    )


def _reference_report(mechanism: str, schedule: str, seed: int):
    """Hand-wired check_k_resilience over the same grid slice, ids and order."""
    scenario = spec_with_overrides(_base_spec(mechanism), {"seed": seed})
    workload = build_workload(scenario)
    provider_ids = default_provider_ids(NUM_PROVIDERS)
    bids = workload.generate(NUM_USERS, NUM_PROVIDERS, provider_ids=provider_ids, instance=0)
    auctioneer = DistributedAuctioneer(
        build_mechanism(scenario),
        providers=provider_ids,
        config=scenario.config.to_config(),
        latency_model=build_latency_model(scenario),
        scheduler=SCHEDULERS.create(ComponentSpec(schedule), "schedules"),
        seed=seed,
    )
    coalitions = [
        (f"{provider}:{label}", Coalition.of([provider], factory))
        for provider in provider_ids
        for label, factory in (
            ("equivocate", EquivocatingProviderNode),
            ("tamper_output", functools.partial(OutputTamperingProviderNode, bonus=5.0)),
        )
    ]
    return check_k_resilience(auctioneer, bids, coalitions)


@pytest.mark.parametrize("mechanism", MECHANISM_KINDS)
class TestAuditMatchesCheckKResilience:
    def test_gains_and_verdicts_bit_identical(self, mechanism):
        result = run_resilience(_audit_spec(mechanism))
        # Index audit records by (schedule, seed, coalition, adversary).
        by_cell = {
            (r.schedule, r.seed, r.coalition, r.adversary): r for r in result.records
        }
        assert len(by_cell) == len(result.records)  # grid cells are unique
        checked = 0
        for schedule in SCHEDULE_KINDS:
            for seed in SEEDS:
                reference = _reference_report(mechanism, schedule, seed)
                for outcome in reference.outcomes:
                    provider, adversary = outcome.label.split(":")
                    record = by_cell[(schedule, seed, (provider,), adversary)]
                    # Exact equality: the audit computes the same floats.
                    assert record.member_gains == outcome.member_gains
                    assert record.profitable == outcome.profitable
                    assert record.altered_result == outcome.altered_result
                    assert record.honest_aborted == outcome.honest_outcome.aborted
                    assert record.deviating_aborted == outcome.deviating_outcome.aborted
                    checked += 1
        # 2 schedules x 3 seeds x 4 coalitions x 2 deviations per mechanism.
        assert checked == len(SCHEDULE_KINDS) * len(SEEDS) * NUM_PROVIDERS * len(
            ADVERSARY_PAIRS
        )

    def test_parallel_bit_identical_to_sequential(self, mechanism):
        spec = _audit_spec(mechanism)
        sequential = run_resilience(spec)
        parallel = run_resilience(spec, workers=2)
        # Full record equality, elapsed fields included.
        assert parallel.records == sequential.records
        assert parallel.executed == sequential.executed
        assert [r.to_dict() for r in parallel.records] == [
            r.to_dict() for r in sequential.records
        ]


class TestChunkingInvariance:
    def test_worker_counts_agree(self):
        """More workers than chunks / groups split across chunks: same records."""
        spec = _audit_spec("double")
        baseline = run_resilience(spec)
        for workers in (2, 3, 5):
            assert run_resilience(spec, workers=workers).records == baseline.records

    def test_chunks_cover_cells_exactly_once(self):
        from repro.scenarios.grid import chunk_cells
        from repro.scenarios.resilience import AuditContext

        spec = _audit_spec("double")
        seeds = spec.effective_seeds()
        cells = [
            (point, instance)
            for point in range(len(spec.cells()))
            for instance in range(len(seeds))
        ]
        chunks = chunk_cells(AuditContext(spec), list(cells), workers=3)
        flattened = [cell for chunk in chunks for cell in chunk]
        assert sorted(flattened) == sorted(cells)
        assert len(flattened) == len(set(flattened))
