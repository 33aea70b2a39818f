"""Seed-stability regression: scenario-layer records are pure functions of seeds.

Extends the PR-4 pattern (``tests/net/test_scheduler.py``'s PYTHONHASHSEED
regression) to the scenario layer: every field of :class:`RunRecord` and
:class:`ResilienceRecord` — modelled time included — must be byte-identical

* across two in-process runs (no hidden state leaks between runs), and
* across interpreter invocations with different ``PYTHONHASHSEED`` values
  (no set/dict-iteration order anywhere in the workload, protocol, audit or
  record serialization paths).

Byte-identical means the canonical JSON of the records, which is exactly what
the results journal persists and the resume path compares against.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Runs one tiny scenario and one tiny audit, prints their canonical JSON.
_SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.resilience import ResilienceSpec, run_resilience

spec = ScenarioSpec(
    name="stability", mechanism="double", users=8, providers=4,
    config={"k": 1}, latency="constant", seed=3,
)
run_payload = run_scenario(spec).to_dict()

audit = ResilienceSpec(
    name="stability-audit", base=spec, k=1,
    adversaries=("equivocate", {"kind": "tamper_output", "bonus": 5.0}),
    schedules=("fair", "round_robin"), seeds=(3, 4),
)
audit_payload = [r.to_dict() for r in run_resilience(audit).records]
print(json.dumps({"run": run_payload, "audit": audit_payload}, sort_keys=True))
"""


#: Runs one observed scenario (trace journal + metrics hub) and prints the
#: sha256 of every byte-identity surface: the on-disk journal, the canonical
#: metrics snapshot, and the Chrome-trace export.
_OBS_SCRIPT = """\
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from repro.obs import observe, render_chrome
from repro.scenarios import ScenarioSpec, run_scenario

spec = ScenarioSpec(
    name="obs-stability", mechanism="double", users=8, providers=4,
    config={"k": 1}, latency="constant", seed=3,
)
trace_path = sys.argv[2]
with observe(trace=trace_path, name="obs-stability") as observation:
    run_scenario(spec)
with open(trace_path, "rb") as handle:
    journal = hashlib.sha256(handle.read()).hexdigest()
print(json.dumps({
    "journal": journal,
    "metrics": hashlib.sha256(
        observation.metrics.snapshot_json().encode("utf-8")).hexdigest(),
    "chrome": hashlib.sha256(
        render_chrome(observation.tracer.spans).encode("utf-8")).hexdigest(),
    "spans": len(observation.tracer.spans),
}, sort_keys=True))
"""


def _run_in_subprocess(hash_seed: str, script: str = _SCRIPT, *argv: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", script, SRC, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


class TestSeedStability:
    def test_records_identical_across_in_process_runs(self):
        from repro.scenarios import ScenarioSpec, run_scenario
        from repro.scenarios.resilience import ResilienceSpec, run_resilience

        spec = ScenarioSpec(
            name="stability",
            mechanism="double",
            users=8,
            providers=4,
            config={"k": 1},
            latency="constant",
            seed=3,
        )

        def run_once():
            record = run_scenario(spec)
            audit = ResilienceSpec(
                name="stability-audit",
                base=spec,
                k=1,
                adversaries=("equivocate",),
                schedules=("fair",),
            )
            result = run_resilience(audit)
            return json.dumps(
                {
                    "run": record.to_dict(),
                    "audit": [r.to_dict() for r in result.records],
                },
                sort_keys=True,
            )

        first = run_once()
        second = run_once()
        assert first == second

    def test_records_identical_across_hash_seeds(self):
        first = _run_in_subprocess("1")
        second = _run_in_subprocess("4242")
        assert first  # the scenario actually produced records
        payload = json.loads(first)
        assert payload["audit"], "the audit ran no cells"
        assert not payload["run"]["aborted"]
        assert first == second


class TestTraceStability:
    """The observability plane is on the same bit-identity surface.

    A trace journal, a metrics snapshot and the Chrome export are pure
    functions of the spec: byte-identical across in-process reruns and across
    interpreters with different ``PYTHONHASHSEED`` values.
    """

    def _observed_run(self, trace_path):
        from repro.auctions.engine.pivot import clear_solve_cache
        from repro.obs import observe, render_chrome
        from repro.scenarios import ScenarioSpec, run_scenario

        clear_solve_cache()  # the process-wide memo must not leak across runs
        spec = ScenarioSpec(
            name="obs-stability",
            mechanism="double",
            users=8,
            providers=4,
            config={"k": 1},
            latency="constant",
            seed=3,
        )
        with observe(trace=str(trace_path), name="obs-stability") as observation:
            run_scenario(spec)
        with open(trace_path, "rb") as handle:
            journal = handle.read()
        return (
            journal,
            observation.metrics.snapshot_json(),
            render_chrome(observation.tracer.spans),
        )

    def test_trace_identical_across_in_process_runs(self, tmp_path):
        first = self._observed_run(tmp_path / "a.rcol")
        second = self._observed_run(tmp_path / "b.rcol")
        assert len(first[0]) > 0  # the journal actually holds spans
        assert '"instruments"' in first[1]
        assert first == second

    def test_trace_identical_across_hash_seeds(self, tmp_path):
        first = _run_in_subprocess("1", _OBS_SCRIPT, str(tmp_path / "h1.rcol"))
        second = _run_in_subprocess("4242", _OBS_SCRIPT, str(tmp_path / "h2.rcol"))
        payload = json.loads(first)
        assert payload["spans"] > 0
        assert first == second
