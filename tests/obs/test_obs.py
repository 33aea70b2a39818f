"""The observability plane: tracer semantics, the metrics hub, export, hooks.

The contract under test (DESIGN.md, "The observability plane"):

* spans nest positionally (open/close push/pop; emit records a leaf under the
  innermost open span), roots carry ``parent == -1``, and ``new_track=True``
  allocates a fresh timeline lane that children inherit;
* the trace journal rides the results-store plane — jsonl and columnar
  round-trip the same spans, guarded by the trace fingerprint;
* :class:`MetricsHub` creates instruments on first use, refuses kind
  collisions with a name-precise error, and snapshots in sorted-name order
  with the store plane's pinned empty-histogram shape;
* the Chrome export maps tracks to ``pid``/categories to named ``tid`` rows,
  scales sim seconds to microseconds, and is canonical JSON;
* ``observe()`` installs the ambient observation, restores the previous one
  on exit (even on error), and closes the journal either way;
* the scenario/network hooks emit spans and metrics only when an observation
  is installed — and emit *deterministic* ones when it is.
"""

import json

import pytest

from repro.cli import main
from repro.obs import (
    MetricsHub,
    Observation,
    SpanRecord,
    Tracer,
    chrome_trace,
    current_observation,
    load_trace,
    observe,
    render_chrome,
    render_metrics,
    render_text,
)
from repro.obs.trace import trace_fingerprint
from repro.scenarios import ScenarioSpec, SpecError, run_scenario


def _spec(**overrides):
    data = dict(
        name="obs-spec",
        mechanism="double",
        users=6,
        providers=3,
        config={"k": 1},
        latency="constant",
        seed=3,
    )
    data.update(overrides)
    return ScenarioSpec(**data)


class TestTracer:
    def test_nesting_is_positional(self):
        tracer = Tracer()
        outer = tracer.open("outer", "test", ts=0.0)
        tracer.emit("leaf", "test", ts=0.5, dur=0.25, tag="x")
        inner = tracer.open("inner", "test", ts=1.0)
        tracer.close(end_ts=2.0)
        tracer.close(dur=3.0, ok=True)

        by_name = {span.name: span for span in tracer.spans}
        assert by_name["outer"].parent == -1
        assert by_name["outer"].dur == 3.0
        assert by_name["outer"].detail == {"ok": True}
        assert by_name["leaf"].parent == outer
        assert by_name["leaf"].detail == {"tag": "x"}
        assert by_name["inner"].parent == outer
        assert by_name["inner"].span_id == inner
        assert by_name["inner"].dur == 1.0  # end_ts - open ts

    def test_tracks_partition_timelines(self):
        tracer = Tracer()
        tracer.open("round-a", "scenario", ts=0.0, new_track=True)
        tracer.emit("deliver", "net", ts=0.1)
        tracer.close()
        tracer.open("round-b", "scenario", ts=0.0, new_track=True)
        tracer.emit("deliver", "net", ts=0.1)
        tracer.close()
        tracks = [span.track for span in sorted(tracer.spans, key=lambda s: s.span_id)]
        assert tracks == [1, 1, 2, 2]  # children inherit the round's lane
        assert tracer.current_track == 0  # back to the root lane

    def test_instant_is_a_zero_duration_span(self):
        tracer = Tracer()
        record = tracer.instant("fault.drop", "fault", ts=2.5, target="n1")
        assert record.dur == 0.0
        assert record.detail == {"target": "n1"}

    def test_finish_closes_open_spans(self):
        tracer = Tracer()
        tracer.open("outer", "test", ts=0.0)
        tracer.open("inner", "test", ts=1.0)
        tracer.finish()
        assert [span.name for span in tracer.spans] == ["inner", "outer"]
        assert all(span.dur == 0.0 for span in tracer.spans)

    def test_seq_is_a_monotone_logical_clock(self):
        tracer = Tracer()
        assert [tracer.seq() for _ in range(3)] == [0.0, 1.0, 2.0]

    def test_span_record_round_trips_type_stable(self):
        record = SpanRecord(3, -1, 0, "solve", "engine", 1.0, 2.0, {"users": 5})
        data = record.to_dict()
        assert isinstance(data["parent"], int) and data["parent"] == -1
        assert isinstance(data["ts"], float) and isinstance(data["dur"], float)
        assert SpanRecord.from_dict(data) == record

    @pytest.mark.parametrize("fmt,suffix", [("jsonl", "jsonl"), (None, "rcol")])
    def test_journal_round_trips_on_both_backends(self, tmp_path, fmt, suffix):
        path = str(tmp_path / f"trace.{suffix}")
        tracer = Tracer()
        tracer.begin_journal(path, format=fmt, name="round-trip")
        tracer.open("round", "scenario", ts=0.0, new_track=True)
        tracer.emit("deliver", "net", ts=0.25, dur=0.05, sender="a", recipient="b")
        tracer.close(dur=1.5, ok=True)
        tracer.finish()

        manifest, spans = load_trace(path)
        assert manifest["fingerprint"] == trace_fingerprint("round-trip")
        assert manifest["sweep"] == "round-trip"
        # load_trace returns span-id order; the in-memory list is close order.
        assert spans == sorted(tracer.spans, key=lambda span: span.span_id)


class TestMetrics:
    def test_counter_gauge_histogram_kinds(self):
        hub = MetricsHub()
        hub.counter("c").inc()
        hub.counter("c").inc(2)
        hub.gauge("g").set(0.5)
        for value in (1.0, 2.0, 4.0):
            hub.histogram("h").observe(value)

        snapshot = hub.snapshot()["instruments"]
        assert snapshot["c"] == {"kind": "counter", "value": 3}
        assert snapshot["g"] == {"kind": "gauge", "value": 0.5}
        assert snapshot["h"]["kind"] == "histogram"
        assert snapshot["h"]["count"] == 3
        assert snapshot["h"]["min"] == 1.0
        assert snapshot["h"]["max"] == 4.0
        assert hub.summary_line() == "metrics: 1 counters, 1 gauges, 1 histograms"

    def test_gauge_is_none_before_first_set(self):
        assert MetricsHub().gauge("g").to_dict() == {"kind": "gauge", "value": None}

    def test_empty_histogram_is_the_store_planes_empty_snapshot(self):
        # The pinned empty shape: count=0, every statistic None — identical to
        # MetricAccumulator's own empty to_dict (plus the kind tag).
        from repro.scenarios.aggregate import MetricAccumulator

        snapshot = MetricsHub().histogram("h").to_dict()
        expected = MetricAccumulator().to_dict()
        expected["kind"] = "histogram"
        assert snapshot == expected
        assert snapshot["count"] == 0
        assert all(
            snapshot[field] is None
            for field in ("mean", "min", "max", "p50", "p90", "p99")
        )

    def test_kind_collision_is_a_name_precise_error(self):
        hub = MetricsHub()
        hub.counter("latency")
        with pytest.raises(SpecError, match=r"metrics\[latency\]"):
            hub.histogram("latency")

    def test_snapshot_json_is_canonical_and_name_sorted(self):
        hub = MetricsHub()
        hub.counter("zz").inc()
        hub.counter("aa").inc()
        text = hub.snapshot_json()
        assert text.index('"aa"') < text.index('"zz"')
        assert json.loads(text) == hub.snapshot()
        import hashlib

        assert hub.fingerprint() == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_render_metrics_lists_every_instrument(self):
        hub = MetricsHub()
        hub.counter("net.messages_sent").inc(7)
        hub.histogram("round.elapsed").observe(0.5)
        text = render_metrics(hub.snapshot())
        assert "2 instruments" in text
        assert "net.messages_sent" in text and "value=7" in text
        assert "round.elapsed" in text and "count=1" in text

    def test_render_metrics_empty(self):
        assert render_metrics(MetricsHub().snapshot()) == "metrics snapshot: 0 instruments"


class TestMetricsCommand:
    """``repro-auction metrics`` reads only a snapshot; anything else is exit 2."""

    @pytest.mark.parametrize(
        "document",
        [
            [1, 2],
            "metrics",
            {"kind": "metrics-snapshot"},
            {"kind": "metrics-snapshot", "instruments": [1]},
            {"kind": "metrics-snapshot", "instruments": {"a": 5}},
            {"kind": "trace", "instruments": {}},
            {"instruments": {"a": {"kind": "counter", "value": 1}}},
        ],
        ids=["list", "string", "no-table", "list-table", "int-entry", "other-kind", "no-kind"],
    )
    @pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
    def test_a_document_that_is_not_a_snapshot_is_a_spec_error(
        self, tmp_path, capsys, document, as_json
    ):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        assert main(["metrics", str(path)] + ["--json"] * as_json) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not a metrics snapshot")

    def test_an_entry_of_any_kind_renders(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        document = {"kind": "metrics-snapshot", "instruments": {"a": {"kind": 5}, "b": {}}}
        path.write_text(json.dumps(document))
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("metrics snapshot: 2 instruments")
        assert "a  5" in out and "b  ?" in out


class TestChromeExport:
    def _spans(self):
        tracer = Tracer()
        tracer.open("round", "scenario", ts=0.0, new_track=True)
        tracer.emit("deliver", "net", ts=0.5, dur=0.0125, tag="bid")
        tracer.instant("fault.drop_message", "fault", ts=1.0)
        tracer.close(dur=2.0)
        return tracer.spans

    def test_event_shapes(self):
        document = chrome_trace(self._spans())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        # One thread_name row per (track, category).
        assert {e["args"]["name"] for e in metadata} == {"scenario", "net", "fault"}
        assert len(complete) == 2  # deliver + round
        assert all(e["dur"] > 0 for e in complete)
        assert all(e["s"] == "t" for e in instants)

    def test_sim_seconds_scale_to_microseconds(self):
        events = chrome_trace(self._spans())["traceEvents"]
        deliver = next(e for e in events if e["name"] == "deliver")
        assert deliver["ts"] == pytest.approx(0.5e6)
        assert deliver["dur"] == pytest.approx(12_500.0)
        assert deliver["args"]["tag"] == "bid"

    def test_track_becomes_pid(self):
        events = chrome_trace(self._spans())["traceEvents"]
        assert {e["pid"] for e in events if e["ph"] != "M"} == {1}

    def test_render_chrome_is_canonical_json(self):
        text = render_chrome(self._spans())
        assert json.loads(text) == chrome_trace(self._spans())
        assert ": " not in text  # compact separators

    def test_render_text_indents_by_nesting(self):
        text = render_text(self._spans())
        lines = text.splitlines()
        assert lines[0] == "trace: 3 spans"
        assert "[track 1]   deliver (net)" in text  # child indented under round
        assert "tag=bid" in text


class TestObserve:
    def test_installs_and_restores(self):
        assert current_observation() is None
        with observe() as observation:
            assert current_observation() is observation
            assert isinstance(observation.metrics, MetricsHub)
            assert observation.tracer.active
        assert current_observation() is None

    def test_metrics_can_be_disabled(self):
        with observe(metrics=False) as observation:
            assert observation.metrics is None
            assert observation.tracer is not None

    def test_journal_closed_even_on_error(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with pytest.raises(RuntimeError):
            with observe(trace=path):
                current_observation().tracer.open("doomed", "test", ts=0.0)
                raise RuntimeError("boom")
        assert current_observation() is None
        manifest, spans = load_trace(path)  # valid journal, open span closed
        assert [span.name for span in spans] == ["doomed"]

    def test_nested_observations_restore_the_outer_one(self):
        with observe() as outer:
            with observe() as inner:
                assert current_observation() is inner
            assert current_observation() is outer


class TestScenarioHooks:
    def _run(self):
        return run_scenario(_spec())

    def test_no_observation_means_no_spans(self):
        self._run()  # must not blow up or leak state
        assert current_observation() is None

    def test_run_emits_round_span_and_network_metrics(self):
        with observe() as observation:
            record = self._run()
        names = {span.name for span in observation.tracer.spans}
        assert "round" in names
        assert "deliver" in names
        round_span = next(s for s in observation.tracer.spans if s.name == "round")
        assert round_span.parent == -1
        assert round_span.track == 1  # rounds get their own lane
        assert round_span.dur == record.elapsed_seconds
        assert round_span.detail["ok"] is True

        instruments = observation.metrics.snapshot()["instruments"]
        assert instruments["rounds"]["value"] == 1
        assert instruments["net.messages_sent"]["value"] == record.messages
        assert instruments["net.messages_delivered"]["value"] > 0
        assert instruments["net.bytes_delivered"]["value"] == record.bytes_transferred > 0
        assert instruments["net.delivery_latency"]["count"] > 0

    def test_standard_mechanism_emits_engine_spans(self):
        # The vectorized engine (the standard mechanism's default) records one
        # "solve" span per top-level solve and a "pivot_resolve" batch span —
        # on the calling thread only, so the trace is pool-independent.
        spec = _spec(mechanism={"kind": "standard", "epsilon": 0.5}, users=5)
        with observe() as observation:
            run_scenario(spec)
        names = [span.name for span in observation.tracer.spans]
        assert "solve" in names
        assert "pivot_resolve" in names
        solve = next(s for s in observation.tracer.spans if s.name == "solve")
        assert solve.cat == "engine"
        assert solve.detail["users"] == 5
        pivot = next(s for s in observation.tracer.spans if s.name == "pivot_resolve")
        assert pivot.detail["resolves"] + pivot.detail["memo_hits"] == pivot.detail["users"]

        instruments = observation.metrics.snapshot()["instruments"]
        hits = instruments["engine.solve_memo_hits"]["value"]
        misses = instruments["engine.solve_memo_misses"]["value"]
        assert hits + misses > 0

    def test_two_rounds_get_two_tracks(self):
        with observe() as observation:
            self._run()
            self._run()
        tracks = sorted(
            span.track for span in observation.tracer.spans if span.name == "round"
        )
        assert tracks == [1, 2]

    def test_hooked_run_is_deterministic(self):
        def run_once():
            from repro.auctions.engine.pivot import clear_solve_cache

            clear_solve_cache()
            with observe() as observation:
                self._run()
            return (
                [span.to_dict() for span in observation.tracer.spans],
                observation.metrics.snapshot_json(),
            )

        assert run_once() == run_once()

    def test_sweep_emits_grid_point_spans(self, tmp_path):
        from repro.scenarios import SweepSpec, run_sweep

        sweep = SweepSpec(base=_spec(), name="obs-grid", axes=(("users", (4, 6)),))
        with observe() as observation:
            run_sweep(sweep)
        grid = [s for s in observation.tracer.spans if s.name == "grid_point"]
        assert [span.detail["point"] for span in grid] == [0, 1]
        assert all(span.cat == "executor" for span in grid)
        instruments = observation.metrics.snapshot()["instruments"]
        assert instruments["sweep.points"]["value"] == 2
        assert instruments["sweep.rounds_executed"]["value"] == 2
