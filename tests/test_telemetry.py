"""Telemetry (metrics, spans, exporters) and the observation session."""

import json

import pytest

from repro import observe
from repro.coverage.map import NULL_DOMAIN
from repro.coverage.recorder import NULL_RECORDER
from repro.sim.engine import Simulator
from repro.telemetry.export import (
    jsonl_lines,
    parse_prometheus,
    to_chrome_trace,
    to_prometheus,
)
from repro.telemetry.instrument import attach_simulator
from repro.telemetry.metrics import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from repro.telemetry.spans import Tracer


@pytest.fixture(autouse=True)
def _clean_session():
    observe.disable()
    yield
    observe.disable()


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("pkts", host="h1")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_and_labels_share_one_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("pkts", host="h1")
        b = registry.counter("pkts", host="h1")
        c = registry.counter("pkts", host="h2")
        assert a is b and a is not c
        assert len(registry) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x="1", y="2")
        b = registry.counter("m", y="2", x="1")
        assert a is b

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_gauge_high_water(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 5

    def test_histogram_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("lat", buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            hist.observe(value)
        assert hist.counts == [1, 2, 3]  # cumulative per bound
        assert hist.count == 4
        assert hist.sum == 5555

    def test_null_twins_are_inert(self):
        NULL_COUNTER.inc()
        NULL_GAUGE.set(7)
        NULL_HISTOGRAM.observe(1.0)
        # Shared singletons hold no state at all.
        assert not hasattr(NULL_COUNTER, "value")


class TestRuntime:
    def test_disabled_by_default(self):
        assert observe.active() is None
        assert observe.current() is observe.NULL_SESSION

    def test_enable_disable_cycle(self):
        session = observe.enable()
        assert observe.active() is session
        assert observe.current() is session
        observe.disable()
        assert observe.active() is None

    def test_disabled_session_hands_out_null_twins(self):
        obs = observe.current()
        assert obs.counter("x") is NULL_COUNTER
        assert obs.gauge("x") is NULL_GAUGE
        assert obs.histogram("x") is NULL_HISTOGRAM
        with obs.span("phase"):
            pass
        with obs.wall_span("phase"):
            pass
        assert obs.instant("e") is None
        assert obs.domain("rdma.gbn") is NULL_DOMAIN
        assert obs.recorder("qp") is NULL_RECORDER
        obs.merge_snapshot([["rdma.gbn", "x", 1, 0]])
        assert obs.total_snapshot() == []

    def test_metrics_off_session_records_coverage_only(self):
        obs = observe.enable(metrics=False)
        assert obs.counter("x") is NULL_COUNTER
        assert obs.tracer.spans == []
        obs.domain("rdma.gbn").hit("nak-sent", 7)
        obs.recorder("qp").note(7, "nak")
        assert obs.total_snapshot() == [["rdma.gbn", "nak-sent", 1, 7]]
        assert len(obs.flight_snapshot()) == 1

    def test_context_manager_scopes_session(self, tmp_path):
        with observe.session(str(tmp_path)) as obs:
            obs.counter("inside").inc()
            obs.domain("rdma.gbn").hit("nak-sent")
            assert observe.active() is obs
        assert observe.active() is None
        for artefact in ("metrics.prom", "trace.json", "events.jsonl",
                         "coverage.json"):
            assert (tmp_path / artefact).exists()


class TestSpans:
    def test_span_records_sim_time_bounds(self):
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now)
        with tracer.span("window", pid="p", tid="t"):
            sim.schedule(500, lambda: None)
            sim.run()
        (span,) = tracer.spans
        assert span.start_ns == 0
        assert span.duration_ns == 500
        assert span.wall_ns > 0

    def test_span_args_via_set(self):
        tracer = Tracer()
        with tracer.span("s", score=1) as span:
            span.set(verdict="ok")
        assert tracer.spans[0].args == {"score": 1, "verdict": "ok"}

    def test_instant_stamps_current_clock(self):
        now = [0]
        tracer = Tracer(clock=lambda: now[0])
        now[0] = 42
        tracer.instant("evt", pid="p")
        assert tracer.instants[0].ts_ns == 42

    def test_wall_span_is_monotonic(self):
        tracer = Tracer()
        with tracer.wall_span("w"):
            pass
        span = tracer.spans[0]
        assert span.start_ns >= 0
        assert span.duration_ns >= 0


class TestChromeTraceExport:
    def _traced(self):
        tracer = Tracer(clock=lambda: 2000)
        tracer.set_process_name("h1", "host h1")
        tracer.set_thread_name("h1", "rx", "rx pipeline")
        tracer.complete("phase", 1_000, 3_000, pid="h1", tid="rx", psn=7)
        tracer.instant("retransmit", pid="h1", tid="rx")
        return tracer

    def test_trace_is_valid_json_with_expected_shape(self):
        doc = json.loads(json.dumps(to_chrome_trace(self._traced())))
        events = doc["traceEvents"]
        phases = sorted(e["ph"] for e in events)
        assert phases == ["M", "M", "X", "i"]
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["ts"] == 1.0      # 1000 ns -> 1 us
        assert complete["dur"] == 2.0
        assert complete["args"]["psn"] == 7
        assert "wall_us" in complete["args"]

    def test_metadata_names_processes_and_threads(self):
        events = to_chrome_trace(self._traced())["traceEvents"]
        meta = {e["name"]: e for e in events if e["ph"] == "M"}
        assert meta["process_name"]["args"]["name"] == "host h1"
        assert meta["thread_name"]["args"]["name"] == "rx pipeline"


class TestPrometheusRoundTrip:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("pkts", host="h1").inc(3)
        registry.gauge("depth").set(9)
        hist = registry.histogram("lat", buckets=(10, 100))
        hist.observe(5)
        hist.observe(50)

        samples = parse_prometheus(to_prometheus(registry))
        assert samples["pkts"][(("host", "h1"),)] == 3
        assert samples["depth"][()] == 9
        assert samples["depth_high_water"][()] == 9
        assert samples["lat_bucket"][(("le", "10"),)] == 1
        assert samples["lat_bucket"][(("le", "+Inf"),)] == 2
        assert samples["lat_sum"][()] == 55
        assert samples["lat_count"][()] == 2

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}


class TestJsonl:
    def test_lines_are_parseable_and_ordered(self):
        tracer = Tracer()
        tracer.instant("b")
        tracer.complete("a", 0, 10)
        records = [json.loads(line) for line in jsonl_lines(tracer)]
        assert [r["id"] for r in records] == [0, 1]
        assert records[0]["kind"] == "instant"
        assert records[1]["dur_ns"] == 10


class TestSimProbe:
    def test_probe_records_callbacks_and_hotspots(self):
        session = observe.enable()
        sim = Simulator()
        probe = attach_simulator(sim, session)

        def busy():
            pass

        for i in range(5):
            sim.schedule(i, busy)
        sim.run()
        probe.flush()

        assert session.registry.find("sim_events_processed", sim="sim").value == 5
        (top, count, total_ns) = probe.hotspots(1)[0]
        assert "busy" in top
        assert count == 5
        assert total_ns >= 0

    def test_probe_syncs_tracer_clock(self):
        session = observe.enable()
        sim = Simulator()
        attach_simulator(sim, session)
        sim.schedule(300, lambda: session.instant("mark"))
        sim.run()
        assert session.tracer.instants[0].ts_ns == 300

    def test_no_probe_when_disabled(self):
        sim = Simulator()
        assert sim.probe is None
        sim.schedule(1, lambda: None)
        sim.run()  # probe-free fast path


class TestReportCommand:
    def test_report_renders_run_directory(self, tmp_path, capsys):
        from repro.__main__ import _EXAMPLE_CONFIG, main

        config = tmp_path / "config.json"
        out = tmp_path / "obs"
        config.write_text(json.dumps(_EXAMPLE_CONFIG))
        status = main(["run", str(config), "--observe", str(out),
                       "--output", str(tmp_path / "report.txt")])
        assert status == 0
        assert observe.active() is None  # CLI tears the session down
        for artefact in ("trace.json", "metrics.prom", "events.jsonl"):
            assert (out / artefact).exists()

        assert main(["observe-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Telemetry report" in text
        assert "retransmitted packets" in text
        assert "Top wall-clock hot spots" in text

    def test_observed_suite_writes_every_artifact_kind(self, tmp_path,
                                                       capsys):
        # One flag, one directory: metrics, both trace formats, the
        # coverage map and the flight dump of the INCONCLUSIVE check.
        from repro.__main__ import main

        out = tmp_path / "obs"
        status = main(["suite", "cx5", "--checks", "gbn-logic",
                       "--measurement-faults", "mirror-loss",
                       "--observe", str(out)])
        assert status == 1  # mirror-loss leaves gbn-logic INCONCLUSIVE
        names = sorted(path.name for path in out.iterdir())
        assert names == ["coverage.json", "events.jsonl",
                         "flight-gbn-logic.txt", "metrics.prom",
                         "trace.json"]
        capsys.readouterr()

        assert main(["observe-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "coverage: points hit" in text       # metrics headline
        assert "rdma.gbn" in text and "total" in text  # domain table
        assert "Never reached" in text
