"""Tests for the observability layer (repro.obs): tracer semantics,
trace determinism, tracing-off bit-identity, the metrics registry,
the schema validator, and Chrome export nesting."""

import json

from repro.apps.bulk import run_bulk_download
from repro.faults.plan import ControllerCrash, FaultPlan
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.schema import validate_lines, validate_record
from repro.obs.trace import Tracer, chrome_trace
from repro.scenarios.testbed import Testbed, TestbedConfig, WgttConfig
from repro.sim.engine import MS, SECOND, Simulator


# ----------------------------------------------------------------------
# tracer basics
# ----------------------------------------------------------------------


class TestTracer:
    def test_off_by_default(self):
        sim = Simulator()
        assert sim.obs.trace.active is False
        # Emission while inactive records nothing.
        sim.obs.trace.emit("test", "hello")
        assert sim.obs.trace.records == []

    def test_inactive_emission_advances_nothing(self):
        tracer = Simulator().obs.trace
        tracer.emit("test", "hello")
        span = tracer.begin("test", "work")
        assert span is None
        tracer.end(span, outcome="done")
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit("test", "first")
        later = tracer.begin("test", "work")
        tracer.end(later)
        assert [(event.name, event.seq) for event in seen] == [
            ("first", 0),
            ("work", 1),
        ]
        assert later == 1

    def test_emit_records_with_sim_clock(self):
        sim = Simulator(obs=ObsContext(ObsConfig(trace=True)))
        tracer = sim.obs.trace
        assert tracer.active is True
        sim.schedule_at(5 * MS, lambda: tracer.emit("test", "tick", x=1))
        sim.run(until_us=10 * MS)
        (event,) = tracer.records
        assert event.ts == 5 * MS
        assert event.kind == "event"
        assert event.tags == {"x": 1}

    def test_span_begin_end_duration(self):
        sim = Simulator(obs=ObsContext(ObsConfig(trace=True)))
        tracer = sim.obs.trace
        span = tracer.begin("test", "work", track="lane", a=1)
        sim.run(until_us=3 * MS)
        tracer.end(span, outcome="done")
        (record,) = tracer.records
        assert record.kind == "span"
        assert record.duration_us == 3 * MS
        assert record.tags == {"a": 1, "outcome": "done"}

    def test_end_unknown_span_is_noop(self):
        tracer = Tracer(recording=True)
        tracer.end(999)
        assert tracer.records == []

    def test_finish_closes_open_spans(self):
        tracer = Tracer(recording=True)
        tracer.begin("test", "dangling")
        tracer.finish()
        (record,) = tracer.records
        assert record.tags["open"] is True
        assert record.end_ts is not None

    def test_subscribe_activates_and_filters(self):
        tracer = Tracer()
        assert tracer.active is False
        seen = []
        tracer.subscribe(lambda e: seen.append(e.name), names=("wanted",))
        assert tracer.active is True
        tracer.emit("test", "wanted")
        tracer.emit("test", "other")
        assert seen == ["wanted"]
        # Sink-only tracing records nothing.
        assert tracer.records == []

    def test_detail_events_reach_sinks_but_not_default_buffer(self):
        tracer = Tracer(recording=True, detail=False)
        seen = []
        tracer.subscribe(lambda e: seen.append(e.name))
        tracer.emit("test", "packet", detail=True)
        tracer.emit("test", "protocol")
        assert seen == ["packet", "protocol"]
        assert [r.name for r in tracer.records] == ["protocol"]

    def test_detail_capture_keeps_everything(self):
        tracer = Tracer(recording=True, detail=True)
        tracer.emit("test", "packet", detail=True)
        assert [r.name for r in tracer.records] == ["packet"]

    def test_jsonl_is_canonical(self):
        tracer = Tracer(recording=True)
        tracer.emit("test", "e", track="t", b=2, a=1)
        (line,) = list(tracer.jsonl_lines())
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        # Synthetic name: shape-check only (catalog membership is the
        # subject of test_name_catalog, not this test).
        assert validate_record(json.loads(line), check_names=False) == []


# ----------------------------------------------------------------------
# trace determinism + tracing-off bit-identity (the core contracts)
# ----------------------------------------------------------------------


def _quick_drive(obs=None):
    config = TestbedConfig(
        seed=7, scheme="wgtt", client_speeds_mph=[25.0], obs=obs
    )
    return run_bulk_download(
        config, protocol="tcp", duration_s=2.0, keep_testbed=True
    )


def _result_fields(result):
    return (
        result.throughput_mbps,
        result.goodput_series_mbps,
        result.tcp_timeouts,
        result.switch_count,
    )


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            result = _quick_drive(obs=ObsConfig(trace=True))
            tracer = result.testbed.sim.obs.trace
            tracer.finish()
            path = tmp_path / f"{name}.jsonl"
            tracer.export_jsonl(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_bytes()) > 0

    def test_tracing_off_is_bit_identical(self):
        """An obs-disabled run and a fully-traced run of the same seed
        must produce identical protocol results: tracing draws no
        randomness and mutates no state."""
        plain = _quick_drive(obs=None)
        traced = _quick_drive(obs=ObsConfig(trace=True, detail=True))
        assert _result_fields(plain) == _result_fields(traced)
        assert plain.testbed.sim.events_processed == traced.testbed.sim.events_processed


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("plain") == "plain"

    def test_labels_sorted(self):
        assert metric_key("m", b=2, a="x") == "m{a=x,b=2}"

    def test_label_may_be_called_name(self):
        # The metric name is positional-only precisely for this.
        assert metric_key("stat", name="dedup") == "stat{name=dedup}"


class TestMetricsRegistry:
    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"z": 1, "m": 3})
        registry.register_collector(
            lambda: {metric_key("a", k="v"): 2, "m": 4}
        )
        snapshot = registry.snapshot()
        # Later collectors win a key collision (registration order).
        assert snapshot == {"a{k=v}": 2, "m": 4, "z": 1}
        text = registry.to_json()
        assert json.loads(text) == snapshot
        assert list(json.loads(text)) == sorted(snapshot)

    def test_testbed_collectors_snapshot(self):
        result = _quick_drive(obs=ObsConfig(trace=True))
        snapshot = result.testbed.sim.obs.metrics.snapshot()
        assert snapshot["switches_completed"] == result.switch_count
        assert snapshot["engine_events_processed"] > 0
        assert any(key.startswith("ap_mpdus_sent{") for key in snapshot)
        # Round-trips through the canonical JSON rendering.
        assert json.loads(result.testbed.sim.obs.metrics.to_json()) == snapshot


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------


class TestSchema:
    def test_valid_drive_trace(self, tmp_path):
        result = _quick_drive(obs=ObsConfig(trace=True))
        tracer = result.testbed.sim.obs.trace
        tracer.finish()
        path = tmp_path / "t.jsonl"
        count = tracer.export_jsonl(str(path))
        assert count > 0
        with open(path) as handle:
            validated, errors = validate_lines(handle)
        assert validated == count
        assert errors == []

    def test_rejects_bad_records(self):
        good = {
            "seq": 0, "ts": 0, "kind": "event", "sub": "s",
            "name": "n", "track": None, "tags": {},
        }
        assert validate_record(good, check_names=False) == []
        assert validate_record({**good, "kind": "bogus"})
        assert validate_record({**good, "ts": -1})
        assert validate_record({**good, "tags": []})
        missing = dict(good)
        del missing["name"]
        assert validate_record(missing)
        span_no_end = {**good, "kind": "span"}
        assert validate_record(span_no_end)

    def test_name_catalog(self):
        record = {
            "seq": 0, "ts": 0, "kind": "event", "sub": "controller",
            "name": "switch", "track": None, "tags": {},
        }
        assert validate_record(record) == []
        # Unknown name, and a known name from the wrong subsystem.
        assert validate_record({**record, "name": "not-a-thing"})
        assert validate_record({**record, "sub": "mac"})
        # Foreign traces can opt out.
        assert validate_record({**record, "name": "x"}, check_names=False) == []

    def test_duplicate_seq_detected(self):
        line = json.dumps(
            {
                "seq": 0, "ts": 0, "kind": "event", "sub": "s",
                "name": "n", "track": None, "tags": {},
            }
        )
        assert validate_lines([line], check_names=False) == (1, [])
        assert validate_lines([line, line], check_names=False)[1]


# ----------------------------------------------------------------------
# chrome export: structure and nesting
# ----------------------------------------------------------------------


def _chrome_spans(payload, name):
    return [
        e for e in payload["traceEvents"] if e["ph"] == "X" and e["name"] == name
    ]


def _contains(parent, child):
    return (
        parent["ts"] <= child["ts"]
        and child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
    )


class TestChromeExport:
    def test_metadata_and_instants(self):
        tracer = Tracer(recording=True)
        tracer.emit("subA", "e1", track="lane")
        span = tracer.begin("subB", "s1")
        tracer.end(span)
        payload = chrome_trace(tracer.records)
        events = payload["traceEvents"]
        names = {(e["ph"], e["name"]) for e in events}
        assert ("M", "process_name") in names
        assert ("M", "thread_name") in names
        assert ("i", "e1") in names
        assert ("X", "s1") in names

    def test_switch_span_nests_ap_legs(self):
        """A completed stop -> start -> ack switch renders as a switch
        span whose window contains the AP-side stop-processing and
        start-processing spans."""
        result = _quick_drive(obs=ObsConfig(trace=True))
        tracer = result.testbed.sim.obs.trace
        tracer.finish()
        payload = chrome_trace(tracer.records)
        switches = [
            s for s in _chrome_spans(payload, "switch")
            if s["args"].get("outcome") == "completed"
        ]
        assert switches
        stops = _chrome_spans(payload, "stop-processing")
        starts = _chrome_spans(payload, "start-processing")
        for switch in switches[:3]:
            assert any(_contains(switch, s) for s in stops)
            assert any(_contains(switch, s) for s in starts)

    def test_ha_promotion_nests_children(self):
        """Killing the primary with a warm standby produces a promotion
        span nesting checkpoint-restore and takeover-announce."""
        kill_us = 1 * SECOND
        config = TestbedConfig(
            seed=3,
            scheme="wgtt",
            wgtt=WgttConfig(ha_enabled=True, checkpoint_interval_us=100 * MS),
            fault_plan=FaultPlan([ControllerCrash(at_us=kill_us, down_us=None)]),
            obs=ObsConfig(trace=True),
        )
        testbed = Testbed(config)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_until(kill_us + 500 * MS)
        assert testbed.standby.promoted
        tracer = testbed.sim.obs.trace
        tracer.finish()
        payload = chrome_trace(tracer.records)
        (promotion,) = _chrome_spans(payload, "promotion")
        (restore,) = _chrome_spans(payload, "checkpoint-restore")
        (announce,) = _chrome_spans(payload, "takeover-announce")
        assert _contains(promotion, restore)
        assert _contains(promotion, announce)
        assert restore["args"]["from_checkpoint"] is True
