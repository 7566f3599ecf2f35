"""The /metrics endpoint: exposition format and live HTTP scrapes."""

import json
import urllib.error
import urllib.request

import pytest

from repro.telemetry import MetricsRegistry, render_prometheus
from repro.telemetry.exporter import MetricsExporter


def _registry():
    registry = MetricsRegistry()
    registry.counters.increment("runtime", "shuffle.records", 42)
    registry.gauge("runtime", "phase.map_seconds").add(0.5)
    hist = registry.histogram("runtime", "task.map_output_records", (1, 10))
    for value in (1, 5, 100):
        hist.observe(value)
    return registry


def test_render_prometheus_format():
    text = render_prometheus(_registry().snapshot())
    lines = text.splitlines()
    assert "# TYPE repro_runtime_shuffle_records counter" in lines
    assert "repro_runtime_shuffle_records 42" in lines
    assert "repro_runtime_phase_map_seconds 0.5" in lines
    # Histogram buckets are cumulative and close with +Inf, sum, count.
    assert 'repro_runtime_task_map_output_records_bucket{le="1.0"} 1' in lines
    assert 'repro_runtime_task_map_output_records_bucket{le="10.0"} 2' in lines
    assert (
        'repro_runtime_task_map_output_records_bucket{le="+Inf"} 3' in lines
    )
    assert "repro_runtime_task_map_output_records_count 3" in lines
    assert text.endswith("\n")


def test_render_sanitizes_names_and_emits_extras():
    registry = MetricsRegistry()
    registry.counters.increment("greedy-round", "map.input_records", 1)
    text = render_prometheus(
        registry.snapshot(), extra={"latency_p99_ms": 12.5}
    )
    assert "repro_greedy_round_map_input_records 1" in text
    assert "repro_service_latency_p99_ms 12.5" in text


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


def test_exporter_serves_metrics_and_json():
    registry = _registry()
    calls = []

    def extra():
        calls.append(1)
        return {"latency_p99_ms": 9.0}

    with MetricsExporter(registry=registry, extra_metrics=extra) as exporter:
        assert exporter.port != 0  # ephemeral port resolved
        status, text = _get(f"{exporter.url}/metrics")
        assert status == 200
        # The scrape is the same render the in-process API would give,
        # plus the exporter's own health counter.
        assert text == render_prometheus(registry.snapshot(), extra()) + (
            "# TYPE repro_exporter_scrape_errors counter\n"
            "repro_exporter_scrape_errors 0\n"
        )
        status, payload = _get(f"{exporter.url}/metrics.json")
        snapshot = json.loads(payload)
        assert (
            snapshot["registry"]["counters"]["runtime"]["shuffle.records"]
            == 42
        )
        assert snapshot["service"]["latency_p99_ms"] == 9.0
        status, body = _get(f"{exporter.url}/healthz")
        assert body == "ok\n"
        # Health checks are not scrapes; /metrics and /metrics.json are.
        assert exporter.scrape_count == 2
        assert calls  # extra_metrics re-evaluated per scrape
    assert exporter._server is None  # context exit stopped the server


def test_exporter_scrape_sees_live_updates():
    registry = MetricsRegistry()
    with MetricsExporter(registry=registry) as exporter:
        registry.counters.increment("g", "n", 1)
        _, first = _get(f"{exporter.url}/metrics")
        registry.counters.increment("g", "n", 4)
        _, second = _get(f"{exporter.url}/metrics")
    assert "repro_g_n 1" in first
    assert "repro_g_n 5" in second


def test_exporter_unknown_path_is_404_and_double_start_raises():
    exporter = MetricsExporter().start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{exporter.url}/nope")
        excinfo.value.close()  # the error holds the response's socket
        assert excinfo.value.code == 404
        with pytest.raises(RuntimeError, match="already started"):
            exporter.start()
    finally:
        exporter.stop()
    exporter.stop()  # idempotent


def test_scrape_errors_count_and_degrade_health():
    state = {"fail": True}

    def extra():
        if state["fail"]:
            raise RuntimeError("backing store unavailable")
        return {"latency_p99_ms": 1.0}

    with MetricsExporter(registry=_registry(), extra_metrics=extra) as exporter:
        # A failing extra_metrics callable answers 500 — the serving
        # thread survives and the failure is counted, not swallowed.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{exporter.url}/metrics")
        excinfo.value.close()
        assert excinfo.value.code == 500
        assert exporter.scrape_errors == 1
        assert exporter.scrape_count == 0
        # /healthz reports degradation with the last failure inline.
        _, body = _get(f"{exporter.url}/healthz")
        assert body == "degraded: RuntimeError: backing store unavailable\n"
        # Once scrapes succeed again, health recovers and the error
        # counter rides along in the exposition itself.
        state["fail"] = False
        _, text = _get(f"{exporter.url}/metrics")
        assert "repro_exporter_scrape_errors 1" in text
        _, body = _get(f"{exporter.url}/healthz")
        assert body == "ok\n"
        _, payload = _get(f"{exporter.url}/metrics.json")
        health = json.loads(payload)["exporter"]
        # The JSON view renders before its own scrape is counted.
        assert health == {"scrape_count": 1, "scrape_errors": 1}
