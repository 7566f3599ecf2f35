"""Metrics exposition: a stdlib HTTP endpoint in Prometheus text format.

:class:`MetricsExporter` serves a :class:`~repro.telemetry.metrics.
MetricsRegistry` snapshot over plain ``http.server`` (no third-party
dependencies) on three routes:

* ``/metrics`` — Prometheus text exposition format, version 0.0.4:
  counters, gauges, and histograms (with ``_bucket{le=...}`` /
  ``_sum`` / ``_count`` series), plus any *extra* scalar metrics the
  owner supplies (the serving layer passes ``service.metrics`` so the
  scraped totals are exactly what :meth:`MatchingService.metrics`
  reports);
* ``/metrics.json`` — the raw registry snapshot plus the extra scalars
  as JSON, for humans and tests;
* ``/healthz`` — liveness.

The server is a daemon-threaded :class:`ThreadingHTTPServer` bound to
an ephemeral port by default (``port=0``), started by ``repro serve
--metrics-port``.  Snapshots are taken per scrape on the handler
thread; the registry's structures are plain dicts and ints mutated by
the event loop thread, so a scrape is read-only and never blocks the
service.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional

from .metrics import MetricsRegistry

__all__ = ["MetricsExporter", "render_prometheus"]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(group: str, name: str) -> str:
    """``repro_<group>_<name>`` with every illegal character folded to
    ``_`` (counter names like ``shuffle.records`` become
    ``shuffle_records``)."""
    return _NAME_SANITIZER.sub("_", f"repro_{group}_{name}")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    snapshot: Mapping[str, Any],
    extra: Optional[Mapping[str, float]] = None,
) -> str:
    """Render a registry snapshot as Prometheus text exposition format.

    ``extra`` scalars (e.g. the serving layer's ``metrics()`` dict) are
    emitted as gauges under ``repro_service_<key>``.
    """
    lines: List[str] = []

    def emit(name: str, metric_type: str, samples: List[str]) -> None:
        lines.append(f"# TYPE {name} {metric_type}")
        lines.extend(samples)

    for group in sorted(snapshot.get("counters", {})):
        names = snapshot["counters"][group]
        for name in sorted(names):
            metric = _metric_name(group, name)
            emit(
                metric,
                "counter",
                [f"{metric} {_format_value(names[name])}"],
            )
    for group in sorted(snapshot.get("gauges", {})):
        names = snapshot["gauges"][group]
        for name in sorted(names):
            metric = _metric_name(group, name)
            emit(
                metric,
                "gauge",
                [f"{metric} {_format_value(names[name])}"],
            )
    for group in sorted(snapshot.get("histograms", {})):
        names = snapshot["histograms"][group]
        for name in sorted(names):
            hist = names[name]
            metric = _metric_name(group, name)
            samples: List[str] = []
            cumulative = 0
            for bound, bucket in zip(
                hist["le"], hist["bucket_counts"]
            ):
                cumulative += bucket
                label = _format_value(float(bound))
                samples.append(
                    f'{metric}_bucket{{le="{label}"}} {cumulative}'
                )
            cumulative += hist["bucket_counts"][len(hist["le"])]
            samples.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            samples.append(f"{metric}_sum {_format_value(hist['sum'])}")
            samples.append(f"{metric}_count {hist['count']}")
            emit(metric, "histogram", samples)
    for key in sorted(extra or {}):
        metric = _metric_name("service", key)
        emit(metric, "gauge", [f"{metric} {_format_value(extra[key])}"])
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes one exporter's scrapes; never logs to stderr."""

    server: "_Server"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        exporter = self.server.exporter
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = render_prometheus(
                    exporter.snapshot(), exporter.extra_metrics()
                ).encode("utf-8")
                # The exporter's own health joins the exposition, so a
                # scraper can alert on scrape failures it didn't see.
                metric = _metric_name("exporter", "scrape_errors")
                body += (
                    f"# TYPE {metric} counter\n"
                    f"{metric} {exporter.scrape_errors}\n"
                ).encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/metrics.json":
                body = json.dumps(
                    {
                        "registry": exporter.snapshot(),
                        "service": exporter.extra_metrics(),
                        "exporter": {
                            "scrape_count": exporter.scrape_count,
                            "scrape_errors": exporter.scrape_errors,
                        },
                    },
                    indent=1,
                    default=str,
                ).encode("utf-8")
                content_type = "application/json"
            elif path == "/healthz":
                error = exporter.last_scrape_error
                if error is None:
                    body = b"ok\n"
                else:
                    body = f"degraded: {error}\n".encode("utf-8")
                content_type = "text/plain; charset=utf-8"
            else:
                self.send_error(404, "unknown path")
                return
        except Exception as exc:
            # A malformed snapshot or a failing extra_metrics callable
            # must not kill the serving thread: count it, remember it
            # for /healthz, answer 500, and keep serving.
            exporter._record_scrape_error(exc)
            self.send_error(500, "scrape failed")
            return
        # Count (and clear degradation) *before* the body goes on the
        # wire: the scrape succeeded once the body rendered, and a
        # client that saw this response must not race a stale
        # "degraded" out of /healthz while this thread is still
        # between write and bookkeeping.
        if path in ("/metrics", "/metrics.json"):
            exporter._count_scrape()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # scrapes are not worth a stderr line each


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    exporter: "MetricsExporter"


class MetricsExporter:
    """Serve a registry (plus optional extra scalars) over HTTP.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to expose; a fresh empty one if
        omitted (useful for tests).
    extra_metrics:
        Optional zero-argument callable returning a flat ``name ->
        number`` mapping, re-evaluated per scrape.  The serving layer
        passes ``service.metrics`` here, which is what makes the
        endpoint's totals match the in-process API by construction.
    host, port:
        Bind address; ``port=0`` (default) picks an ephemeral port,
        readable from :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        extra_metrics: Optional[Callable[[], Mapping[str, float]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._extra_metrics = extra_metrics
        self.host = host
        self.port = port
        self.scrape_count = 0
        #: Scrape attempts that raised in the handler (malformed
        #: snapshot, failing ``extra_metrics``) — answered 500 instead
        #: of killing the serving thread.
        self.scrape_errors = 0
        self._last_scrape_error: Optional[str] = None
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- scrape plumbing ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def extra_metrics(self) -> Mapping[str, float]:
        if self._extra_metrics is None:
            return {}
        return self._extra_metrics()

    def _count_scrape(self) -> None:
        with self._lock:
            self.scrape_count += 1
            # A successful scrape clears degradation: /healthz reports
            # the *current* state, not a latched one.
            self._last_scrape_error = None

    def _record_scrape_error(self, exc: BaseException) -> None:
        with self._lock:
            self.scrape_errors += 1
            self._last_scrape_error = (
                f"{type(exc).__name__}: {exc}"
            )

    @property
    def last_scrape_error(self) -> Optional[str]:
        """``None`` when healthy, else the last failure (cleared by the
        next successful scrape) — what ``/healthz`` reports."""
        with self._lock:
            return self._last_scrape_error

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MetricsExporter":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._server is not None:
            raise RuntimeError("exporter already started")
        server = _Server((self.host, self.port), _Handler)
        server.exporter = self
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=f"metrics-exporter:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
