"""Unified observability: metrics registry, tracing, exposition, traffic.

One subsystem threaded through every layer of the reproduction:

* :mod:`repro.telemetry.metrics` — the Hadoop-style
  :class:`~repro.telemetry.metrics.Counters`, gauges, and fixed-bucket
  histograms, plus the one nearest-rank
  :func:`~repro.telemetry.metrics.percentile` helper;
* :mod:`repro.telemetry.trace` — span trees (job → phase → task;
  flush → admit → re-converge) exported as JSON span logs and rendered
  by ``repro trace``;
* :mod:`repro.telemetry.exporter` — a stdlib HTTP ``/metrics``
  endpoint (Prometheus text format + JSON snapshot);
* :mod:`repro.telemetry.loadgen` — a seeded Zipf-skewed event
  generator for the online matching service.  (Imported explicitly as
  ``repro.telemetry.loadgen``, not re-exported here: it depends on
  :mod:`repro.service`, which depends on the mapreduce layer, which
  imports this package — re-exporting it would close that cycle.)

The mapreduce layer imports only :mod:`~repro.telemetry.metrics`, so
this package must stay free of imports back into the rest of
``repro`` apart from that leaf.
"""

from .exporter import MetricsExporter, render_prometheus
from .metrics import (
    COUNT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    TIMING_BUCKETS,
    latency_summary_ms,
    percentile,
)
from .trace import Span, Tracer, load_spans, render_spans

__all__ = [
    "COUNT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsExporter",
    "MetricsRegistry",
    "Span",
    "TIMING_BUCKETS",
    "Tracer",
    "latency_summary_ms",
    "load_spans",
    "percentile",
    "render_prometheus",
    "render_spans",
]
