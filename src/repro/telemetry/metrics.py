"""The unified metrics registry: counters, gauges, fixed-bucket histograms.

The paper's efficiency story is told in meters — MapReduce rounds,
``O(|E|)`` shuffled records per job — and until this module those meters
were scattered: :class:`Counters` knew only integers, the runtime's
phase timings were a bare dict, and the serving layer hand-rolled its
latency percentiles.  :class:`MetricsRegistry` gives every layer one
vocabulary:

* **counters** — monotone integers, kept in a :class:`Counters` store
  (the runtime passes its own instance, so it *is* the registry's
  counter store and every established contract carries over
  unchanged);
* **gauges** — float accumulators for wall-clock meters (phase seconds,
  flush-stage seconds).  Gauges are *always volatile*: they never
  participate in the bit-identical determinism contract, exactly like
  the ``phase_timings`` dict they replace;
* **histograms** — fixed-bucket distributions.  A histogram may be
  flagged ``volatile=True`` (timing distributions, stripped by
  ``strip_volatile_counters`` alongside the spill counters) and may
  ``keep_samples`` to retain its raw observations (the serving
  layer's flush-latency list lives here).

Determinism contract.  Deterministic (non-volatile) histograms observe
only *data-dependent* quantities — record counts, never seconds — and
the runtime observes them driver-side in task-index order, so registry
snapshots minus the volatile sections are bit-identical across
backends, filesystems, and spill thresholds, extending the counter
contract to distributions.

This module imports nothing from the rest of the package (the runtime
imports *it*), so it can be threaded through any layer without cycles.

:func:`percentile` is the one nearest-rank implementation shared by the
serving metrics and the distribution stats, which previously each
hand-rolled their own.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "COUNT_BUCKETS",
    "Counters",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIMING_BUCKETS",
    "latency_summary_ms",
    "percentile",
]

#: Default bucket upper bounds for wall-clock histograms, in seconds
#: (Prometheus-style decades from 1ms to 10s; +Inf is implicit).
TIMING_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket upper bounds for record-count histograms (1-2-5
#: decades; +Inf is implicit).  Counts are data-dependent, so these
#: histograms may participate in the determinism contract.
COUNT_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty).

    The single implementation behind the serving metrics' p50/p95/p99
    and the dataset tail summaries.  ``values`` need not be sorted;
    pass ``q`` in ``[0, 1]`` — checked even for an empty sample, so a
    ``q`` on the 0–100 scale fails on the first call, not the first
    non-empty one.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary_ms(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 of a seconds sample, in milliseconds.

    The shape ``MatchingService.metrics()`` reports, and with it
    ``repro serve`` and the ``/metrics`` endpoint.
    """
    return {
        "latency_p50_ms": percentile(seconds, 0.50) * 1000.0,
        "latency_p95_ms": percentile(seconds, 0.95) * 1000.0,
        "latency_p99_ms": percentile(seconds, 0.99) * 1000.0,
    }


class Gauge:
    """A float meter: ``set`` for levels, ``add`` for accumulators.

    Gauges are wall-clock-shaped (phase seconds, queue depths) and are
    therefore always volatile — :func:`~repro.mapreduce.state.
    strip_volatile_counters` drops the whole gauge section before any
    bit-identical comparison.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> None:
        """Replace the gauge's value (levels: queue depth, liveness)."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Accumulate into the gauge (meters: seconds spent per phase)."""
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value!r})"


class Histogram:
    """A fixed-bucket histogram.

    Parameters
    ----------
    upper_bounds:
        Ascending bucket upper bounds (``le`` semantics: bucket ``i``
        counts observations ``<= upper_bounds[i]``); an overflow
        (``+Inf``) bucket is implicit.  Buckets are fixed at creation.
    volatile:
        ``True`` for wall-clock distributions: stripped by
        ``strip_volatile_counters`` before bit-identical comparisons,
        like the spill counters.  Count-valued histograms stay
        ``False`` and join the determinism contract.
    keep_samples:
        Retain every raw observation, in observe order, as
        :attr:`samples`.  Used for the serving flush-latency sample,
        which is small; leave off for per-record distributions.
    """

    __slots__ = (
        "upper_bounds",
        "bucket_counts",
        "count",
        "total",
        "minimum",
        "maximum",
        "volatile",
        "samples",
    )

    def __init__(
        self,
        upper_bounds: Sequence[float] = TIMING_BUCKETS,
        volatile: bool = False,
        keep_samples: bool = False,
    ) -> None:
        bounds = tuple(float(b) for b in upper_bounds)
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly ascending: {bounds}"
            )
        self.upper_bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.volatile = volatile
        self.samples: Optional[List[float]] = [] if keep_samples else None

    def spec(self) -> Tuple:
        """The identity a second registration must match."""
        return (self.upper_bounds, self.volatile, self.samples is not None)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.upper_bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self.samples is not None:
            self.samples.append(value)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict export (what the exporter and tests consume)."""
        return {
            "le": list(self.upper_bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "volatile": self.volatile,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, sum={self.total:.6g}, "
            f"buckets={len(self.upper_bounds)}, "
            f"volatile={self.volatile})"
        )


class Counters:
    """A two-level ``group -> name -> integer`` counter map.

    Hadoop-style counters meter the two quantities the paper reports:
    every simulated job increments global and per-job counters for
    input/output/shuffled records, and drivers count rounds.  Increments
    are cheap, reads return plain integers, and a snapshot can be
    exported as nested dictionaries for reporting.

    Counters are also the unit of *task-local metering* for every
    execution backend (see :mod:`repro.mapreduce.executors`): each task
    attempt increments a private instance, which the runtime
    :meth:`merge`\\ s into the shared one in task-index order once the
    task completes.  Merging is pure integer addition — commutative and
    associative — so the merged totals are identical across backends
    and regardless of completion order.  Instances are picklable so
    tasks can return them across process boundaries.

    >>> c = Counters()
    >>> c.increment("shuffle", "records", 10)
    >>> c.get("shuffle", "records")
    10
    """

    def __init__(self) -> None:
        self._groups: Dict[str, Dict[str, int]] = {}

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` in ``group``."""
        names = self._groups.setdefault(group, {})
        names[name] = names.get(name, 0) + amount

    def get(self, group: str, name: str) -> int:
        """Return the current value of a counter (0 if never incremented)."""
        return self._groups.get(group, {}).get(name, 0)

    def group(self, group: str) -> Dict[str, int]:
        """Return a copy of all counters in ``group``."""
        return dict(self._groups.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Add every counter of ``other`` into this instance.

        This is how per-task counters reach the runtime's shared
        instance; it never aliases ``other``'s storage.
        """
        for group, names in other._groups.items():
            mine = self._groups.setdefault(group, {})
            for name, value in names.items():
                mine[name] = mine.get(name, 0) + value

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Export all counters as plain nested dictionaries."""
        return {group: dict(names) for group, names in self._groups.items()}

    def reset(self) -> None:
        """Zero out every counter."""
        self._groups.clear()

    def __iter__(self) -> Iterator[Tuple[str, str, int]]:
        """Iterate over ``(group, name, value)`` triples, sorted."""
        for group in sorted(self._groups):
            for name in sorted(self._groups[group]):
                yield group, name, self._groups[group][name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(f"{g}.{n}={v}" for g, n, v in self)
        return f"Counters({entries})"


class MetricsRegistry:
    """One ``group -> name`` namespace over all three metric kinds.

    Parameters
    ----------
    counters:
        Optional external :class:`Counters` store; a fresh one if
        omitted.  The runtime passes its own instance, so
        ``registry.counters`` and ``runtime.counters`` are the *same*
        counters — migration without a parallel universe.
    """

    def __init__(self, counters: Optional[Counters] = None) -> None:
        self.counters = counters if counters is not None else Counters()
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}

    # -- gauges ------------------------------------------------------------

    def gauge(self, group: str, name: str) -> Gauge:
        """The gauge for ``(group, name)``, created on first use."""
        key = (group, name)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    # -- histograms --------------------------------------------------------

    def histogram(
        self,
        group: str,
        name: str,
        upper_bounds: Sequence[float] = TIMING_BUCKETS,
        volatile: bool = False,
        keep_samples: bool = False,
    ) -> Histogram:
        """The histogram for ``(group, name)``, created on first use.

        A second caller must agree on the spec (bounds / volatility /
        sample retention): silently divergent buckets would make the
        distribution mean different things to its observers.
        """
        key = (group, name)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(
                upper_bounds, volatile=volatile, keep_samples=keep_samples
            )
            return histogram
        requested = (
            tuple(float(b) for b in upper_bounds),
            volatile,
            keep_samples,
        )
        if histogram.spec() != requested:
            raise ValueError(
                f"histogram {group}.{name} already registered with "
                f"spec {histogram.spec()}, requested {requested}"
            )
        return histogram

    def observe(
        self,
        group: str,
        name: str,
        value: float,
        upper_bounds: Sequence[float] = TIMING_BUCKETS,
        volatile: bool = False,
        keep_samples: bool = False,
    ) -> None:
        """Shorthand: fetch-or-create the histogram and observe once."""
        self.histogram(
            group,
            name,
            upper_bounds,
            volatile=volatile,
            keep_samples=keep_samples,
        ).observe(value)

    # -- export ------------------------------------------------------------

    def gauges(self) -> Iterator[Tuple[str, str, Gauge]]:
        """Iterate ``(group, name, gauge)``, sorted."""
        for group, name in sorted(self._gauges):
            yield group, name, self._gauges[(group, name)]

    def histograms(self) -> Iterator[Tuple[str, str, Histogram]]:
        """Iterate ``(group, name, histogram)``, sorted."""
        for group, name in sorted(self._histograms):
            yield group, name, self._histograms[(group, name)]

    def snapshot(self) -> Dict[str, Any]:
        """Export everything as plain nested dictionaries.

        The shape (``counters`` / ``gauges`` / ``histograms`` sections)
        is what :func:`~repro.mapreduce.state.strip_volatile_counters`
        recognizes to strip the volatile parts before bit-identical
        comparisons.
        """
        gauges: Dict[str, Dict[str, float]] = {}
        for group, name, gauge in self.gauges():
            gauges.setdefault(group, {})[name] = gauge.value
        histograms: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for group, name, histogram in self.histograms():
            histograms.setdefault(group, {})[name] = histogram.snapshot()
        return {
            "counters": self.counters.snapshot(),
            "gauges": gauges,
            "histograms": histograms,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
