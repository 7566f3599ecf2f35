"""Distribution statistics for the Figure 6 / Figure 7 reproductions.

Figure 6 plots the distribution of edge similarities, Figure 7 the
distribution of capacities, for each dataset.  These helpers compute
log-binned histograms plus tail summaries (skew diagnostics used by the
shape checks listed in DESIGN.md §4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..telemetry.metrics import percentile

__all__ = ["Histogram", "log_histogram", "tail_summary"]

Bin = Tuple[float, float, int]


@dataclass
class Histogram:
    """A log-binned histogram with basic moments."""

    bins: List[Bin]
    count: int
    mean: float
    maximum: float

    def rows(self) -> List[Tuple[str, int]]:
        """Human-readable ``[lo, hi) -> count`` rows."""
        return [
            (f"[{lo:.3g}, {hi:.3g})", count) for lo, hi, count in self.bins
        ]


def log_histogram(values: Sequence[float], num_bins: int = 12) -> Histogram:
    """Histogram ``values > 0`` into geometrically spaced bins."""
    positives = [v for v in values if v > 0]
    if not positives:
        return Histogram(bins=[], count=0, mean=0.0, maximum=0.0)
    low = min(positives)
    high = max(positives)
    if high <= low:
        bins = [(low, high, len(positives))]
        return Histogram(
            bins=bins,
            count=len(positives),
            mean=sum(positives) / len(positives),
            maximum=high,
        )
    ratio = (high / low) ** (1.0 / num_bins)
    edges = [low * ratio**i for i in range(num_bins + 1)]
    edges[-1] = high * (1 + 1e-12)  # include the maximum
    counts = [0] * num_bins
    for value in positives:
        index = min(
            int(math.log(value / low) / math.log(ratio)), num_bins - 1
        )
        counts[index] += 1
    bins = [
        (edges[i], edges[i + 1], counts[i]) for i in range(num_bins)
    ]
    return Histogram(
        bins=bins,
        count=len(positives),
        mean=sum(positives) / len(positives),
        maximum=high,
    )


def tail_summary(values: Sequence[float]) -> Dict[str, float]:
    """Quantiles + top-share diagnostics of a heavy-tailed sample.

    ``top1_share`` (fraction of total mass held by the top 1% of
    values) is the skew statistic used to compare flickr-small versus
    flickr-large capacity distributions.  Quantiles use the shared
    nearest-rank :func:`~repro.telemetry.metrics.percentile` — the
    same convention as the serving latency percentiles.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {}
    total = sum(ordered)
    top1 = ordered[int(0.99 * n) :]
    return {
        "min": ordered[0],
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "p99": percentile(ordered, 0.99),
        "max": ordered[-1],
        "mean": total / n,
        "top1_share": (sum(top1) / total) if total else 0.0,
    }
