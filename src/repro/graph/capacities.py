"""Capacity (budget) assignment rules from Section 4 of the paper.

The paper derives capacities from application signals:

* consumers: ``b(u) = α · n(u)`` where ``n(u)`` proxies login activity
  (photos posted on flickr, answers given on Yahoo! Answers) and ``α``
  scales the overall system activity;
* the total consumer bandwidth ``B = Σ_c b(c)`` upper-bounds the number of
  delivered items, so item budgets are carved out of ``B``:

  - without quality assessment: ``b(t) = max{1, B/|T|}`` (uniform; used
    for yahoo-answers questions),
  - with quality scores ``q(t)`` (Σ q = 1): ``b(t) = max{1, q(t)·B}``
    (used for flickr with favorites as the quality proxy).

Capacities are integers (``b : V → N``); fractional formulas are rounded
half-up, with a floor of 1 so that every node can participate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

__all__ = [
    "round_capacity",
    "activity_capacities",
    "uniform_item_capacities",
    "quality_item_capacities",
    "total_bandwidth",
]


def round_capacity(value: float) -> int:
    """Round a fractional budget to an integer capacity, at least 1.

    Uses round-half-up (not banker's rounding) so capacity sequences are
    monotone in the underlying score.
    """
    return max(1, int(math.floor(value + 0.5)))


def activity_capacities(
    activity: Mapping[str, float], alpha: float
) -> Dict[str, int]:
    """Consumer capacities ``b(u) = α·n(u)`` (rounded, at least 1).

    ``activity`` maps consumer id to the activity proxy ``n(u)``; ``alpha``
    is the paper's activity multiplier (higher α simulates higher system
    activity).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return {
        node: round_capacity(alpha * n) for node, n in activity.items()
    }


def total_bandwidth(consumer_capacities: Mapping[str, int]) -> int:
    """The total distribution bandwidth ``B = Σ_c b(c)``."""
    return int(sum(consumer_capacities.values()))


def uniform_item_capacities(
    items: Iterable[str], bandwidth: int
) -> Dict[str, int]:
    """Item capacities without quality assessment: ``b(t) = max{1, B/|T|}``.

    Used for the yahoo-answers dataset, where every question gets the same
    budget ``b(q) = Σ_u α n(u) / |Q|``.
    """
    items = list(items)
    if not items:
        return {}
    share = bandwidth / len(items)
    return {item: round_capacity(share) for item in items}


def quality_item_capacities(
    quality: Mapping[str, float], bandwidth: int
) -> Dict[str, int]:
    """Item capacities proportional to quality: ``b(t) = max{1, q(t)·B}``.

    ``quality`` holds *unnormalized* non-negative scores (e.g. flickr
    favorite counts ``f(p)``); they are normalized internally so that
    ``Σ_t q(t) = 1`` as the paper assumes.  Zero-quality items still get
    the floor capacity of 1.
    """
    total = float(sum(quality.values()))
    if total < 0 or any(q < 0 for q in quality.values()):
        raise ValueError("quality scores must be non-negative")
    if total == 0:
        return {item: 1 for item in quality}
    return {
        item: round_capacity(q / total * bandwidth)
        for item, q in quality.items()
    }
