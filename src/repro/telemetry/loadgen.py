"""Seeded Zipf traffic for the matching service.

:func:`zipf_events` is the package's one seeded event generator.  It
generates a stream of valid events against an evolving graph —
arrivals with candidate edges to the live population, re-scores,
budget retunes and retirements — with **Zipf-skewed node selection**:
non-arrival events target node *ranks* drawn from a Zipf distribution
over the live population, so a handful of hot nodes absorb most of the
churn — the traffic shape a content site actually sees, and the one
that stresses the matcher's repair plan (hot neighborhoods stay hot).
Validity holds by construction: every generated event is applied to a
*mirror* graph via :func:`~repro.service.events.apply_event`, the same
semantic authority the matcher uses.  The arrival/edge/capacity/
retirement mix is configurable.  Same ``(graph, count, seed, skew,
mix)`` always yields the same stream.

``repro serve``, ``repro chaos``, the examples' live modes, the service
tests and the serving workloads of the benchmark of record
(``benchmarks/e2e/workloads.py``) all draw their event streams from
here; the benchmark drives them with its own closed and open loops.

This module imports the service layer, so it is *not* re-exported from
``repro.telemetry`` (the mapreduce layer imports that package);
import it explicitly as ``repro.telemetry.loadgen``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Mapping, Sequence, Tuple

from ..graph import Graph
from ..service.events import (
    Arrival,
    CapacityChange,
    EdgeArrival,
    Event,
    Retirement,
    apply_event,
    plain_graph,
)

__all__ = [
    "DEFAULT_MIX",
    "zipf_events",
]

#: Default event mix: 45 % arrivals, 20 % edge arrivals (re-scores),
#: 20 % capacity changes (budget retunes) and 15 % retirements.
DEFAULT_MIX: Mapping[str, float] = {
    "arrival": 0.45,
    "edge": 0.20,
    "capacity": 0.20,
    "retirement": 0.15,
}

#: Weight grid for generated edges — coarse enough to keep the total
#: edge order's tie-breaking exercised, like the test strategies do.
_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0, 10.0)


class _ZipfPicker:
    """Draw node *ranks* from a Zipf distribution, deterministically.

    Rank ``k`` (1-based, over the sorted live population) carries
    weight ``k**-skew``; the cumulative table is rebuilt only when the
    population size changes.  ``skew=0`` degenerates to uniform.
    """

    def __init__(self, rng: random.Random, skew: float) -> None:
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.rng = rng
        self.skew = skew
        self._size = 0
        self._cumulative: List[float] = []

    def _table(self, size: int) -> List[float]:
        if size != self._size:
            weights = [
                (rank + 1) ** -self.skew for rank in range(size)
            ]
            self._cumulative = list(accumulate(weights))
            self._size = size
        return self._cumulative

    def pick(self, population: Sequence[str]) -> str:
        """One Zipf-ranked draw from the sorted population."""
        cumulative = self._table(len(population))
        point = self.rng.random() * cumulative[-1]
        return population[bisect_left(cumulative, point)]

    def sample(
        self, population: Sequence[str], count: int
    ) -> List[str]:
        """Up to ``count`` *distinct* Zipf-ranked draws.

        Rejection-samples duplicates with a bounded number of draws —
        with a hot head, distinct hits get rare, and the generator must
        stay O(count) per event — so fewer than ``count`` picks can
        come back.  Deterministic for a deterministic ``rng``.
        """
        picked: List[str] = []
        seen = set()
        attempts = 0
        limit = 8 * count + 8
        while len(picked) < count and attempts < limit:
            attempts += 1
            choice = self.pick(population)
            if choice not in seen:
                seen.add(choice)
                picked.append(choice)
        return picked


def _normalized_mix(mix: Mapping[str, float]) -> Dict[str, float]:
    unknown = set(mix) - set(DEFAULT_MIX)
    if unknown:
        raise ValueError(
            f"unknown event kinds in mix: {sorted(unknown)}; "
            f"expected a subset of {sorted(DEFAULT_MIX)}"
        )
    full = {kind: float(mix.get(kind, 0.0)) for kind in DEFAULT_MIX}
    if any(share < 0 for share in full.values()):
        raise ValueError(f"mix shares must be >= 0: {mix}")
    total = sum(full.values())
    if total <= 0:
        raise ValueError("mix must have at least one positive share")
    return {kind: share / total for kind, share in full.items()}


def zipf_events(
    graph: Graph,
    count: int,
    seed: int = 0,
    skew: float = 1.1,
    mix: Mapping[str, float] = DEFAULT_MIX,
    node_prefix: str = "zipf",
    max_edges_per_arrival: int = 3,
) -> Tuple[List[Event], Graph]:
    """Generate ``count`` valid events with Zipf-skewed node targeting.

    Returns ``(events, final_graph)``: the mirror graph after every
    event applied is the cold-batch reference for the service's
    bit-identical re-convergence contract.  The input graph is not
    mutated.  ``skew`` is the Zipf exponent over node ranks
    (sorted name order; ``0`` = uniform), ``mix`` the
    arrival/edge/capacity/retirement proportions (normalized).
    """
    rng = random.Random(seed)
    picker = _ZipfPicker(rng, skew)
    shares = _normalized_mix(mix)
    thresholds = list(
        accumulate(
            shares[kind]
            for kind in ("arrival", "edge", "capacity", "retirement")
        )
    )
    mirror = plain_graph(graph)
    events: List[Event] = []
    arrivals = 0
    for _ in range(count):
        nodes = sorted(mirror.nodes())
        roll = rng.random()
        event: Event
        if roll < thresholds[0] or len(nodes) < 2:
            # New nodes attach preferentially to the hot head — the
            # rich-get-richer shape that keeps hot neighborhoods hot.
            name = f"{node_prefix}-{arrivals}"
            arrivals += 1
            targets = picker.sample(
                nodes,
                min(
                    len(nodes),
                    rng.randint(0, max_edges_per_arrival),
                ),
            )
            event = Arrival(
                node=name,
                capacity=rng.randint(1, 3),
                edges=tuple(
                    (target, rng.choice(_WEIGHTS))
                    for target in targets
                ),
            )
        elif roll < thresholds[1]:
            pair = picker.sample(nodes, 2)
            if len(pair) < 2:  # pragma: no cover - needs a tiny graph
                pair = rng.sample(nodes, 2)
            event = EdgeArrival(
                u=pair[0], v=pair[1], weight=rng.choice(_WEIGHTS)
            )
        elif roll < thresholds[2]:
            event = CapacityChange(
                node=picker.pick(nodes), capacity=rng.randint(0, 3)
            )
        else:
            event = Retirement(node=picker.pick(nodes))
        apply_event(mirror, event)
        events.append(event)
    return events, mirror
