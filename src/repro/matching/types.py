"""Result types shared by all b-matching algorithms.

A :class:`Matching` is a set of weighted edges with O(1) membership and
running totals; a :class:`MatchingResult` wraps it with the execution
metadata the paper's evaluation reports (rounds, MapReduce jobs, any-time
value history, capacity violations, dual upper bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..graph.edges import EdgeKey, edge_key
from ..graph.validation import ViolationReport, check_matching

__all__ = ["Matching", "MatchingResult"]


class Matching:
    """A set of weighted edges forming a (candidate) b-matching.

    Mutating helpers keep the total value and per-node degrees
    incrementally up to date, so the any-time experiments can query the
    current value after every round at O(1) cost.
    """

    def __init__(self) -> None:
        self._edges: Dict[EdgeKey, float] = {}
        self._degrees: Dict[str, int] = {}
        self._value = 0.0

    def add(self, u: str, v: str, weight: float) -> None:
        """Add edge ``{u, v}``; raises if it is already matched."""
        key = edge_key(u, v)
        if key in self._edges:
            raise ValueError(f"edge {key} already in matching")
        self._edges[key] = float(weight)
        self._value += weight
        for node in key:
            self._degrees[node] = self._degrees.get(node, 0) + 1

    def discard(self, u: str, v: str) -> bool:
        """Remove edge ``{u, v}`` if present; returns whether it was."""
        key = edge_key(u, v)
        weight = self._edges.pop(key, None)
        if weight is None:
            return False
        self._value -= weight
        for node in key:
            self._degrees[node] -= 1
            if self._degrees[node] == 0:
                del self._degrees[node]
        return True

    def __contains__(self, key: EdgeKey) -> bool:
        return key in self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[EdgeKey]:
        return iter(self._edges)

    @property
    def value(self) -> float:
        """Total weight of the matching (the objective of Problem 1)."""
        return self._value

    def weight(self, u: str, v: str) -> float:
        """Weight of a matched edge; raises ``KeyError`` if unmatched."""
        return self._edges[edge_key(u, v)]

    def degree(self, node: str) -> int:
        """Matched degree ``|M(v)|`` of ``node``."""
        return self._degrees.get(node, 0)

    def degrees(self) -> Dict[str, int]:
        """A copy of all non-zero matched degrees."""
        return dict(self._degrees)

    def edges(self) -> List[Tuple[str, str, float]]:
        """The matching as sorted ``(u, v, weight)`` rows."""
        return [
            (u, v, w) for (u, v), w in sorted(self._edges.items())
        ]

    def copy(self) -> "Matching":
        """An independent copy."""
        clone = Matching()
        clone._edges = dict(self._edges)
        clone._degrees = dict(self._degrees)
        clone._value = self._value
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matching(edges={len(self)}, value={self.value:.4f})"


@dataclass
class MatchingResult:
    """The output of a matching algorithm plus execution metadata.

    Attributes
    ----------
    matching:
        The computed b-matching.
    algorithm:
        Human-readable algorithm name (``"GreedyMR"``, ``"StackMR"``, ...).
    rounds:
        Algorithm-level iterations (greedy rounds; stack push+pop rounds).
    mr_jobs:
        Simulated MapReduce jobs executed (0 for centralized algorithms).
        This is the paper's efficiency metric.
    value_history:
        Any-time curve: total matching value after each round.  For
        GreedyMR this is the Figure 5 series.
    duals:
        Final dual variables ``y_v`` (stack algorithms only).
    dual_upper_bound:
        ``(3+2ε)·Σ_v y_v`` — a certified upper bound on the optimum
        derived from dual feasibility of the scaled duals (stack
        algorithms only).
    layers:
        Number of stack layers (stack algorithms only).
    """

    matching: Matching
    algorithm: str
    rounds: int = 0
    mr_jobs: int = 0
    value_history: List[float] = field(default_factory=list)
    duals: Optional[Dict[str, float]] = None
    dual_upper_bound: Optional[float] = None
    layers: int = 0

    @property
    def value(self) -> float:
        """Total weight of the matching."""
        return self.matching.value

    def violations(
        self, capacities: Mapping[str, int]
    ) -> ViolationReport:
        """Capacity-violation report (the ε′ statistic of Figure 4)."""
        return check_matching(capacities, iter(self.matching))

    def iterations_to_fraction(self, fraction: float) -> Optional[int]:
        """First round whose value reaches ``fraction`` of the final value.

        Supports the Figure 5 analysis ("GreedyMR reaches 95% of its
        final b-matching value within X% of the iterations").  Returns
        ``None`` when no history was recorded.
        """
        if not self.value_history:
            return None
        target = fraction * self.value_history[-1]
        for round_number, value in enumerate(self.value_history, start=1):
            if value >= target:
                return round_number
        return len(self.value_history)
