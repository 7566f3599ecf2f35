"""Dataset containers and the shared topic-model text generator.

A :class:`Dataset` bundles the item and consumer vector stores with the
application signals the paper derives capacities from (§4): consumer
activity ``n(u)`` and item quality ``f(p)``.  It exposes

* ``edges(sigma)`` — the candidate-edge list (cached: the join runs once
  at the smallest σ requested and is filtered for larger σ, which is how
  the σ-sweep experiments stay cheap);
* ``graph(sigma, alpha)`` — the full Problem-1 instance, with the
  paper's capacity formulas applied;
* σ-selection helpers used by the edge-count sweeps of Figures 1–3.

Documents are produced by a small topic model: each *topic* is a Zipf
distribution over a permuted vocabulary, each *author* draws a Dirichlet
topic mixture, and each document samples its tokens topic-first.  This
yields the overlapping-interest structure that makes the similarity
distributions heavy-tailed, as in the paper's Figure 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.bipartite import BipartiteGraph
from ..graph.capacities import (
    activity_capacities,
    quality_item_capacities,
    total_bandwidth,
    uniform_item_capacities,
)
from ..simjoin.api import candidate_edges
from ..text.vectors import TermVector
from .zipf import ZipfSampler

__all__ = ["Dataset", "TopicModel"]

JoinRow = Tuple[str, str, float]


class TopicModel:
    """A seeded topic-mixture generator over a synthetic vocabulary."""

    def __init__(
        self,
        vocabulary_size: int,
        num_topics: int,
        zipf_exponent: float = 1.05,
        mixture_concentration: float = 0.25,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.rng = rng or random.Random(0)
        self.vocabulary = [f"w{i}" for i in range(vocabulary_size)]
        self.num_topics = num_topics
        self.concentration = mixture_concentration
        self._sampler = ZipfSampler(vocabulary_size, zipf_exponent)
        # Each topic re-ranks the vocabulary with its own permutation.
        self._topic_orders: List[List[int]] = []
        base = list(range(vocabulary_size))
        for _ in range(num_topics):
            order = base[:]
            self.rng.shuffle(order)
            self._topic_orders.append(order)

    def mixture(self) -> List[float]:
        """Draw a Dirichlet topic mixture for an author."""
        draws = [
            self.rng.gammavariate(self.concentration, 1.0)
            for _ in range(self.num_topics)
        ]
        total = sum(draws) or 1.0
        return [draw / total for draw in draws]

    def document(
        self, mixture: Sequence[float], length: int
    ) -> TermVector:
        """Sample a document of ``length`` tokens from ``mixture``."""
        counts: Dict[str, float] = {}
        cumulative: List[float] = []
        running = 0.0
        for probability in mixture:
            running += probability
            cumulative.append(running)
        for _ in range(length):
            pick = self.rng.random() * running
            topic = 0
            while cumulative[topic] < pick:
                topic += 1
            rank = self._sampler.sample(self.rng)
            word = self.vocabulary[self._topic_orders[topic][rank]]
            counts[word] = counts.get(word, 0.0) + 1.0
        return counts


@dataclass
class Dataset:
    """A synthetic stand-in for one of the paper's three datasets.

    ``item_owner`` and ``subscriptions`` are populated by generators
    that model a social graph (the flickr stand-ins) and power the §4
    subscription-restricted candidate-edge scenario; they stay empty
    for corpora without a follow graph.
    """

    name: str
    items: Dict[str, TermVector]
    consumers: Dict[str, TermVector]
    consumer_activity: Dict[str, float]
    item_quality: Dict[str, float] = field(default_factory=dict)
    capacity_scheme: str = "quality"  # "quality" (flickr) or "uniform"
    join_method: str = "auto"
    item_owner: Dict[str, str] = field(default_factory=dict)
    subscriptions: Dict[str, frozenset] = field(default_factory=dict)
    _edge_cache_sigma: Optional[float] = field(default=None, repr=False)
    _edge_cache: List[JoinRow] = field(default_factory=list, repr=False)

    @property
    def num_items(self) -> int:
        """|T| — number of items."""
        return len(self.items)

    @property
    def num_consumers(self) -> int:
        """|C| — number of consumers."""
        return len(self.consumers)

    # -- candidate edges -----------------------------------------------------

    def edges(self, sigma: float, method: Optional[str] = None) -> List[JoinRow]:
        """Candidate edges at threshold ``sigma`` (cached, see above)."""
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if self._edge_cache_sigma is None or sigma < self._edge_cache_sigma:
            self._edge_cache = candidate_edges(
                self.items,
                self.consumers,
                sigma,
                method=method or self.join_method,
            )
            self._edge_cache_sigma = sigma
        return [row for row in self._edge_cache if row[2] >= sigma]

    def similarity_values(self, floor_sigma: float) -> List[float]:
        """All similarities at least ``floor_sigma`` (for Figure 6)."""
        return [weight for _, _, weight in self.edges(floor_sigma)]

    def sigma_for_edge_count(
        self, target_edges: int, floor_sigma: float
    ) -> float:
        """The threshold yielding approximately ``target_edges`` edges.

        The Figures 1–3 sweeps are parameterized by the *number of
        edges* on the x-axis; this inverts the similarity distribution
        to find the matching σ.
        """
        weights = sorted(self.similarity_values(floor_sigma), reverse=True)
        if not weights:
            return floor_sigma
        if target_edges >= len(weights):
            return floor_sigma
        return weights[max(target_edges - 1, 0)]

    # -- problem instances ------------------------------------------------------

    def capacities(
        self, alpha: float
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Item and consumer capacities per the paper's §4/§6 formulas."""
        consumer_caps = activity_capacities(self.consumer_activity, alpha)
        bandwidth = total_bandwidth(consumer_caps)
        if self.capacity_scheme == "quality":
            item_caps = quality_item_capacities(
                {item: self.item_quality.get(item, 0.0) for item in self.items},
                bandwidth,
            )
        elif self.capacity_scheme == "uniform":
            item_caps = uniform_item_capacities(self.items, bandwidth)
        else:
            raise ValueError(
                f"unknown capacity scheme {self.capacity_scheme!r}"
            )
        return item_caps, consumer_caps

    def graph(
        self,
        sigma: float,
        alpha: float,
        method: Optional[str] = None,
    ) -> BipartiteGraph:
        """Build the Problem-1 instance at ``(sigma, alpha)``."""
        item_caps, consumer_caps = self.capacities(alpha)
        return BipartiteGraph.from_edges(
            self.edges(sigma, method=method), item_caps, consumer_caps
        )

    def subscription_edges(self, sigma: float = 0.0) -> List[JoinRow]:
        """Candidate edges restricted to subscribed producer-consumer
        pairs (§4's social-network scenario).

        Requires the generator to have recorded ``item_owner`` and
        ``subscriptions``; raises otherwise rather than silently
        returning the unrestricted edges.
        """
        if not self.item_owner or not self.subscriptions:
            raise ValueError(
                f"dataset {self.name!r} has no subscription graph"
            )
        from ..simjoin.subscriptions import subscription_join

        return subscription_join(
            self.items,
            self.consumers,
            self.item_owner,
            self.subscriptions,
            sigma=sigma,
        )

    def subscription_graph(
        self, alpha: float, sigma: float = 0.0
    ) -> BipartiteGraph:
        """The Problem-1 instance over subscription-restricted edges."""
        item_caps, consumer_caps = self.capacities(alpha)
        return BipartiteGraph.from_edges(
            self.subscription_edges(sigma), item_caps, consumer_caps
        )

    def table1_row(self, sigma: float) -> Dict[str, int]:
        """|T|, |C|, |E| — the dataset-characteristics row of Table 1."""
        return {
            "items": self.num_items,
            "consumers": self.num_consumers,
            "edges": len(self.edges(sigma)),
        }
