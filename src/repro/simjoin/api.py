"""High-level candidate-edge generation API.

:func:`candidate_edges` is the entry point the datasets and examples
use: given the item and consumer vector stores and the threshold ``σ``,
it returns the candidate edge list via the requested engine.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from ..mapreduce import MapReduceRuntime
from .allpairs import exact_similarity_join, scipy_similarity_join
from .mr_join import mapreduce_similarity_join

__all__ = ["candidate_edges", "JOIN_METHODS"]

JoinRow = Tuple[str, str, float]

JOIN_METHODS = ("auto", "exact", "scipy", "mapreduce")

#: Above this many document pairs, "auto" switches to the scipy engine.
_AUTO_PAIR_THRESHOLD = 250_000


def candidate_edges(
    items: Mapping[str, Mapping[str, float]],
    consumers: Mapping[str, Mapping[str, float]],
    sigma: float,
    method: str = "auto",
    runtime: Optional[MapReduceRuntime] = None,
) -> List[JoinRow]:
    """All ``(item, consumer, weight)`` pairs with ``weight >= sigma``.

    ``method``:

    * ``"mapreduce"`` — the paper's pipeline (3 simulated jobs);
    * ``"exact"`` — pure-Python inverted-index accumulation;
    * ``"scipy"`` — blocked sparse matrix multiplication;
    * ``"auto"`` — ``exact`` for small inputs, ``scipy`` for large.

    All engines return the same pairs (tested).  Each sums a pair's
    per-term products in its own order, so weights agree up to the last
    ulp, and bit for bit when the weights are exactly representable.
    """
    if method not in JOIN_METHODS:
        raise ValueError(
            f"unknown join method {method!r}; known: {JOIN_METHODS}"
        )
    if method == "auto":
        pairs = len(items) * len(consumers)
        method = "scipy" if pairs > _AUTO_PAIR_THRESHOLD else "exact"
    if method == "exact":
        return exact_similarity_join(items, consumers, sigma)
    if method == "scipy":
        return scipy_similarity_join(items, consumers, sigma)
    return mapreduce_similarity_join(
        items, consumers, sigma, runtime=runtime
    )
