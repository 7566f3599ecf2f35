"""Collection statistics used by prefix filtering.

The pruned inverted index of Baraglia et al. needs, for every term, an
upper bound on the weight that term can contribute in the *other*
collection; :func:`max_term_weights` computes those bounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

__all__ = ["max_term_weights"]


def max_term_weights(
    vectors: Iterable[Mapping[str, float]],
) -> Dict[str, float]:
    """Per-term maximum weight over a collection of sparse vectors."""
    bounds: Dict[str, float] = {}
    for vector in vectors:
        for term, weight in vector.items():
            if weight > bounds.get(term, 0.0):
                bounds[term] = weight
    return bounds

