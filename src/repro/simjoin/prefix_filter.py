"""Prefix filtering for threshold dot-product joins (§5.1).

The candidate-edge step must find all item-consumer pairs with
``dot(v(t), v(c)) >= σ`` without materializing ``O(|T|·|C|)`` pairs.
Following Baraglia et al.'s scheme, we index only a *prefix* of each
item vector and probe the pruned index with full consumer vectors.

Correctness.  Let ``maxw(j)`` be the maximum weight of term ``j`` over
all consumer vectors, and split an item vector's terms into a prefix
``P`` and a suffix ``S`` such that

    Σ_{j∈S} w_t(j) · maxw(j)  <  σ.

For any consumer ``c`` sharing *no* prefix term with ``t``::

    dot(t, c) = Σ_{j∈S} w_t(j) · w_c(j) ≤ Σ_{j∈S} w_t(j) · maxw(j) < σ,

so every pair at or above the threshold shares at least one indexed
term.  The bound holds for *any* prefix/suffix split satisfying the
inequality, so we greedily put the largest-contribution terms in the
prefix, which minimizes the index size.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

__all__ = ["prefix_terms", "suffix_bound"]


def suffix_bound(
    vector: Mapping[str, float],
    max_weights: Mapping[str, float],
) -> float:
    """The optimistic dot-product bound ``Σ_j w(j)·maxw(j)``."""
    return sum(
        weight * max_weights.get(term, 0.0)
        for term, weight in vector.items()
    )


def prefix_terms(
    vector: Mapping[str, float],
    max_weights: Mapping[str, float],
    sigma: float,
) -> List[str]:
    """The terms of ``vector`` to index for threshold ``sigma``.

    Returns the shortest largest-contribution-first prefix whose
    complement's optimistic bound is below ``sigma``.  An empty list
    means the vector cannot reach ``sigma`` against any counterpart and
    can be skipped entirely.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    contributions = sorted(
        (
            (term, weight * max_weights.get(term, 0.0))
            for term, weight in vector.items()
        ),
        key=lambda item: (-item[1], item[0]),
    )
    tail = sum(contribution for _, contribution in contributions)
    if tail < sigma:
        return []
    prefix: List[str] = []
    for term, contribution in contributions:
        if tail < sigma:
            break
        prefix.append(term)
        tail -= contribution
    return prefix
