"""Sparse term vectors and their algebra.

Items and consumers are represented in a vector space (§4 of the paper):
photos by their tags, users by the tags they used, questions/answerers by
tf·idf-weighted words.  A vector is a plain ``dict`` from term to weight —
trivially serializable through the MapReduce shuffle.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping

__all__ = [
    "TermVector",
    "from_counts",
    "dot",
    "norm",
    "add",
    "scale",
]

#: A sparse term vector: term -> non-negative weight.
TermVector = Dict[str, float]


def from_counts(terms: Iterable[str]) -> TermVector:
    """Build a raw term-frequency vector from a token stream."""
    return {term: float(count) for term, count in Counter(terms).items()}


def dot(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Dot product of two sparse vectors.

    This is the paper's edge-weight function for the flickr datasets:
    ``w(t_i, c_j) = v(t_i) · v(c_j)``.
    """
    if len(a) > len(b):
        a, b = b, a
    return sum(weight * b[term] for term, weight in a.items() if term in b)


def norm(vector: Mapping[str, float]) -> float:
    """Euclidean norm of a sparse vector."""
    return math.sqrt(sum(weight * weight for weight in vector.values()))


def add(a: Mapping[str, float], b: Mapping[str, float]) -> TermVector:
    """Component-wise sum of two sparse vectors."""
    result: TermVector = dict(a)
    for term, weight in b.items():
        result[term] = result.get(term, 0.0) + weight
    return result


def scale(vector: Mapping[str, float], factor: float) -> TermVector:
    """Multiply every component by ``factor``."""
    return {term: weight * factor for term, weight in vector.items()}

