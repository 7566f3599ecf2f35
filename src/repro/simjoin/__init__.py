"""Similarity join: candidate-edge generation with prefix filtering (§5.1).

Public surface::

    from repro.simjoin import candidate_edges
    edges = candidate_edges(item_vectors, consumer_vectors, sigma=0.5,
                            method="mapreduce")
"""

from .allpairs import exact_similarity_join, scipy_similarity_join
from .api import JOIN_METHODS, candidate_edges
from .mr_join import (
    CandidateJob,
    TermBoundsJob,
    VerifyJob,
    mapreduce_similarity_join,
    similarity_join_pipeline,
)
from .prefix_filter import prefix_terms, suffix_bound
from .stats import max_term_weights
from .subscriptions import filter_by_subscription, subscription_join

__all__ = [
    "CandidateJob",
    "JOIN_METHODS",
    "TermBoundsJob",
    "VerifyJob",
    "candidate_edges",
    "exact_similarity_join",
    "filter_by_subscription",
    "mapreduce_similarity_join",
    "max_term_weights",
    "prefix_terms",
    "scipy_similarity_join",
    "similarity_join_pipeline",
    "subscription_join",
    "suffix_bound",
]
