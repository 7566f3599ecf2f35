"""Graph substrate: weighted capacitated graphs for b-matching.

Public surface::

    from repro.graph import BipartiteGraph, Graph, Edge, edge_key
    from repro.graph import activity_capacities, check_matching

See :mod:`repro.graph.capacities` for the paper's budget formulas and
:mod:`repro.graph.validation` for the ε′ violation statistic of Figure 4.
"""

from .bipartite import CONSUMER_SIDE, ITEM_SIDE, BipartiteGraph, Graph
from .capacities import (
    activity_capacities,
    quality_item_capacities,
    round_capacity,
    total_bandwidth,
    uniform_item_capacities,
)
from .edges import Edge, EdgeKey, edge_key, edge_sort_key
from .generators import (
    ascending_path,
    greedy_tightness_triangle,
    random_bipartite,
    random_graph,
    star_graph,
)
from .io import read_capacities, read_edges, write_capacities, write_edges
from .validation import ViolationReport, check_matching, matching_degrees

__all__ = [
    "BipartiteGraph",
    "CONSUMER_SIDE",
    "Edge",
    "EdgeKey",
    "Graph",
    "ITEM_SIDE",
    "ViolationReport",
    "activity_capacities",
    "ascending_path",
    "check_matching",
    "edge_key",
    "edge_sort_key",
    "greedy_tightness_triangle",
    "matching_degrees",
    "quality_item_capacities",
    "random_bipartite",
    "random_graph",
    "read_capacities",
    "read_edges",
    "round_capacity",
    "star_graph",
    "total_bandwidth",
    "uniform_item_capacities",
    "write_capacities",
    "write_edges",
]
