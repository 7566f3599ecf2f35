"""Hypothesis strategies shared across the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graph import BipartiteGraph, Graph

# Weights are drawn from a grid to avoid pathological float noise while
# still producing plenty of ties broken by the edge total order.
weight_strategy = st.sampled_from(
    [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0, 10.0, 12.5, 20.0]
)

capacity_strategy = st.integers(min_value=1, max_value=4)


# Capacities for the degenerate strategies additionally allow b = 0 —
# nodes that exist but can never be matched (the §4 capacity formulas
# produce them for inactive consumers); algorithms must prune them.
degenerate_capacity_strategy = st.integers(min_value=0, max_value=3)

# A deliberately tiny weight grid: with only three values, duplicate
# weights are the norm rather than the exception, so every tie-breaking
# path through the total edge order gets exercised.
duplicate_weight_strategy = st.sampled_from([1.0, 2.0, 3.0])


def _draw_edges(draw, graph, pairs, max_edges, weights):
    """Shared edge sampler: a unique subset of ``pairs``, weighted."""
    count = draw(
        st.integers(min_value=0, max_value=min(len(pairs), max_edges))
    )
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=count,
            max_size=count,
            unique=True,
        )
    ) if pairs else []
    for u, v in chosen:
        graph.add_edge(u, v, draw(weights))
    return graph


def _bipartite_graph(
    draw, min_side, max_items, max_consumers, max_edges, capacities, weights
):
    num_items = draw(st.integers(min_value=min_side, max_value=max_items))
    num_consumers = draw(
        st.integers(min_value=min_side, max_value=max_consumers)
    )
    graph = BipartiteGraph()
    for i in range(num_items):
        graph.add_item(f"t{i}", draw(capacities))
    for j in range(num_consumers):
        graph.add_consumer(f"c{j}", draw(capacities))
    pairs = [
        (f"t{i}", f"c{j}")
        for i in range(num_items)
        for j in range(num_consumers)
    ]
    return _draw_edges(draw, graph, pairs, max_edges, weights)


def _general_graph(draw, min_nodes, max_nodes, max_edges, capacities, weights):
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(f"v{i}", draw(capacities))
    pairs = [
        (f"v{i}", f"v{j}")
        for i in range(num_nodes)
        for j in range(i + 1, num_nodes)
    ]
    return _draw_edges(draw, graph, pairs, max_edges, weights)


@st.composite
def small_bipartite_graphs(
    draw, max_items: int = 6, max_consumers: int = 5, max_edges: int = 14
):
    """Small random bipartite instances (brute-forceable)."""
    return _bipartite_graph(
        draw, 1, max_items, max_consumers, max_edges,
        capacity_strategy, weight_strategy,
    )


@st.composite
def small_general_graphs(draw, max_nodes: int = 7, max_edges: int = 12):
    """Small random general graphs (odd cycles possible)."""
    return _general_graph(
        draw, 2, max_nodes, max_edges, capacity_strategy, weight_strategy
    )


@st.composite
def degenerate_matching_graphs(draw, max_nodes: int = 7, max_edges: int = 12):
    """General graphs hitting the matching layer's edge cases.

    Possibly empty (zero nodes), possibly edgeless, with zero-capacity
    nodes, isolated nodes, and heavily duplicated weights — the inputs
    the property tests in ``tests/matching`` use to pin ``greedy_mr ==
    greedy`` and the StackMR (1+ε)-violation bound off the happy path.
    """
    return _general_graph(
        draw, 0, max_nodes, max_edges,
        degenerate_capacity_strategy, duplicate_weight_strategy,
    )


@st.composite
def degenerate_bipartite_graphs(
    draw, max_items: int = 5, max_consumers: int = 4, max_edges: int = 10
):
    """Bipartite variant of :func:`degenerate_matching_graphs`."""
    return _bipartite_graph(
        draw, 0, max_items, max_consumers, max_edges,
        degenerate_capacity_strategy, duplicate_weight_strategy,
    )


term_strategy = st.sampled_from([f"w{i}" for i in range(20)])


term_weight_strategy = st.floats(
    min_value=0.1, max_value=5.0, allow_nan=False, allow_infinity=False
)

# Term weights whose products and sums of up to eight products are
# exact in binary floating point: any summation order gives the same
# bits, so a join can be compared with its oracle by ``==``.
exact_term_weight_strategy = st.sampled_from(
    [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5]
)


@st.composite
def sparse_vectors(draw, max_terms: int = 8, weights=term_weight_strategy):
    """Small sparse term vectors with positive weights."""
    terms = draw(
        st.lists(term_strategy, min_size=1, max_size=max_terms, unique=True)
    )
    return {term: draw(weights) for term in terms}


@st.composite
def vector_collections(
    draw, max_docs: int = 6, weights=term_weight_strategy
):
    """A pair of small item / consumer vector stores."""
    num_items = draw(st.integers(min_value=1, max_value=max_docs))
    num_consumers = draw(st.integers(min_value=1, max_value=max_docs))
    items = {
        f"t{i}": draw(sparse_vectors(weights=weights))
        for i in range(num_items)
    }
    consumers = {
        f"c{j}": draw(sparse_vectors(weights=weights))
        for j in range(num_consumers)
    }
    return items, consumers
