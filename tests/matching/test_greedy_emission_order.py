"""GreedyMR's emission order, pinned at the last ulp.

``Matching.add`` keeps ``value`` as a running float sum in the order
matched edges are emitted, so ``value_history`` depends on the order in
which one node emits several same-round matches.  That order is the
node's *adjacency insertion order* — not its rank order — and nothing
else in the suite can tell the two apart: the golden convergence curves
use integer weights, and every other history assertion is ``approx``.

``golden_emission_order.json`` holds graphs whose weights are not
dyadic (``(0.1 + 0.2) + 0.3 != 0.3 + (0.2 + 0.1)``) together with the
matching, ``value_history``, round count and ``job_log`` they produce.
The first is a star whose hub sorts before its leaves, ``b(hub) = 3``,
leaf weights inserted ascending; the rest were drawn with hypothesis
(mixed node names, duplicate weights, capacities up to 4, 1500
examples) and kept when emitting each node's same-round matches in rank
order instead would have changed ``value_history``.  The expectations
were **frozen from the commit before the rank-once node kernel**
(0c8def3) and must not move.

Regenerate the expectations of the stored graphs (only for a
deliberate, CHANGES.md-worthy semantic change)::

    PYTHONPATH=src python tests/matching/test_greedy_emission_order.py
"""

import json
import os

import pytest

from repro.graph import Graph
from repro.mapreduce import Counters, MapReduceRuntime
from repro.matching import greedy_mr_b_matching

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden_emission_order.json",
)


def _graph(spec) -> Graph:
    """Rebuild a stored graph; edge order is adjacency insertion order."""
    graph = Graph()
    for node, capacity in spec["nodes"]:
        graph.add_node(node, capacity)
    for u, v, weight in spec["edges"]:
        graph.add_edge(u, v, weight)
    return graph


def _measure(graph: Graph, runtime: MapReduceRuntime):
    result = greedy_mr_b_matching(graph, runtime=runtime)
    return {
        "matching": [list(edge) for edge in result.matching.edges()],
        "value_history": result.value_history,
        "rounds": result.rounds,
        "job_log": list(runtime.job_log),
    }


def _load():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


CASES = _load()


def test_star_is_order_sensitive():
    """The pin can tell the two emission orders apart at all."""
    star = CASES[0]
    assert star["name"] == "star-hub-first"
    weights = [weight for _, _, weight in star["edges"]]
    assert weights == [0.1, 0.2, 0.3]
    in_adjacency_order = (weights[0] + weights[1]) + weights[2]
    in_rank_order = (weights[2] + weights[1]) + weights[0]
    assert in_adjacency_order != in_rank_order
    assert star["expected"]["value_history"] == [in_adjacency_order]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_emission_order_frozen_from_parent(case, runtime):
    """Every backend: exactly the parent's floats."""
    measured = _measure(_graph(case), runtime)
    # JSON round-trips floats exactly (repr), so == is bit-identity.
    assert measured == case["expected"]


if __name__ == "__main__":
    cases = _load()
    for case in cases:
        case["expected"] = _measure(
            _graph(case),
            MapReduceRuntime(
                num_map_tasks=4, num_reduce_tasks=4, counters=Counters()
            ),
        )
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(cases, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
