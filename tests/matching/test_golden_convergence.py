"""Golden convergence pins for every MapReduce matcher.

``golden_convergence.json`` pins, for each of the five MapReduce
matchers — GreedyMR, StackMR under its three marking strategies, and
the maximal b-matching subroutine called directly — on five seeded
graphs (flickr-small, zipf, the ascending path, duplicate weights and
zero-capacity nodes):

* the matched edges, ``value_history``, rounds and layers,
* ``mr_jobs`` and the runtime's ``job_log``,
* the duals and the certified dual bound (stack matchers),
* the exact ``shuffle.records`` and ``iteration.*`` counter totals of
  the resident-state plane.

It mirrors ``tests/mapreduce/golden_hashes.json``: the matrix tests
prove the backends agree with *each other*, the golden file proves
they agree with *yesterday* — a refactor that silently changes round
dynamics (an extra round, a different tie-break, a reordered float
sum) or shuffle volume fails here even if it stays self-consistent.
Every case runs on the top-level ``runtime`` fixture, so each
execution backend (and the ``REPRO_TEST_FS`` /
``REPRO_TEST_SPILL_THRESHOLD`` storage cell) is held to the same pins.

The file was generated while a second, full-state plane (node
records shuffled every round) still existed, with both planes asserted
equal on every pinned field except the counters, which are the
resident plane's.  Since that plane was deleted only counters have
changed: the maximal subroutine's switch to sparse messages (marks,
selections, demotions and death notices) regenerated the
``mr_maximal`` and stack rows, and every other field stayed
byte-identical.  GreedyMR's sparse first broadcast (a seeded record
ships only its proposals; an absent inbox entry means "not proposed")
moved only the ``shuffle.records`` of the five ``greedy_mr`` rows.

Regenerate (only for a deliberate, CHANGES.md-worthy semantic change)::

    PYTHONPATH=src python tests/matching/test_golden_convergence.py
"""

import functools
import json
import os
import random

import pytest

from repro.graph import Graph, ascending_path, random_bipartite, random_graph
from repro.mapreduce import Counters, MapReduceRuntime
from repro.matching import (
    greedy_mr_b_matching,
    mr_maximal_b_matching,
    stack_mr_b_matching,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_convergence.json"
)

#: The seed every randomized matcher runs with.
SEED = 7


def _flickr_graph():
    """A small but non-trivial Problem-1 instance (§6 generative model)."""
    from repro.datasets import load_dataset

    dataset = load_dataset("flickr-small", seed=1, scale=0.05)
    return dataset.graph(sigma=2.0, alpha=2.0)


def _zipf_graph():
    """A power-law-weighted bipartite instance (Figure 6's heavy tail)."""
    from repro.datasets.zipf import discrete_power_law

    rng = random.Random(20110829)  # the paper's VLDB year, why not

    def zipf_weight(r: random.Random) -> float:
        return float(discrete_power_law(r, 1.8, minimum=1, maximum=60))

    return random_bipartite(
        num_items=40,
        num_consumers=25,
        edge_probability=0.18,
        rng=rng,
        weight_sampler=zipf_weight,
        max_capacity=4,
    )


def _duplicate_weight_graph():
    """A general graph whose edges share three weights: ties everywhere."""
    return random_graph(
        18,
        0.3,
        rng=random.Random(11),
        weight_sampler=lambda r: r.choice((1.0, 2.0, 3.0)),
        max_capacity=3,
    )


def _zero_capacity_graph():
    """A general graph in which every third node has ``b = 0``."""
    graph: Graph = random_graph(
        18, 0.3, rng=random.Random(13), max_capacity=3
    )
    for index, node in enumerate(sorted(graph.nodes())):
        if index % 3 == 0:
            graph.add_node(node, 0)
    return graph


GRAPHS = {
    "flickr-small": _flickr_graph,
    "zipf": _zipf_graph,
    "ascending-path": lambda: ascending_path(20),
    "duplicate-weights": _duplicate_weight_graph,
    "zero-capacity": _zero_capacity_graph,
}

#: Stack matchers by marking strategy.
STACK_STRATEGIES = {
    "stack_mr": "uniform",
    "stack_greedy_mr": "greedy",
    "stack_weighted_mr": "weighted",
}

MATCHERS = ["greedy_mr", *STACK_STRATEGIES, "mr_maximal"]


@functools.lru_cache(maxsize=None)
def _graph(name):
    return GRAPHS[name]()


def _measure(matcher, graph, runtime):
    """Every pinned field of one run, counters included."""
    if matcher == "mr_maximal":
        matched, rounds = mr_maximal_b_matching(
            graph.adjacency_copy(),
            graph.capacities(),
            runtime,
            seed=SEED,
            strategy="uniform",
        )
        row = {
            "edges": [[u, v, w] for (u, v), w in sorted(matched.items())],
            "rounds": rounds,
            "mr_jobs": runtime.jobs_executed,
        }
    else:
        if matcher == "greedy_mr":
            result = greedy_mr_b_matching(graph, runtime=runtime)
        else:
            result = stack_mr_b_matching(
                graph,
                seed=SEED,
                strategy=STACK_STRATEGIES[matcher],
                runtime=runtime,
            )
        row = {
            "edges": [list(edge) for edge in result.matching.edges()],
            "value_history": result.value_history,
            "rounds": result.rounds,
            "layers": result.layers,
            "mr_jobs": result.mr_jobs,
            "duals": result.duals,
            "dual_upper_bound": result.dual_upper_bound,
        }
    row["job_log"] = list(runtime.job_log)
    counters = runtime.counters.group("runtime")
    row["counters"] = {
        name: counters.get(name, 0)
        for name in (
            "shuffle.records",
            "iteration.resident_records",
            "iteration.delta_records",
            "iteration.quiescent_records",
        )
    }
    return row


def _load():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("matcher", MATCHERS)
def test_convergence_pinned(matcher, graph_name, runtime):
    expected = _load()[matcher][graph_name]
    measured = _measure(matcher, _graph(graph_name), runtime)
    # Compare the headline fields first for a readable failure, then all.
    assert measured["rounds"] == expected["rounds"]
    assert measured["edges"] == expected["edges"]
    assert measured == expected


def test_golden_curves_are_nontrivial():
    """The pinned workloads must actually exercise convergence."""
    golden = _load()
    assert sorted(golden) == sorted(MATCHERS)
    for matcher, rows in golden.items():
        assert sorted(rows) == sorted(GRAPHS), matcher
        for graph_name, row in rows.items():
            assert row["edges"] and row["rounds"] >= 1, (matcher, graph_name)
            assert row["counters"]["shuffle.records"] > 0
            assert len(row["job_log"]) == row["mr_jobs"]
    for graph_name, row in golden["greedy_mr"].items():
        history = row["value_history"]
        assert len(history) == row["rounds"], graph_name
        assert all(b >= a for a, b in zip(history, history[1:]))
    assert golden["greedy_mr"]["flickr-small"]["rounds"] >= 4
    assert golden["greedy_mr"]["ascending-path"]["rounds"] >= 10
    for matcher in STACK_STRATEGIES:
        for row in golden[matcher].values():
            assert row["layers"] >= 1 and row["duals"]


def _reference_runtime() -> MapReduceRuntime:
    return MapReduceRuntime(
        num_map_tasks=4, num_reduce_tasks=4, counters=Counters()
    )


def _regenerate() -> None:
    golden = {
        matcher: {
            graph_name: _measure(
                matcher, _graph(graph_name), _reference_runtime()
            )
            for graph_name in sorted(GRAPHS)
        }
        for matcher in MATCHERS
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"-> {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
