"""repro — reproduction of "Social Content Matching in MapReduce".

De Francisci Morales, Gionis, Sozio; PVLDB 4(7):460-469, 2011.

The package implements the paper's complete pipeline on an in-process
MapReduce simulator:

* :mod:`repro.mapreduce` — the Hadoop-substitute runtime;
* :mod:`repro.graph` — capacitated graphs, budgets, validation;
* :mod:`repro.text` — term vectors, tf·idf, similarities;
* :mod:`repro.simjoin` — candidate-edge generation (similarity join
  with prefix filtering, §5.1);
* :mod:`repro.matching` — GreedyMR, StackMR, StackGreedyMR, the
  centralized references, and the exact max-flow solver;
* :mod:`repro.datasets` — synthetic flickr-like / yahoo-answers-like
  workload generators (see DESIGN.md for the substitution rationale);
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import BipartiteGraph, solve

    g = BipartiteGraph()
    g.add_item("photo", capacity=1)
    g.add_consumer("alice", capacity=2)
    g.add_edge("photo", "alice", 0.9)
    print(solve(g, "greedy_mr").value)
"""

from .graph import BipartiteGraph, Graph
from .mapreduce import MapReduceJob, MapReduceRuntime
from .matching import (
    Matching,
    MatchingResult,
    greedy_b_matching,
    greedy_mr_b_matching,
    solve,
    stack_b_matching,
    stack_mr_b_matching,
)

__version__ = "1.0.0"

__all__ = [
    "BipartiteGraph",
    "Graph",
    "MapReduceJob",
    "MapReduceRuntime",
    "Matching",
    "MatchingResult",
    "greedy_b_matching",
    "greedy_mr_b_matching",
    "solve",
    "stack_b_matching",
    "stack_mr_b_matching",
    "__version__",
]
