"""MapReduce driver of Garrido et al.'s maximal b-matching (§5.3).

The four stage rules live in :mod:`repro.matching.maximal`; this module
runs them on the MapReduce runtime, one job per stage (marking,
selection, matching, cleanup).  Every stage runs as a resident scan
round (:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`,
scan mode): the node records stay in a partition-aligned resident
store, and only the stage's messages — marks, selections, demotions
and death notices — and the ``("matched", u, v)`` output records enter
the shuffle.

Randomness is per-node and derived from ``stable_hash((seed, round,
stage, node))``, so runs are reproducible and independent of task
placement — exactly what a deterministic-seeded Hadoop job would do —
and equal to the in-process driver
(:func:`~repro.matching.maximal.maximal_b_matching_adjacency`), which
the centralized stack algorithm uses.  Matched edges, round counts and
job counts are those of the paper's formulation (pinned by the golden
convergence curves).  StackMR drives this loop for its inner
subroutine.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..graph.edges import EdgeKey, edge_key
from ..mapreduce import IterativeDriver, MapReduceRuntime
from ..mapreduce.state import ResidentStateStore
from .maximal import (
    MAX_ROUNDS,
    STAGES,
    Adjacency,
    check_strategy,
    mm_records_from_adjacency,
)

__all__ = ["mr_maximal_b_matching"]


def mr_maximal_b_matching(
    adjacency: Adjacency,
    capacities: Dict[str, int],
    runtime: MapReduceRuntime,
    seed: int = 0,
    strategy: str = "uniform",
    round_offset: int = 0,
) -> Tuple[Dict[EdgeKey, float], int]:
    """Run the four-stage loop to a maximal b-matching.

    Parameters
    ----------
    adjacency, capacities:
        The graph; nodes with capacity ``<= 0`` are treated as
        saturated from the start.  The inputs are not mutated.
    round_offset:
        Distinguishes RNG streams when StackMR invokes the subroutine
        many times with the same seed.

    Returns the matched edges and the number of (four-job) rounds, run
    as the ``mr-maximal-b-matching`` loop of
    :class:`~repro.mapreduce.IterativeDriver`.
    """
    check_strategy(strategy)
    matched: Dict[EdgeKey, float] = {}
    store: ResidentStateStore = runtime.state_store("maximal-mm")
    store.load(mm_records_from_adjacency(adjacency, capacities))
    driver = IterativeDriver(runtime, "mr-maximal-b-matching", MAX_ROUNDS)

    def stage_round(live: int, round_number: int) -> int:
        round_index = round_offset + round_number
        for stage_class in STAGES:
            # Only cleanup emits output: the round's matched edges.
            output, _ = runtime.run_stateful(
                stage_class(seed, round_index, strategy), store, scan=True
            )
            for key, value in output:
                matched[edge_key(key[1], key[2])] = value
        return len(store)

    try:
        driver.iterate(stage_round, len(store))
    finally:
        store.close()
    return matched, driver.rounds_completed
