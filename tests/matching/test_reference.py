"""The centralized algorithms are the MapReduce ones' exact reference.

The maximal subroutine's stage rules are written once
(:mod:`repro.matching.maximal`) and run by two drivers: in process and
on the MapReduce runtime.  Both drivers draw from the same per-node
random streams, so they must agree edge for edge, weight for weight
and round for round — and so must centralized Stack (Algorithm 2),
which runs the in-process driver, and StackMR, which runs the
MapReduce one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import random_graph
from repro.mapreduce import MapReduceRuntime
from repro.matching import (
    MARKING_STRATEGIES,
    maximal_b_matching_adjacency,
    mr_maximal_b_matching,
    stack_b_matching,
    stack_mr_b_matching,
)
from repro.matching.maximal import MAX_ROUNDS

from ..strategies import degenerate_matching_graphs, small_general_graphs

graphs = st.one_of(small_general_graphs(), degenerate_matching_graphs())
round_offsets = st.sampled_from([0, 1, MAX_ROUNDS, 7 * MAX_ROUNDS])


def _serial_runtime(maps=4, reduces=4):
    return MapReduceRuntime(num_map_tasks=maps, num_reduce_tasks=reduces)


def _assert_same_maximal(graph, runtime, seed, strategy, round_offset):
    args = (graph.adjacency_copy(), graph.capacities())
    kwargs = dict(seed=seed, strategy=strategy, round_offset=round_offset)
    in_process = maximal_b_matching_adjacency(*args, **kwargs)
    on_runtime = mr_maximal_b_matching(*args, runtime, **kwargs)
    assert in_process == on_runtime


def _assert_same_stack(graph, runtime, epsilon, seed, strategy):
    centralized = stack_b_matching(
        graph, epsilon=epsilon, seed=seed, strategy=strategy
    )
    mapreduce = stack_mr_b_matching(
        graph, epsilon=epsilon, seed=seed, strategy=strategy, runtime=runtime
    )
    assert centralized.matching.edges() == mapreduce.matching.edges()
    assert centralized.layers == mapreduce.layers
    assert centralized.dual_upper_bound == pytest.approx(
        mapreduce.dual_upper_bound
    )


@settings(max_examples=100)
@given(
    graph=graphs,
    strategy=st.sampled_from(MARKING_STRATEGIES),
    seed=st.integers(min_value=0, max_value=5),
    round_offset=round_offsets,
    maps=st.integers(min_value=1, max_value=3),
    reduces=st.integers(min_value=1, max_value=3),
)
def test_in_process_driver_equals_mapreduce_driver(
    graph, strategy, seed, round_offset, maps, reduces
):
    _assert_same_maximal(
        graph, _serial_runtime(maps, reduces), seed, strategy, round_offset
    )


@pytest.mark.parametrize("strategy", MARKING_STRATEGIES)
@pytest.mark.parametrize("graph_seed", [3, 8])
def test_in_process_driver_equals_mapreduce_driver_on_every_backend(
    runtime, strategy, graph_seed
):
    graph = random_graph(
        16, 0.35, rng=random.Random(graph_seed), max_capacity=3
    )
    _assert_same_maximal(graph, runtime, 2, strategy, MAX_ROUNDS)


@settings(max_examples=100)
@given(
    graph=graphs,
    strategy=st.sampled_from(MARKING_STRATEGIES),
    epsilon=st.sampled_from([1.0, 0.5, 0.25]),
    seed=st.integers(min_value=0, max_value=5),
)
def test_stack_equals_stack_mr(graph, strategy, epsilon, seed):
    _assert_same_stack(graph, _serial_runtime(), epsilon, seed, strategy)


@pytest.mark.parametrize("strategy", MARKING_STRATEGIES)
@pytest.mark.parametrize("epsilon", [1.0, 0.25])
def test_stack_equals_stack_mr_on_every_backend(runtime, strategy, epsilon):
    graph = random_graph(24, 0.3, rng=random.Random(5), max_capacity=4)
    _assert_same_stack(graph, runtime, epsilon, 1, strategy)
