"""Cross-backend matching test matrix (executors × filesystems).

``tests/mapreduce`` pins the runtime's equivalence contract on generic
jobs; this module pins it *end to end* through the matching layer: for
every cell of the matrix —

* execution backend (``runtime`` fixture, via ``REPRO_TEST_BACKENDS``),
* storage backend / spill threshold (``REPRO_TEST_FS`` /
  ``REPRO_TEST_SPILL_THRESHOLD``),

GreedyMR and StackMR must produce bit-identical matchings,
``value_history``, round counts, and job counts; and counter totals
minus the spill counters (shuffle spill + state-store parking, the
only threshold-dependent meters) must be bit-identical too.  The
reference cell is always a fresh serial/in-memory, no-spill runtime.
``golden_convergence.json`` pins the same fields, plus the exact
shuffle volume, against fixed inputs.

The degenerate property tests at the bottom are the satellite of the
shared hypothesis strategies: ``greedy_mr == greedy`` and the StackMR
(1+ε)-violation bound hold on empty graphs, ``b = 0`` nodes, and
duplicate-weight ties.
"""

import math
import os
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import check_matching
from repro.mapreduce import Counters, LocalDiskFileSystem, MapReduceRuntime
from repro.mapreduce.state import strip_volatile_counters
from repro.matching import (
    greedy_b_matching,
    greedy_mr_b_matching,
    stack_mr_b_matching,
)

from ..conftest import BACKENDS, SPILL_THRESHOLD, STORAGE
from ..strategies import (
    degenerate_bipartite_graphs,
    degenerate_matching_graphs,
    small_general_graphs,
)

#: One marker per configured execution backend; combined with the env
#: storage knobs this spans the full matrix.
#: (Markers rather than fixtures inside ``@given`` tests: hypothesis
#: forbids function-scoped fixtures there, and parametrized arguments
#: are regenerated per test id anyway.)
backend_matrix = pytest.mark.parametrize("backend", BACKENDS)


def _reference_runtime() -> MapReduceRuntime:
    """The fixed comparison cell: serial, in-memory, never spilling."""
    return MapReduceRuntime(
        num_map_tasks=4, num_reduce_tasks=4, counters=Counters()
    )


@contextmanager
def _cell_runtime(backend: str):
    """A fresh runtime for one matrix cell (fresh counters per example).

    Mirrors the top-level ``runtime`` fixture's configuration but is a
    context manager, so hypothesis examples each get pristine counters
    and the disk-backed cells clean their temporary roots up.
    """
    with tempfile.TemporaryDirectory(prefix="repro-matrix-") as tmp:
        if STORAGE == "memory":
            storage = None
        else:
            storage = LocalDiskFileSystem(root=os.path.join(tmp, "dfs"))
        yield MapReduceRuntime(
            num_map_tasks=4,
            num_reduce_tasks=4,
            counters=Counters(),
            backend=backend,
            storage=storage,
            spill_threshold=SPILL_THRESHOLD,
            spill_dir=os.path.join(tmp, "spills"),
        )


def _result_fingerprint(result):
    return (
        sorted(result.matching.edges()),
        result.value_history,
        result.rounds,
        result.mr_jobs,
    )


@backend_matrix
@given(graph=small_general_graphs())
def test_greedy_mr_matrix_cell_matches_reference(graph, backend):
    """Matchings/history/rounds/jobs identical across every cell."""
    with _cell_runtime(backend) as runtime:
        cell = greedy_mr_b_matching(graph, runtime=runtime)
    reference = greedy_mr_b_matching(graph, runtime=_reference_runtime())
    assert _result_fingerprint(cell) == _result_fingerprint(reference)


@backend_matrix
@given(
    graph=small_general_graphs(),
    seed=st.integers(min_value=0, max_value=2),
)
def test_stack_mr_matrix_cell_matches_reference(graph, seed, backend):
    with _cell_runtime(backend) as runtime:
        cell = stack_mr_b_matching(graph, seed=seed, runtime=runtime)
    reference = stack_mr_b_matching(
        graph, seed=seed, runtime=_reference_runtime()
    )
    assert _result_fingerprint(cell) == _result_fingerprint(reference)
    assert cell.duals == reference.duals
    assert cell.dual_upper_bound == reference.dual_upper_bound
    assert cell.layers == reference.layers


@backend_matrix
@given(graph=small_general_graphs())
def test_greedy_mr_counters_identical_across_cells(graph, backend):
    """Counters minus spill are a pure function of the input.

    The cell's runtime may spill its shuffle or park its state store
    (threshold-dependent); everything else it meters must equal a
    serial in-memory run exactly.
    """
    reference_runtime = _reference_runtime()
    with _cell_runtime(backend) as runtime:
        greedy_mr_b_matching(graph, runtime=runtime)
        greedy_mr_b_matching(graph, runtime=reference_runtime)
        assert strip_volatile_counters(
            runtime.counters.snapshot()
        ) == strip_volatile_counters(
            reference_runtime.counters.snapshot()
        )
        assert runtime.job_log == reference_runtime.job_log


@backend_matrix
@given(
    graph=small_general_graphs(),
    seed=st.integers(min_value=0, max_value=1),
)
def test_stack_mr_counters_identical_across_cells(graph, seed, backend):
    reference_runtime = _reference_runtime()
    with _cell_runtime(backend) as runtime:
        stack_mr_b_matching(graph, seed=seed, runtime=runtime)
        stack_mr_b_matching(graph, seed=seed, runtime=reference_runtime)
        assert strip_volatile_counters(
            runtime.counters.snapshot()
        ) == strip_volatile_counters(
            reference_runtime.counters.snapshot()
        )
        assert runtime.job_log == reference_runtime.job_log


def test_delta_plane_meters_iteration_savings(runtime):
    """Frontier rounds report resident/delta/quiescent records."""
    from repro.graph import ascending_path

    greedy_mr_b_matching(ascending_path(20), runtime=runtime)
    resident = runtime.counters.get(
        "runtime", "iteration.resident_records"
    )
    deltas = runtime.counters.get("runtime", "iteration.delta_records")
    quiescent = runtime.counters.get(
        "runtime", "iteration.quiescent_records"
    )
    assert resident > 0 and deltas > 0
    assert resident == deltas + quiescent
    # The ascending path is the frontier showcase: most of the graph
    # is quiescent in most rounds.
    assert quiescent > resident // 2


# -- degenerate-case property tests (shared strategies satellite) -----------


@given(
    graph=st.one_of(
        degenerate_matching_graphs(), degenerate_bipartite_graphs()
    )
)
def test_greedy_mr_equals_greedy_on_degenerate_graphs(graph):
    parallel = greedy_mr_b_matching(graph)
    sequential = greedy_b_matching(graph)
    assert set(parallel.matching) == set(sequential.matching)
    assert parallel.value == pytest.approx(sequential.value)


@given(
    graph=degenerate_matching_graphs(),
    epsilon=st.sampled_from([0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=1),
)
def test_stack_mr_violation_bound_on_degenerate_graphs(graph, epsilon, seed):
    """Theorem 1's (1+ε) guarantee survives b=0 nodes and weight ties."""
    result = stack_mr_b_matching(graph, epsilon=epsilon, seed=seed)
    capacities = graph.capacities()
    for node in capacities:
        degree = result.matching.degree(node)
        if degree == 0:
            continue
        layer = max(1, math.ceil(epsilon * capacities[node]))
        assert degree <= capacities[node] + layer
        # Zero-capacity nodes must never be matched at all.
        assert capacities[node] > 0
    report = check_matching(capacities, iter(result.matching))
    assert report.num_nodes == len(capacities)
