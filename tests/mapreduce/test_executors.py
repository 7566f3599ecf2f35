"""Execution backends are observationally equivalent to serial.

The heart of the pluggable-executor contract: for any job, input, and
task-count choice, the output records, the ``job_log``, and the merged
counter totals must be *bit-identical* across the ``serial`` and
``cluster`` backends.  These tests also cover the
failure paths — job errors must traverse the process boundary with
their original type, and unpicklable work must fail with a diagnosable
:class:`ExecutorError` rather than a bare pool error.
"""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import random_bipartite
from repro.mapreduce import (
    EXECUTOR_BACKENDS,
    Counters,
    ExecutorError,
    JobValidationError,
    MapReduceJob,
    MapReduceRuntime,
    SerialExecutor,
    resolve_executor,
)
from repro.mapreduce.cluster import ClusterExecutor
from repro.mapreduce.cluster import driver as cluster_driver
from repro.mapreduce.cluster.driver import TaskLedger, WorkerDied
from repro.matching import greedy_mr_b_matching, stack_mr_b_matching
from repro.simjoin import mapreduce_similarity_join

PARALLEL_BACKENDS = ("cluster",)


# -- module-level jobs (picklable for the cluster backend) -----------------


class WordCount(MapReduceJob):
    has_combiner = True

    def map(self, key, line):
        for word in line.split():
            yield word, 1

    def combine(self, word, counts):
        yield word, sum(counts)

    def reduce(self, word, counts):
        yield word, sum(counts)


class MixedKeys(MapReduceJob):
    """Exercises heterogeneous keys through the canonical sort order."""

    def map(self, key, value):
        yield (key % 3, "bucket"), value
        yield key, value * 2

    def reduce(self, key, values):
        yield key, sorted(values)


class ExplodingMap(MapReduceJob):
    """Raises a plain ValueError from user map code."""

    def map(self, key, value):
        raise ValueError("boom in map")

    def reduce(self, key, values):
        return []


class NoneReduce(MapReduceJob):
    def map(self, key, value):
        yield key, value

    def reduce(self, key, values):
        return None


class NoneMap(MapReduceJob):
    def map(self, key, value):
        return None

    def reduce(self, key, values):
        return []


def _square(x):
    return x * x


def _maybe_fail(x):
    if x == 3:
        raise ValueError("task three failed")
    return x


# -- executor unit behavior -------------------------------------------------


def test_resolve_executor_names_and_aliases():
    assert isinstance(resolve_executor("serial"), SerialExecutor)
    assert isinstance(resolve_executor("cluster"), ClusterExecutor)
    assert isinstance(resolve_executor(None), SerialExecutor)
    existing = ClusterExecutor(max_workers=2)
    assert resolve_executor(existing) is existing


def test_resolve_executor_rejects_unknown():
    with pytest.raises(ExecutorError, match="unknown executor backend"):
        resolve_executor("gpu")
    with pytest.raises(ExecutorError, match="serial, cluster"):
        resolve_executor(42)


@pytest.mark.parametrize(
    "make",
    (
        lambda: resolve_executor("threads"),
        lambda: resolve_executor("multiprocessing"),
        lambda: MapReduceRuntime(backend="threads"),
        lambda: resolve_executor("thread"),
        lambda: resolve_executor("threading"),
        lambda: resolve_executor("sequential"),
        lambda: resolve_executor("sync"),
        lambda: resolve_executor("process"),
        lambda: resolve_executor("mp"),
        lambda: resolve_executor("distributed"),
        lambda: resolve_executor("processes"),
        lambda: MapReduceRuntime(backend="processes"),
    ),
    ids=(
        "threads",
        "alias",
        "runtime",
        "thread",
        "threading",
        "sequential",
        "sync",
        "process",
        "mp",
        "distributed",
        "processes",
        "processes-runtime",
    ),
)
def test_removed_backend_and_aliases_are_rejected(make):
    # One name per backend: the deleted ``threads`` and ``processes``
    # backends and the old spellings are unknown names, not shims onto
    # another backend.
    with pytest.raises(ExecutorError, match="serial, cluster"):
        make()


@pytest.mark.parametrize("name", EXECUTOR_BACKENDS)
def test_run_tasks_preserves_input_order(name):
    executor = resolve_executor(name, max_workers=3)
    tasks = [(i,) for i in range(20)]
    assert executor.run_tasks(_square, tasks) == [
        i * i for i in range(20)
    ]
    assert executor.run_tasks(_square, []) == []


@pytest.mark.parametrize("name", EXECUTOR_BACKENDS)
def test_run_tasks_propagates_original_exception(name):
    executor = resolve_executor(name, max_workers=2)
    with pytest.raises(ValueError, match="task three failed"):
        executor.run_tasks(_maybe_fail, [(i,) for i in range(6)])


def test_runtime_exposes_backend_name():
    assert MapReduceRuntime().backend == "serial"
    assert MapReduceRuntime(backend="cluster").backend == "cluster"


def test_shared_pools_recreate_after_shutdown():
    from repro.mapreduce import shutdown_shared_pools

    records = [(0, "a b a")]
    baseline = MapReduceRuntime().run(WordCount(), records)
    runtime = MapReduceRuntime(backend="cluster", max_workers=2)
    assert runtime.run(WordCount(), records) == baseline
    shutdown_shared_pools()
    # Pools are lazily rebuilt: the same runtime keeps working.
    assert runtime.run(WordCount(), records) == baseline


def test_importing_the_package_and_cli_leaves_the_cluster_unloaded():
    """The cluster plane — its fleet slot and ``atexit`` hook included
    — loads only when the cluster backend is first used."""
    code = (
        "import sys, repro.mapreduce, repro.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.mapreduce.cluster')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_counters_survive_pickling():
    counters = Counters()
    counters.increment("g", "a", 7)
    counters.increment("h", "b", 2)
    clone = pickle.loads(pickle.dumps(counters))
    assert clone.snapshot() == counters.snapshot()
    clone.increment("g", "a")
    assert counters.get("g", "a") == 7


# -- the task ledger (no process, no socket) --------------------------------


def _drain(ledger):
    return list(iter(ledger.next, None))


def test_ledger_first_finisher_wins_and_late_duplicate_is_ignored():
    ledger = TaskLedger(2)
    assert _drain(ledger) == [(0, 0), (1, 0)]
    ledger.back_up()
    assert _drain(ledger) == [(0, 1), (1, 1)]
    ledger.record(0, 1, (True, "backup"), worker=1)
    ledger.record(0, 0, (True, "primary"), worker=0)
    assert not ledger.settled
    ledger.record(1, 0, (True, "primary"), worker=0)
    assert ledger.settled
    assert ledger.results() == ["backup", "primary"]
    assert ledger.outcomes == []  # handed over, not kept alive
    assert ledger.workers == [1, 0]
    # A late duplicate of a finished task is neither queued nor lost.
    ledger.lose(1, 1, ConnectionError("late"))
    assert _drain(ledger) == [] and ledger.resubmits == 0


def test_ledger_counts_only_backup_attempts_as_wins():
    ledger = TaskLedger(3)
    assert ledger.next() == (0, 0)
    assert ledger.first_dispatch(0, 0)
    ledger.back_up()
    # A backup is a re-dispatch: it fires no injected faults.
    assert not ledger.first_dispatch(0, 1)
    ledger.record(0, 0, (True, 0))
    ledger.record(1, 1, (True, 1))
    ledger.record(2, 0, (True, 2))
    assert ledger.wins == 1
    # Backups of tasks finished meanwhile are skipped, not run.
    assert _drain(ledger) == []


def test_ledger_loss_requeues_the_attempt_and_counts_one_resubmit():
    ledger = TaskLedger(2)
    assert ledger.next() == (0, 0)
    assert ledger.first_dispatch(0, 0)
    ledger.lose(0, 0, ConnectionError("dropped frame"))
    assert ledger.resubmits == 1
    assert ledger.losses == [1, 0]
    assert _drain(ledger) == [(1, 0), (0, 0)]
    # The re-queued attempt is a re-dispatch; the untouched task's
    # first pop is still its first dispatch.
    assert not ledger.first_dispatch(0, 0)
    assert ledger.first_dispatch(1, 0)


def test_ledger_loss_cap_and_respawn_budget_raise_worker_died():
    ledger = TaskLedger(1)
    for _ in range(cluster_driver.MAX_TASK_LOSSES - 1):
        ledger.lose(0, 0, ConnectionError("lost"))
    with pytest.raises(WorkerDied, match="task 0 was lost"):
        ledger.lose(0, 0, ConnectionError("lost"))
    for _ in range(cluster_driver.RESPAWN_BUDGET):
        ledger.respawn("worker died")
    with pytest.raises(WorkerDied, match="respawns"):
        ledger.respawn("worker died")
    assert ledger.respawns == cluster_driver.RESPAWN_BUDGET


def test_ledger_results_raise_the_first_failure_in_task_order():
    ledger = TaskLedger(3)
    ledger.record(2, 0, (False, KeyError("third")))
    ledger.record(1, 0, (False, ValueError("second")))
    ledger.record(0, 0, (True, "first"))
    with pytest.raises(ValueError, match="second"):
        ledger.results()
    # An infrastructure failure outranks every task outcome.
    ledger.fail(WorkerDied("fleet gone"))
    with pytest.raises(WorkerDied, match="fleet gone"):
        ledger.results()


def test_serial_executor_builds_no_ledger():
    executor = SerialExecutor()
    assert executor.run_tasks(_square, [(2,)], timeout=1.0) == [4]
    assert executor.ledger is None


# -- the bit-identical equivalence property --------------------------------


def _observe(job_factory, records, maps, reduces, backend):
    """Run a job and capture everything observable about the run."""
    runtime = MapReduceRuntime(
        num_map_tasks=maps,
        num_reduce_tasks=reduces,
        backend=backend,
        max_workers=3,
    )
    output = runtime.run(job_factory(), records)
    return output, list(runtime.job_log), runtime.counters.snapshot()


@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.text(
                alphabet=st.sampled_from("abcdef "), max_size=20
            ),
        ),
        max_size=30,
    ),
    maps=st.integers(min_value=1, max_value=5),
    reduces=st.integers(min_value=1, max_value=5),
)
def test_wordcount_bit_identical_across_backends(records, maps, reduces):
    baseline = _observe(WordCount, records, maps, reduces, "serial")
    for backend in PARALLEL_BACKENDS:
        observed = _observe(WordCount, records, maps, reduces, backend)
        assert observed == baseline


@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=-5, max_value=5),
        ),
        max_size=25,
    ),
    maps=st.integers(min_value=1, max_value=4),
    reduces=st.integers(min_value=1, max_value=7),
)
def test_mixed_keys_bit_identical_across_backends(records, maps, reduces):
    baseline = _observe(MixedKeys, records, maps, reduces, "serial")
    for backend in PARALLEL_BACKENDS:
        observed = _observe(MixedKeys, records, maps, reduces, backend)
        assert observed == baseline


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.text(alphabet=st.sampled_from("xyz "), max_size=12),
        ),
        max_size=20,
    ),
    maps=st.integers(min_value=1, max_value=5),
    reduces=st.integers(min_value=1, max_value=5),
)
def test_task_count_independence_per_backend(backend, records, maps, reduces):
    """On every backend, task counts only move task boundaries."""
    many = _observe(WordCount, records, maps, reduces, backend)
    one = _observe(WordCount, records, 1, 1, backend)
    assert sorted(many[0]) == sorted(one[0])
    groups_many = many[2].get("WordCount", {}).get(
        "reduce.input.groups", 0
    )
    groups_one = one[2].get("WordCount", {}).get("reduce.input.groups", 0)
    assert groups_many == groups_one


# -- the paper's pipelines run unmodified on every backend -----------------


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_greedy_mr_identical_across_backends(backend):
    graph = random_bipartite(
        12, 9, 0.35, rng=random.Random(7), max_capacity=3
    )
    serial = greedy_mr_b_matching(
        graph, runtime=MapReduceRuntime(backend="serial")
    )
    runtime = MapReduceRuntime(backend=backend)
    parallel = greedy_mr_b_matching(graph, runtime=runtime)
    assert sorted(parallel.matching) == sorted(serial.matching)
    assert parallel.value == serial.value
    assert parallel.rounds == serial.rounds
    assert parallel.value_history == serial.value_history


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_stack_mr_identical_across_backends(backend):
    graph = random_bipartite(
        10, 8, 0.4, rng=random.Random(3), max_capacity=2
    )
    serial = stack_mr_b_matching(
        graph, seed=5, runtime=MapReduceRuntime(backend="serial")
    )
    parallel = stack_mr_b_matching(
        graph, seed=5, runtime=MapReduceRuntime(backend=backend)
    )
    assert sorted(parallel.matching) == sorted(serial.matching)
    assert parallel.value == serial.value
    assert parallel.rounds == serial.rounds


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_simjoin_identical_across_backends(backend):
    items = {
        f"t{i}": {f"w{j}": float(1 + (i + j) % 4) for j in range(4)}
        for i in range(6)
    }
    consumers = {
        f"c{i}": {f"w{j}": float(1 + (i * j) % 3) for j in range(4)}
        for i in range(5)
    }
    serial_runtime = MapReduceRuntime(backend="serial")
    serial_rows = mapreduce_similarity_join(
        items, consumers, 4.0, runtime=serial_runtime
    )
    runtime = MapReduceRuntime(backend=backend)
    rows = mapreduce_similarity_join(
        items, consumers, 4.0, runtime=runtime
    )
    assert rows == serial_rows
    assert runtime.job_log == serial_runtime.job_log
    assert (
        runtime.counters.snapshot() == serial_runtime.counters.snapshot()
    )


# -- failure paths ----------------------------------------------------------


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_map_job_validation_error_surfaces(backend):
    """The original JobValidationError crosses the backend boundary."""
    runtime = MapReduceRuntime(backend=backend)
    with pytest.raises(JobValidationError, match="returned None"):
        runtime.run(NoneMap(), [(i, i) for i in range(8)])


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_reduce_job_validation_error_surfaces(backend):
    runtime = MapReduceRuntime(backend=backend)
    with pytest.raises(JobValidationError, match="returned None"):
        runtime.run(NoneReduce(), [(i, i) for i in range(8)])


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_user_exception_keeps_its_type(backend):
    runtime = MapReduceRuntime(backend=backend)
    with pytest.raises(ValueError, match="boom in map"):
        runtime.run(ExplodingMap(), [(i, i) for i in range(8)])


def test_unpicklable_job_fails_with_executor_error():
    class LocalJob(MapReduceJob):  # local classes cannot be pickled
        def map(self, key, value):
            yield key, value

        def reduce(self, key, values):
            yield key, list(values)

    runtime = MapReduceRuntime(backend="cluster", max_workers=2)
    with pytest.raises(ExecutorError, match="picklable"):
        runtime.run(LocalJob(), [(1, "a"), (2, "b")])
