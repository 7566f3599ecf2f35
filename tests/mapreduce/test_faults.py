"""Deterministic chaos: injected faults must recover bit-identically.

The fault plane's contract has two halves.  The plan itself is a pure
function of ``(seed, site)`` — same seed, same faults, on every
backend, filesystem, and machine.  And recovery is *invisible*: a run
under an active :class:`FaultPlan` with a retry budget must produce
output records, ``job_log``, and non-volatile counter totals
bit-identical to the fault-free run, with only the ``faults`` counter
group left behind as evidence that anything fired.  The chaos matrix
tests here make that claim through the shared checker
(:mod:`repro.chaos`) — for a histogram job, the similarity join,
StackMR and its maximal subroutine — across every configured
execution backend (× the storage/spill env knobs) for several seeded
scenarios.
"""

import os
import random
import tempfile
from contextlib import contextmanager

import pytest

from repro.chaos import chaos_graph, observe, runtime_chaos
from repro.mapreduce import (
    Counters,
    FaultPlan,
    InjectedIOError,
    JobValidationError,
    LocalDiskFileSystem,
    MapReduceJob,
    MapReduceRuntime,
    RetryPolicy,
    RetryingFileSystem,
    FaultyFileSystem,
    TaskFaultSpec,
    fired_specs,
)
from repro.mapreduce.cluster import ClusterExecutor
from repro.mapreduce.cluster import executor as cluster_executor
from repro.mapreduce.storage import InMemoryFileSystem
from repro.matching import (
    greedy_mr_b_matching,
    mr_maximal_b_matching,
    stack_mr_b_matching,
)
from repro.simjoin import mapreduce_similarity_join

from ..conftest import SPILL_THRESHOLD, STORAGE, claim_once

CHAOS_SEEDS = (1, 2, 3)

#: Rates for the chaos matrix: high enough that every seed injects
#: several faults (asserted), low enough that the retry budget always
#: covers them (``MAX_FAULTS_PER_SITE = 1`` guarantees it anyway).
CHAOS_RATES = dict(crash_rate=0.35, delay_rate=0.15, io_rate=0.25)


# -- module-level jobs (picklable for the cluster backend) -----------------


class Histogram(MapReduceJob):
    has_combiner = True

    def map(self, key, value):
        yield value % 5, 1

    def combine(self, key, counts):
        yield key, sum(counts)

    def reduce(self, key, counts):
        yield key, sum(counts)


class KamikazeOnce(MapReduceJob):
    """First map task to run kills its whole worker process.

    The sentinel file makes the crash once-per-run (machine-scoped),
    so re-executions after the worker respawn succeed — the abrupt
    worker-death shape (OOM kill, segfault) that a dead worker daemon
    reports, as opposed to a clean task exception.
    """

    def __init__(self, sentinel):
        self.sentinel = sentinel

    def map(self, key, value):
        if claim_once(self.sentinel):
            os._exit(13)
        yield value % 3, value

    def reduce(self, key, values):
        yield key, sum(values)


class FlakyOnce(MapReduceJob):
    """The first map call anywhere raises ``OSError``, every later one
    runs clean: a transient disk error, claimed through the sentinel
    file named in side data."""

    def map(self, key, value):
        if claim_once(self.side_data["sentinel"]):
            raise OSError("transient read error")
        yield value % 5, 1

    def reduce(self, key, counts):
        yield key, sum(counts)


class FlakyReduceOnce(MapReduceJob):
    """Like :class:`FlakyOnce`, but the first *reduce* call fails —
    after its task has already read into its partition."""

    def map(self, key, value):
        yield value % 5, 1

    def reduce(self, key, counts):
        if claim_once(self.side_data["sentinel"]):
            raise OSError("transient read error")
        yield key, sum(counts)


def _identity(value):
    return value


RECORDS = [(i, (i * 7) % 13) for i in range(40)]


# -- the seeded plan is deterministic --------------------------------------


def test_fault_plan_is_deterministic_and_seed_sensitive():
    kwargs = dict(
        crash_rate=0.4,
        delay_rate=0.2,
        io_rate=0.3,
        flush_rate=0.5,
    )
    one, two, other = (
        FaultPlan(1, **kwargs),
        FaultPlan(1, **kwargs),
        FaultPlan(2, **kwargs),
    )
    sites = [
        ("job", phase, index)
        for phase in ("map", "reduce")
        for index in range(8)
    ]

    def decisions(plan):
        return (
            [
                tuple(
                    spec and (spec.kind, spec.seconds)
                    for spec in plan.task_faults(*site, max_attempts=3)
                )
                for site in sites
            ],
            [plan.storage_fault("read", i) for i in range(32)],
            [plan.storage_fault("write", i) for i in range(32)],
            [plan.flush_fault(i, 0) for i in range(32)],
        )

    assert decisions(one) == decisions(two)
    assert decisions(one) != decisions(other)


def test_task_crashes_respect_the_retry_budget():
    plan = FaultPlan(7, crash_rate=1.0)
    specs = plan.task_faults("job", "map", 0, max_attempts=4)
    assert len(specs) == 4
    # MAX_FAULTS_PER_SITE = 1: exactly one crash, on attempt 0, so the
    # retried attempt always reaches a crash-free execution.
    assert specs[0].kind == "crash"
    assert all(spec is None for spec in specs[1:])
    # With no retry budget there is nowhere to recover: no crashes.
    assert plan.task_faults("job", "map", 0, max_attempts=1) == (None,)


def test_fired_specs_is_the_crash_prefix():
    crash = TaskFaultSpec(kind="crash")
    delay = TaskFaultSpec(kind="delay", seconds=0.5)
    # Attempt n runs only if n-1 crashed; a delay succeeds and stops.
    assert fired_specs((None, crash)) == []
    assert fired_specs((crash, crash, None)) == [crash, crash]
    assert fired_specs((crash, delay, crash)) == [crash, delay]
    assert fired_specs((delay, crash)) == [delay]


def test_fault_plan_validates_rates():
    with pytest.raises(JobValidationError, match="io_rate"):
        FaultPlan(0, io_rate=1.5)
    with pytest.raises(JobValidationError, match="delay_seconds"):
        FaultPlan(0, delay_seconds=-1)
    with pytest.raises(JobValidationError, match="delay_seconds"):
        FaultPlan(0, delay_seconds=float("nan"))


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(backoff=float("nan")), "backoff"),
        (dict(task_timeout=float("nan")), "task_timeout"),
    ],
    ids=["backoff-nan", "task-timeout-nan"],
)
def test_retry_policy_rejects_nan(kwargs, name):
    with pytest.raises(JobValidationError, match=name):
        RetryPolicy(**kwargs)


def test_retry_policy_run_counts_only_the_retries_it_makes():
    """``on_retry`` fires once per retry made — never after the last
    attempt — and a non-transient failure is not retried at all."""

    def failing(exc, succeed_at=None):
        attempts = []

        def attempt_fn(attempt):
            attempts.append(attempt)
            if attempt == succeed_at:
                return "ok"
            raise exc

        return attempts, attempt_fn

    retries = []
    attempts, attempt_fn = failing(InjectedIOError("x"), succeed_at=2)
    assert RetryPolicy(max_attempts=3).run(attempt_fn, retries.append) == "ok"
    assert attempts == [0, 1, 2] and retries == [1, 2]

    retries = []
    attempts, attempt_fn = failing(InjectedIOError("x"))
    with pytest.raises(InjectedIOError):
        RetryPolicy(max_attempts=3).run(attempt_fn, retries.append)
    assert attempts == [0, 1, 2] and retries == [1, 2]

    retries = []
    attempts, attempt_fn = failing(JobValidationError("bug"))
    with pytest.raises(JobValidationError):
        RetryPolicy(max_attempts=3).run(attempt_fn, retries.append)
    assert attempts == [0] and retries == []


# -- storage faults: consumed-once, recovered by retries -------------------


def test_faulty_filesystem_faults_each_op_once():
    counters = Counters()
    fs = FaultyFileSystem(
        InMemoryFileSystem(), FaultPlan(0, io_rate=1.0), counters
    )
    # The fault is raised *before* the write lands, and consumed: the
    # immediate retry of the same logical operation succeeds.
    with pytest.raises(InjectedIOError):
        fs.write("/a", [(1, "x")])
    assert not fs.exists("/a")
    fs.write("/a", [(1, "x")])
    with pytest.raises(InjectedIOError):
        fs.read("/a")
    assert fs.read("/a") == [(1, "x")]
    faults = counters.group("faults")
    assert faults["injected_io"] == 2
    assert faults["injected_total"] == 2
    # Untargeted operations pass straight through.
    assert fs.list_paths("/") == ["/a"]
    fs.delete("/a")
    assert not fs.exists("/a")
    assert fs.name == "memory"


def test_retrying_filesystem_recovers_transparently():
    counters = Counters()
    fs = RetryingFileSystem(
        FaultyFileSystem(
            InMemoryFileSystem(), FaultPlan(0, io_rate=1.0), counters
        ),
        RetryPolicy(max_attempts=3),
        counters,
    )
    for i in range(5):
        fs.write(f"/d/{i}", [(i, i * i)])
    assert [fs.read(f"/d/{i}") for i in range(5)] == [
        [(i, i * i)] for i in range(5)
    ]
    faults = counters.group("faults")
    # io_rate=1.0 faults every logical op exactly once: 5 writes + 5
    # reads, each recovered by one retry.
    assert faults["storage.retries"] == 10
    assert faults["injected_io"] == 10


def test_retrying_filesystem_exhausted_budget_propagates():
    fs = RetryingFileSystem(
        FaultyFileSystem(
            InMemoryFileSystem(), FaultPlan(0, io_rate=1.0), Counters()
        ),
        RetryPolicy(max_attempts=1),
        Counters(),
    )
    with pytest.raises(InjectedIOError):
        fs.write("/a", [(1, "x")])


# -- the chaos matrix: recovery is bit-identical ---------------------------


def _factory(backend, root, tasks=4):
    """Fresh runtimes on ``backend`` in the env's storage/spill cell,
    each with pristine counters and its own directory under ``root``."""

    def make(**kwargs):
        tmp = tempfile.mkdtemp(dir=root)
        if STORAGE == "memory":
            storage = None
        else:
            storage = LocalDiskFileSystem(root=os.path.join(tmp, "dfs"))
        return MapReduceRuntime(
            num_map_tasks=tasks,
            num_reduce_tasks=tasks,
            counters=Counters(),
            backend=backend,
            storage=storage,
            spill_threshold=SPILL_THRESHOLD,
            spill_dir=os.path.join(tmp, "spills"),
            **kwargs,
        )

    return make


@contextmanager
def _cell_runtime(backend, tasks=4, **kwargs):
    """A fresh runtime per run (pristine counters, clean tmp)."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        yield _factory(backend, tmp, tasks)(**kwargs)


def _histogram(runtime):
    return runtime.run(Histogram(), RECORDS)


def _chaos_runs(backend, root, plans, workload=_histogram):
    """The checker's faulted runs of ``workload``, retry budget 3."""
    return list(
        runtime_chaos(
            _factory(backend, root),
            plans,
            workload,
            RetryPolicy(max_attempts=3),
        )
    )


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_run_is_bit_identical_to_fault_free(backend, seed, tmp_path):
    [run] = _chaos_runs(
        backend,
        tmp_path,
        [FaultPlan(seed, delay_seconds=0.0, **CHAOS_RATES)],
    )
    assert run.identical
    assert run.injected > 0
    # Every scheduled crash burned exactly one retry; delays don't.
    assert run.faults.get("task.retries", 0) == run.faults.get(
        "injected_crash", 0
    )


def test_chaos_fault_metering_is_backend_independent(backend, tmp_path):
    """The ``injected_*`` meters are a driver-side function of the
    plan, so every backend reports the same fault story."""
    plan = FaultPlan(1, delay_seconds=0.0, **CHAOS_RATES)

    def faults(name):
        runtime = _factory(name, tmp_path)(
            retry_policy=RetryPolicy(max_attempts=3), fault_plan=plan
        )
        observe(runtime, _histogram)
        return runtime.counters.group("faults")

    assert faults(backend) == faults("serial")


# -- the paper's other MapReduce workloads under faults --------------------


def _vectors(rng, prefix):
    """12 vectors of 3 of 8 terms with integer weights, so every
    summation order gives the same scores."""
    return {
        f"{prefix}{k}": {
            term: float(rng.randint(1, 4))
            for term in rng.sample("abcdefgh", 3)
        }
        for k in range(12)
    }


_rng = random.Random(0)
JOIN_ITEMS = _vectors(_rng, "t")
JOIN_CONSUMERS = _vectors(_rng, "c")


def _join(runtime):
    return mapreduce_similarity_join(
        JOIN_ITEMS, JOIN_CONSUMERS, 8.0, runtime=runtime
    )


def _stack_mr(runtime):
    result = stack_mr_b_matching(
        chaos_graph(), strategy="uniform", runtime=runtime
    )
    return sorted(result.matching.edges())


def _maximal(runtime):
    graph = chaos_graph()
    matched, _ = mr_maximal_b_matching(
        graph.adjacency_copy(), graph.capacities(), runtime, strategy="uniform"
    )
    return sorted(matched.items())


@pytest.mark.parametrize(
    "workload", [_join, _stack_mr, _maximal], ids=["join", "stack", "maximal"]
)
def test_paper_workloads_recover_bit_identically(backend, workload, tmp_path):
    """The similarity join, StackMR and its maximal subroutine under
    task crashes, delays and storage errors.  The uniform strategy
    draws from per-node RNG streams, which a retried task replays."""
    plans = [
        FaultPlan(seed, delay_seconds=0.0, **CHAOS_RATES)
        for seed in CHAOS_SEEDS
    ]
    for run in _chaos_runs(backend, tmp_path, plans, workload):
        assert run.identical, run
        assert run.injected > 0, run


def test_injected_faults_fire_in_every_round_of_every_run(backend):
    """Every metered fault fires and costs its recovery.  GreedyMR's
    rounds share one job name and a reused plan replays the same
    sites, yet each run of each round fires its own faults afresh:
    nothing is metered as injected that did not happen."""
    graph = chaos_graph()
    plan = FaultPlan(
        1, worker_kill_rate=0.3, frame_drop_rate=0.2, crash_rate=0.2
    )
    for _ in range(2):
        with _cell_runtime(
            backend,
            tasks=2,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        ) as runtime:
            greedy_mr_b_matching(graph, runtime)
            faults = dict(runtime.counters.group("faults"))
        kills = faults.get("injected_worker_kill", 0)
        drops = faults.get("injected_drop_frame", 0)
        assert kills > 0
        if backend == "serial":
            # Off-cluster both kinds degrade to in-worker crashes.
            assert faults.get("task.retries", 0) == (
                faults.get("injected_crash", 0) + kills + drops
            )
        else:
            assert faults.get("pool.respawns", 0) >= kills
            assert faults.get("task.resubmits", 0) >= kills + drops


def test_transient_oserror_in_a_task_is_retried(backend, tmp_path):
    """A real ``OSError`` gets the retry budget without any fault plan:
    the task re-executes once and the output matches the clean run."""
    claimed = tmp_path / "claimed"
    claimed.touch()
    with _cell_runtime(backend) as clean:
        baseline = clean.run(
            FlakyOnce(), RECORDS, side_data={"sentinel": str(claimed)}
        )
    with _cell_runtime(
        backend, retry_policy=RetryPolicy(max_attempts=3)
    ) as runtime:
        output = runtime.run(
            FlakyOnce(),
            RECORDS,
            side_data={"sentinel": str(tmp_path / "flaky")},
        )
        retries = runtime.counters.get("faults", "task.retries")
    assert output == baseline
    assert retries == 1


def test_retried_reduce_rereads_its_spilled_partition(tmp_path):
    """A retried reduce attempt starts from its partition's first
    record: with retries on, the serial backend gets spilled partitions
    materialized, not as lazy streams a failed attempt half consumed."""
    claimed = tmp_path / "claimed"
    claimed.touch()

    def run(sentinel, **kwargs):
        runtime = MapReduceRuntime(
            counters=Counters(),
            spill_threshold=0,
            spill_dir=str(tmp_path / "spills"),
            **kwargs,
        )
        output = runtime.run(
            FlakyReduceOnce(), RECORDS, side_data={"sentinel": sentinel}
        )
        return output, runtime.counters.get("faults", "task.retries")

    baseline, _ = run(str(claimed))
    output, retries = run(
        str(tmp_path / "flaky"), retry_policy=RetryPolicy(max_attempts=2)
    )
    assert output == baseline
    assert retries == 1


# -- worker death: the fleet respawns and the job completes ----------------


def test_runtime_job_survives_worker_death(tmp_path):
    records = [(i, i) for i in range(12)]
    # Fault-free reference: the sentinel already exists.
    baseline_sentinel = tmp_path / "already-dead"
    baseline_sentinel.touch()
    with _cell_runtime("serial") as clean:
        baseline = clean.run(KamikazeOnce(str(baseline_sentinel)), records)
    for index, policy in enumerate((None, RetryPolicy(task_timeout=5.0))):
        with _cell_runtime("cluster", retry_policy=policy) as runtime:
            output = runtime.run(
                KamikazeOnce(str(tmp_path / f"boom-{index}")), records
            )
            faults = runtime.counters.group("faults")
        assert output == baseline
        assert faults["pool.respawns"] >= 1
        assert faults["task.resubmits"] >= 1


# -- cluster chaos: kills and dropped frames recover bit-identically -------


CLUSTER_CHAOS_SEEDS = (1, 2, 3)

#: High enough that every seed schedules several faults across the
#: 8 task sites of the chaos workload (asserted per scenario below).
CLUSTER_KILL_RATES = dict(worker_kill_rate=0.6)
CLUSTER_DROP_RATES = dict(frame_drop_rate=0.6)


@pytest.mark.cluster
@pytest.mark.parametrize("seed", CLUSTER_CHAOS_SEEDS)
def test_cluster_worker_kills_recover_bit_identically(seed, tmp_path):
    """Injected ``os._exit`` worker deaths mid-task: the driver
    respawns the daemon, re-executes the lost attempts, and the run
    converges bit-identically to the fault-free cluster run."""
    [run] = _chaos_runs(
        "cluster", tmp_path, [FaultPlan(seed, **CLUSTER_KILL_RATES)]
    )
    assert run.identical
    assert run.faults["injected_worker_kill"] > 0
    assert run.faults["pool.respawns"] >= 1
    assert run.faults["task.resubmits"] >= 1


@pytest.mark.cluster
@pytest.mark.parametrize("seed", CLUSTER_CHAOS_SEEDS)
def test_cluster_dropped_frames_recover_bit_identically(seed, tmp_path):
    """Injected reply-frame drops: the worker does the work, the
    driver never hears back, and the resubmit-only recovery path (no
    respawn — the daemon is healthy) still converges bit-identically."""
    [run] = _chaos_runs(
        "cluster", tmp_path, [FaultPlan(seed, **CLUSTER_DROP_RATES)]
    )
    assert run.identical
    assert run.faults["injected_drop_frame"] > 0
    assert run.faults["task.resubmits"] >= 1
    # A dropped frame is not a dead worker: no respawns burned.
    assert run.faults.get("pool.respawns", 0) == 0


@pytest.mark.cluster
def test_cluster_faults_degrade_gracefully_off_cluster(tmp_path):
    """The cluster fault kinds on a single-process backend degrade to
    plain injected crashes (there is no worker daemon to kill), so a
    retry budget still recovers them bit-identically."""
    [run] = _chaos_runs(
        "serial",
        tmp_path,
        [FaultPlan(2, worker_kill_rate=0.6, frame_drop_rate=0.3)],
    )
    assert run.identical
    assert run.injected > 0
    assert run.faults.get("task.retries", 0) >= 1


@pytest.mark.cluster
def test_chaos_cli_replays_cluster_scenario(capsys):
    """The ``repro chaos --backend cluster`` replay case: seeded
    worker kills and frame drops through the real CLI entry point."""
    from repro.cli import main

    code = main(
        [
            "chaos",
            "--backend",
            "cluster",
            "--workers",
            "2",
            "--seeds",
            "1",
            "--nodes",
            "8",
            "--events",
            "12",
            "--worker-kill-rate",
            "0.3",
            "--frame-drop-rate",
            "0.3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "bit-identical" in out
    assert "DIVERGED" not in out


# -- stragglers: speculative backups win -----------------------------------


def _straggler_runtime(backend, tmp, **kwargs):
    """A narrow (2x2) cluster with enough workers that a speculative
    backup can run *while* its straggling primary still sleeps — the
    default worker count is CPU-bound and may be 1 in CI."""
    if STORAGE == "memory":
        storage = None
    else:
        storage = LocalDiskFileSystem(root=os.path.join(tmp, "dfs"))
    return MapReduceRuntime(
        num_map_tasks=2,
        num_reduce_tasks=2,
        max_workers=6,
        counters=Counters(),
        backend=backend,
        storage=storage,
        spill_threshold=SPILL_THRESHOLD,
        spill_dir=os.path.join(tmp, "spills"),
        **kwargs,
    )


@pytest.mark.parametrize("backend", ("cluster",))
def test_speculative_backup_beats_straggler(backend, tmp_path):
    baseline = _straggler_runtime("serial", str(tmp_path / "clean")).run(
        Histogram(), RECORDS
    )
    # Every task straggles 0.6s — but only on its first dispatch, so
    # the timeout-spawned backup runs at full speed and wins the race.
    runtime = _straggler_runtime(
        backend,
        str(tmp_path / "chaos"),
        retry_policy=RetryPolicy(max_attempts=2, task_timeout=0.05),
        fault_plan=FaultPlan(5, delay_rate=1.0, delay_seconds=0.6),
    )
    output = runtime.run(Histogram(), RECORDS)
    faults = dict(runtime.counters.group("faults"))
    assert output == baseline
    assert faults["task.speculative_wins"] >= 1
    assert faults["injected_delay"] > 0


# -- the shared fleet: size-change eviction ---------------------------------


def test_changing_worker_count_evicts_the_stale_pool():
    small = ClusterExecutor(max_workers=1)
    assert small.run_tasks(_identity, [(1,)]) == [1]
    first = cluster_executor._fleet
    assert first.num_workers == 1
    large = ClusterExecutor(max_workers=2)
    assert large.run_tasks(_identity, [(2,)]) == [2]
    # One fleet at a time: asking for a different size shut the old
    # one down instead of accumulating idle worker fleets.
    assert cluster_executor._fleet.num_workers == 2
    assert first.worker_pids() == []
    # The evicted executor still works — its fleet rebuilds on demand.
    assert small.run_tasks(_identity, [(3,)]) == [3]
    small.close()
    large.close()
