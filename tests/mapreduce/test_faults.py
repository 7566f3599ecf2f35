"""Deterministic chaos: injected faults must recover bit-identically.

The fault plane's contract has two halves.  The plan itself is a pure
function of ``(seed, site)`` — same seed, same faults, on every
backend, filesystem, and machine.  And recovery is *invisible*: a run
under an active :class:`FaultPlan` with a retry budget must produce
output records, ``job_log``, and non-volatile counter totals
bit-identical to the fault-free run, with only the ``faults`` counter
group left behind as evidence that anything fired.  The chaos matrix
test here is that claim, driven across every configured execution
backend (× the storage/spill env knobs) for several seeded scenarios.
"""

import os
import tempfile
from contextlib import contextmanager

import pytest

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
from repro.mapreduce.executors import _SHARED_POOLS
from repro.mapreduce.faults import _claim_once
from repro.mapreduce.state import strip_volatile_counters
from repro.mapreduce.storage import InMemoryFileSystem

from ..conftest import SPILL_THRESHOLD, STORAGE

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
        if _claim_once(self.sentinel):
            os._exit(13)
        yield value % 3, value

    def reduce(self, key, values):
        yield key, sum(values)


class FlakyOnce(MapReduceJob):
    """The first map call anywhere raises ``OSError``, every later one
    runs clean: a transient disk error, claimed through the sentinel
    file named in side data."""

    def map(self, key, value):
        if _claim_once(self.side_data["sentinel"]):
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
        if _claim_once(self.side_data["sentinel"]):
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
        poison_rate=0.3,
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
            [plan.event_poisoned(i) for i in range(32)],
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


def test_fault_plan_cleans_up_its_scratch_dir():
    with FaultPlan(0, delay_rate=1.0) as plan:
        scratch = plan.scratch_dir
        assert os.path.isdir(scratch)
    assert not os.path.exists(scratch)


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


@contextmanager
def _cell_runtime(backend, **kwargs):
    """A fresh runtime per run (pristine counters, clean tmp)."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
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
            **kwargs,
        )


def _observe_chaos(runtime):
    """Everything the determinism contract covers, for one run."""
    for i in range(4):
        runtime.filesystem.write(
            f"/chaos/dataset-{i}", [(j, i * j) for j in range(3)]
        )
    reads = [
        runtime.filesystem.read(f"/chaos/dataset-{i}") for i in range(4)
    ]
    output = runtime.run(Histogram(), RECORDS)
    return (
        reads,
        output,
        list(runtime.job_log),
        strip_volatile_counters(runtime.counters.snapshot()),
    )


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_run_is_bit_identical_to_fault_free(backend, seed):
    with _cell_runtime(backend) as clean:
        baseline = _observe_chaos(clean)
    with FaultPlan(seed, delay_seconds=0.0, **CHAOS_RATES) as plan:
        with _cell_runtime(
            backend,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        ) as runtime:
            observed = _observe_chaos(runtime)
            faults = dict(runtime.counters.group("faults"))
    assert observed == baseline
    assert faults["injected_total"] > 0
    # Every scheduled crash burned exactly one retry; delays don't.
    assert faults.get("task.retries", 0) == faults.get(
        "injected_crash", 0
    )


def test_chaos_fault_metering_is_backend_independent(backend):
    """The ``injected_*`` meters are a driver-side function of the
    plan, so every backend reports the same fault story."""
    with FaultPlan(1, delay_seconds=0.0, **CHAOS_RATES) as plan:
        with _cell_runtime(
            "serial",
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        ) as serial:
            _observe_chaos(serial)
            reference = dict(serial.counters.group("faults"))
    with FaultPlan(1, delay_seconds=0.0, **CHAOS_RATES) as plan:
        with _cell_runtime(
            backend,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        ) as runtime:
            _observe_chaos(runtime)
            observed = dict(runtime.counters.group("faults"))
    assert observed == reference


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


def _observe_cluster_chaos(seed, **rates):
    """One seeded chaos run on the cluster backend, plus its faults."""
    with FaultPlan(seed, **rates) as plan:
        with _cell_runtime(
            "cluster",
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        ) as runtime:
            observed = _observe_chaos(runtime)
            faults = dict(runtime.counters.group("faults"))
    return observed, faults


@pytest.mark.cluster
@pytest.mark.parametrize("seed", CLUSTER_CHAOS_SEEDS)
def test_cluster_worker_kills_recover_bit_identically(seed):
    """Injected ``os._exit`` worker deaths mid-task: the driver
    respawns the daemon, re-executes the lost attempts, and the run
    converges bit-identically to the fault-free cluster run."""
    with _cell_runtime("cluster") as clean:
        baseline = _observe_chaos(clean)
    observed, faults = _observe_cluster_chaos(
        seed, **CLUSTER_KILL_RATES
    )
    assert observed == baseline
    assert faults["injected_worker_kill"] > 0
    assert faults["pool.respawns"] >= 1
    assert faults["task.resubmits"] >= 1


@pytest.mark.cluster
@pytest.mark.parametrize("seed", CLUSTER_CHAOS_SEEDS)
def test_cluster_dropped_frames_recover_bit_identically(seed):
    """Injected reply-frame drops: the worker does the work, the
    driver never hears back, and the resubmit-only recovery path (no
    respawn — the daemon is healthy) still converges bit-identically."""
    with _cell_runtime("cluster") as clean:
        baseline = _observe_chaos(clean)
    observed, faults = _observe_cluster_chaos(
        seed, **CLUSTER_DROP_RATES
    )
    assert observed == baseline
    assert faults["injected_drop_frame"] > 0
    assert faults["task.resubmits"] >= 1
    # A dropped frame is not a dead worker: no respawns burned.
    assert faults.get("pool.respawns", 0) == 0


@pytest.mark.cluster
def test_cluster_faults_degrade_gracefully_off_cluster():
    """The cluster fault kinds on a single-process backend degrade to
    plain injected crashes (there is no worker daemon to kill), so a
    retry budget still recovers them bit-identically."""
    with _cell_runtime("serial") as clean:
        baseline = _observe_chaos(clean)
    with FaultPlan(2, worker_kill_rate=0.6, frame_drop_rate=0.3) as plan:
        with _cell_runtime(
            "serial",
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        ) as runtime:
            observed = _observe_chaos(runtime)
            faults = dict(runtime.counters.group("faults"))
    assert observed == baseline
    assert faults["injected_total"] > 0
    assert faults.get("task.retries", 0) >= 1


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
    # Every attempt straggles 0.6s — but only on its *first* execution
    # (machine-scoped sentinel), so the timeout-spawned backup runs at
    # full speed and wins the race.
    with FaultPlan(5, delay_rate=1.0, delay_seconds=0.6) as plan:
        runtime = _straggler_runtime(
            backend,
            str(tmp_path / "chaos"),
            retry_policy=RetryPolicy(max_attempts=2, task_timeout=0.05),
            fault_plan=plan,
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
    assert 1 in _SHARED_POOLS
    large = ClusterExecutor(max_workers=2)
    assert large.run_tasks(_identity, [(2,)]) == [2]
    # One fleet at a time: asking for a different size evicted the old
    # one instead of accumulating idle worker fleets.
    assert 1 not in _SHARED_POOLS
    assert 2 in _SHARED_POOLS
    # The evicted executor still works — its fleet rebuilds on demand.
    assert small.run_tasks(_identity, [(3,)]) == [3]
    small.close()
    large.close()
