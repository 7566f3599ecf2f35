"""An in-process MapReduce cluster simulator with pluggable executors.

This is the substrate substituting for Hadoop in the reproduction (see
DESIGN.md): it enforces the MapReduce programming model strictly —

* the input is split across ``num_map_tasks`` map tasks;
* ``map`` is applied record-by-record with no shared mutable state;
* intermediate pairs are *shuffled*: partitioned by a deterministic hash
  of the key, sorted within each partition, and grouped by key;
* ``reduce`` is applied once per key group per partition.

The simulator meters the quantities the paper reports — number of jobs
executed and records shuffled — through :class:`~repro.telemetry.metrics.
Counters`.  Results are guaranteed to be independent of the number of map
and reduce tasks (property-tested in ``tests/mapreduce``).

Execution model
---------------

The runtime is faithful to MapReduce's *execution* model as well as its
programming model: every phase is decomposed into independent task
units and dispatched through an :class:`~repro.mapreduce.executors.
Executor` (``backend="serial" | "cluster"`` — the latter a real
localhost worker fleet over TCP, see :mod:`repro.mapreduce.cluster`).

* A **map task** is one unit of work: it applies ``job.map`` to every
  record of its split, optionally re-executes itself speculatively and
  compares the attempts (the statelessness check a real cluster's
  task retries would perform), applies the combiner to its own output,
  and meters into a *task-local* :class:`Counters`.
* The **shuffle** routes each intermediate record to its reduce
  partition with the deterministic hash partitioner and sorts each
  partition by the canonical key order (performed by the driver).
* A **reduce task** is one unit of work per partition: it receives
  its partition already key-sorted by the shuffle, groups it, applies
  ``job.reduce`` to each group, and meters into a task-local
  :class:`Counters`.  On the stateful plane
  (:meth:`MapReduceRuntime.run_stateful`) the same task also receives
  its partition of the resident state store, joins the groups against
  it by cached key bytes, calls ``job.reduce_state`` instead, and
  reports the changed records — a plain job is the case with no state
  partition.

Plain and stateful jobs run through one job skeleton (configure,
split, map, shuffle, reduce, counter merge, job accounting); they
differ only in the records the map reads, the map method it calls, and
the state partition each reduce task joins against.

The encoded shuffle plane
-------------------------

Everything between ``job.map`` emitting a pair and ``job.reduce``
receiving a key group flows as an *encoded record* — the triple
``(key_bytes, key, value)`` where ``key_bytes = canonical_bytes(key)``
is computed **once per run**, at emit time.  A *run* is every value
one map-task attempt emits under one exact-``str`` key: the first
emission makes the record, later ones join its value slot, which
becomes a private ``_Run`` list in emission order.  Any other key makes
one record per value.  GreedyMR's messages are the case in point: one
task names the same vertex many times in a round.

Partitioning hashes the cached bytes (``fast_hash_bytes(key_bytes) %
num_reduce_tasks``, a CRC-based hash far cheaper than the per-record
MD5 it replaced; the resident state store routes by the same formula).
A stateful round routes a record whose key is resident through the
store's key index, which holds that same partition, so a resident key
is hashed once, when it enters the store, not once per round.  The
combiner's sort/group and the reduce-side grouping compare the
cached bytes (a combiner output under its group's own key object
inherits the group's bytes), and the shuffle sorts, spills and k-way
merges them byte-first — no stage re-encodes, and each stage handles a
run as one record.  Grouping unpacks a run into its values, so ``job.reduce``
sees the same values in the same order, and the counters
(``map.output.records``, ``shuffle.records``,
``shuffle.encoded_bytes``) still count values.  Only the volatile
spill counters (``spilled_records``, ``spill_files``) count encoded
records.  The invariant — one ``canonical_bytes`` call per distinct
``str`` key per map-task attempt, per emitted non-``str`` key object,
and per fresh combiner key — is asserted by counting-codec tests in
``tests/mapreduce/test_encoded_plane.py``.

Storage model
-------------

Storage is pluggable alongside compute (see :mod:`repro.mapreduce.
storage`): ``storage="memory" | "disk"`` (or any
:class:`~repro.mapreduce.storage.FileSystem`) selects where inter-job
datasets live — :class:`~repro.mapreduce.pipeline.Pipeline` wires its
stages through the runtime's filesystem.  Every job shuffles through
one :class:`~repro.mapreduce.storage.ExternalShuffle`: map outputs
accumulate in per-partition buffers, and each partition's spilled runs
and sorted tail are k-way merged at reduce time, so every reduce task
receives a key-sorted partition.  ``spill_threshold`` bounds the
buffers: past it they sort-and-spill to disk runs, metering
``spilled_records``/``spill_files``/``spilled_bytes``; ``None`` never
spills, and then no run directory is created.  On the serial backend
without retries the reduce tasks consume the merged partitions as lazy
streams, never re-materializing them driver-side.

Profiling
---------

Per-phase wall-clock accumulates in the runtime's
:class:`~repro.telemetry.metrics.MetricsRegistry` as ``runtime``
gauges (``phase.map_seconds`` etc.), still readable as a plain dict
via :attr:`MapReduceRuntime.phase_timings` (``map`` / ``shuffle`` /
``reduce`` / ``spill`` seconds, across all jobs run by the instance).
Timings are a diagnostic meter — gauges (and the volatile per-job
timing histograms alongside them) are deliberately kept out of
:class:`Counters`, whose totals are part of the bit-identical
determinism contract; :func:`~repro.mapreduce.state.
strip_volatile_counters` drops them from registry snapshots.  The CLI
surfaces them via ``repro join/match/serve --profile``.

Alongside the counters, the registry carries *deterministic*
histograms of data-dependent per-task quantities (map/reduce output
records per task), observed driver-side in task-index order — their
bucket totals join the bit-identical contract.  Attaching a
:class:`~repro.telemetry.trace.Tracer` (the ``tracer`` argument, or
``--trace`` on the CLI) additionally records a ``job → phase → task``
span tree, with per-task wall-clock measured inside the task wrapper
so the same spans come back from every backend.

Determinism contract: the runtime collects task results and merges
task-local counters *in task-index order*, so outputs, ``job_log``, and
counter totals are bit-identical across backends and worker counts
(property-tested in ``tests/mapreduce/test_executors.py``) — and, minus
the spill counters, across filesystems and spill thresholds
(property-tested in ``tests/mapreduce/test_storage_spill.py``).
Because tasks may execute in separate processes, jobs must be
stateless and — for the ``cluster`` backend — picklable together
with their side data and records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..telemetry.metrics import (
    COUNT_BUCKETS,
    Counters,
    MetricsRegistry,
    TIMING_BUCKETS,
)
from .errors import JobValidationError
from .executors import Executor, resolve_executor
from .faults import (
    FAULT_COUNTER_GROUP,
    FaultPlan,
    FaultyFileSystem,
    RetryPolicy,
    RetryingFileSystem,
    fired_specs,
    resilient_task_call,
)
from .job import KeyValue, MapReduceJob
from .partitioner import canonical_bytes, fast_hash_bytes
from .state import Quiet, ResidentStateStore, Retired
from .storage import ExternalShuffle, FileSystem, resolve_filesystem

__all__ = ["MapReduceRuntime"]

#: One record on the encoded shuffle plane: the canonical key encoding
#: (computed once per run, at map-emit time), the key, and the value —
#: or a :class:`_Run` of values.
EncodedRecord = Tuple[bytes, Any, Any]

#: Sort/group key of the encoded plane: the cached canonical bytes.
_record_key_bytes = itemgetter(0)


class _Run(list):
    """The values one map-task attempt emitted under one ``str`` key.

    Occupies the value slot of that key's first encoded record, in
    emission order.  Private, so no job can emit one: a value whose
    class is ``_Run`` always means "several values", never one.
    """

    __slots__ = ()


class MapReduceRuntime:
    """Execute :class:`MapReduceJob` instances on an in-process "cluster".

    Parameters
    ----------
    num_map_tasks, num_reduce_tasks:
        Degree of simulated parallelism.  Results never depend on these,
        only the task boundaries do.
    counters:
        Optional shared :class:`Counters`; a fresh one is created if
        omitted.  All jobs run by this runtime meter into it.
    speculative_execution:
        When ``True``, every map task is executed twice (as a real
        cluster may do for stragglers or after failures) and the two
        outputs must match exactly.  This catches jobs that violate the
        statelessness contract — the silent-corruption class of bug on
        a real cluster.  Costs 2x map work; intended for tests.
    backend:
        Execution backend for map and reduce tasks: ``"serial"``
        (default), ``"cluster"`` (worker daemon processes over
        localhost TCP sockets), or any
        :class:`~repro.mapreduce.executors.Executor` instance.  Results
        and counters are bit-identical across backends.
    max_workers:
        Worker-fleet size for the ``"cluster"`` backend; ignored by
        ``"serial"`` and by pre-built executor instances.
    storage:
        Storage backend for inter-job datasets: ``"memory"``
        (default), ``"disk"``, or any :class:`~repro.mapreduce.storage.
        FileSystem` instance.  :class:`~repro.mapreduce.pipeline.
        Pipeline` defaults to this runtime's filesystem.  Results are
        bit-identical across storage backends.
    spill_threshold:
        Bounds the shuffle's buffers: each reduce partition's map
        outputs accumulate in a buffer that is sorted and spilled to a
        disk run once it holds more than this many records (``0``
        spills every record), and runs are k-way merged at reduce
        time.  ``None`` (default) never spills, keeping the entire
        shuffle in memory.  Outputs are bit-identical across
        thresholds; only the spill counters differ.
    spill_dir:
        Parent directory for spill runs (default: the system temporary
        directory).
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  When set,
        every job records a ``job → phase → task`` span tree (per-task
        wall-clock measured inside the picklable task wrapper, so all
        backends report comparably).  ``None`` (default) keeps the
        instrumentation sites zero-cost.
    retry_policy:
        Optional :class:`~repro.mapreduce.faults.RetryPolicy`.  With
        ``max_attempts > 1``, failed task attempts re-execute (the
        failed attempt's counters are discarded whole, so totals stay
        bit-identical) and transient storage errors are retried
        driver-side; with ``task_timeout`` set and a parallel backend,
        straggling tasks get a speculative backup attempt and the
        first finisher wins.  Recovery activity is metered under the
        volatile ``faults`` counter group.
    fault_plan:
        Optional :class:`~repro.mapreduce.faults.FaultPlan` injecting
        seeded, deterministic task crashes / straggler delays /
        transient storage errors into this runtime — chaos testing
        for the retry machinery.  Pair with a ``retry_policy`` whose
        budget covers the plan, or jobs fail as the plan dictates.
    """

    def __init__(
        self,
        num_map_tasks: int = 4,
        num_reduce_tasks: int = 4,
        counters: Optional[Counters] = None,
        speculative_execution: bool = False,
        backend: Any = "serial",
        max_workers: Optional[int] = None,
        storage: Any = None,
        spill_threshold: Optional[int] = None,
        spill_dir: Optional[str] = None,
        tracer: Any = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if num_map_tasks < 1 or num_reduce_tasks < 1:
            raise JobValidationError("task counts must be positive")
        if spill_threshold is not None and spill_threshold < 0:
            raise JobValidationError(
                f"spill_threshold must be >= 0 or None, got "
                f"{spill_threshold}"
            )
        self.num_map_tasks = num_map_tasks
        self.num_reduce_tasks = num_reduce_tasks
        self.counters = counters if counters is not None else Counters()
        self.speculative_execution = speculative_execution
        self.executor: Executor = resolve_executor(
            backend, max_workers=max_workers
        )
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        filesystem: FileSystem = resolve_filesystem(storage)
        if fault_plan is not None and fault_plan.io_rate > 0:
            filesystem = FaultyFileSystem(
                filesystem, fault_plan, counters=self.counters
            )
        if retry_policy is not None and retry_policy.max_attempts > 1:
            filesystem = RetryingFileSystem(
                filesystem, retry_policy, counters=self.counters
            )
        self.filesystem: FileSystem = filesystem
        self.spill_threshold = spill_threshold
        self.spill_dir = spill_dir
        self.jobs_executed = 0
        self.job_log: List[str] = []
        self._state_store_sequence = 0
        #: The unified metrics registry: wraps this runtime's counters
        #: (same instance — every counter contract carries over) and
        #: adds gauges for phase wall-clock plus histograms for
        #: per-task record distributions.
        self.metrics = MetricsRegistry(counters=self.counters)
        #: Optional :class:`~repro.telemetry.trace.Tracer`; ``None``
        #: (the default) keeps every instrumentation site zero-cost.
        self.tracer = tracer

    _PHASES = ("map", "shuffle", "reduce", "spill")

    @property
    def phase_timings(self) -> Dict[str, float]:
        """Accumulated wall-clock seconds per phase across every job
        this runtime has run, as a plain dict.

        A read-only view over the registry's ``runtime`` gauges
        (``phase.<name>_seconds``) — the gauges are the source of
        truth, so any holder of the registry (the serving layer's
        cumulative ``--profile``, the metrics endpoint) sees the same
        accumulation.  A diagnostic meter; never part of the counter
        determinism contract.
        """
        return {
            phase: self.metrics.gauge(
                "runtime", f"phase.{phase}_seconds"
            ).value
            for phase in self._PHASES
        }

    def _meter_phase(self, phase: str, seconds: float) -> None:
        """Accumulate one job's phase wall-clock: cumulative gauge plus
        a volatile per-job timing distribution."""
        self.metrics.gauge("runtime", f"phase.{phase}_seconds").add(
            seconds
        )
        self.metrics.observe(
            "runtime",
            f"phase.{phase}_seconds_dist",
            seconds,
            TIMING_BUCKETS,
            volatile=True,
        )

    def _span(self, name: str, kind: str, **attrs: Any):
        """A tracer span when tracing is on, else a no-op context."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, kind=kind, **attrs)

    @contextmanager
    def _phase(self, phase: str, **attrs: Any) -> Iterator[None]:
        """One job phase: a ``phase:`` span, metered by
        :meth:`_meter_phase` when it completes."""
        started = time.perf_counter()
        with self._span(f"phase:{phase}", kind="phase", **attrs):
            yield
        self._meter_phase(phase, time.perf_counter() - started)

    def _run_tasks(
        self,
        fn: Callable,
        tasks: List[Tuple],
        label: str,
        job: MapReduceJob,
    ) -> List[Any]:
        """Dispatch task units, recording per-task spans when tracing.

        The timing wrapper runs *inside* the task (picklable, so the
        cluster backend measures the same way), and leaf spans are
        recorded driver-side in task-index order under whichever span
        is currently open.

        This is also the recovery choke point.  With a
        :class:`RetryPolicy`, every task is wrapped in
        :func:`~repro.mapreduce.faults.resilient_task_call` (retries
        stay inside the worker, so the backend sees one submission per
        task) and a ``task_timeout`` gives straggling tasks a backup
        attempt on a parallel backend; with a :class:`FaultPlan`, the
        wrapper also fires the scheduled crashes and delays.  Failed
        attempts never return their counters, so the merged totals are
        bit-identical with the fault-free run; recovery activity lands
        in the volatile ``faults`` group.
        """
        policy = self.retry_policy or RetryPolicy(max_attempts=1)
        plan = self.fault_plan
        max_attempts = policy.max_attempts
        faulty = plan is not None and plan.has_task_faults
        if faulty or max_attempts > 1:
            # Without scheduled faults, real transient errors (OSError
            # from a flaky disk, say) still get the retry budget.
            wrapped: List[Tuple] = []
            for index, task in enumerate(tasks):
                specs: Tuple = ()
                if faulty:
                    specs = plan.task_faults(
                        job.name, label, index, max_attempts
                    )
                for spec in fired_specs(specs):
                    self.counters.increment(
                        FAULT_COUNTER_GROUP, f"injected_{spec.kind}"
                    )
                    self.counters.increment(
                        FAULT_COUNTER_GROUP, "injected_total"
                    )
                wrapped.append((policy, specs, fn) + tuple(task))
            fn, tasks = resilient_task_call, wrapped
        executor = self.executor
        tracer = self.tracer
        if tracer is not None:
            # Timing composes outside the retry wrapper: a task's span
            # covers all its attempts, which is what straggler-hunting
            # traces should see.
            fn, tasks = _timed_call, [
                (fn,) + tuple(task) for task in tasks
            ]
        raw = executor.run_tasks(fn, tasks, timeout=policy.task_timeout)
        # A parallel backend's batch ledger says where the batch's
        # failures went; the serial backend keeps none.
        ledger = executor.ledger
        if ledger is not None:
            for name, count in (
                ("task.speculative_wins", ledger.wins),
                ("pool.respawns", ledger.respawns),
                ("task.resubmits", ledger.resubmits),
            ):
                if count:
                    self.counters.increment(
                        FAULT_COUNTER_GROUP, name, count
                    )
        executor.publish_metrics(self.metrics)
        if tracer is None:
            return raw
        # Worker attribution rides on the task spans where it is known.
        workers = ledger.workers if ledger is not None else [None] * len(raw)
        results: List[Any] = []
        for index, (seconds, result) in enumerate(raw):
            attrs: Dict[str, Any] = {}
            if workers[index] is not None:
                attrs["worker"] = workers[index]
            tracer.record(
                f"{label}-{index}", kind="task", seconds=seconds, **attrs
            )
            results.append(result)
        return results

    @property
    def backend(self) -> str:
        """Canonical name of the active execution backend."""
        return self.executor.name

    @property
    def storage(self) -> str:
        """Canonical name of the active storage backend."""
        return self.filesystem.name

    # -- public API --------------------------------------------------------

    def run(
        self,
        job: MapReduceJob,
        records: Iterable[KeyValue],
        side_data: Optional[Mapping[str, Any]] = None,
    ) -> List[KeyValue]:
        """Run one complete map-shuffle-reduce cycle and return the output.

        ``records`` is the job input as ``(key, value)`` pairs;
        ``side_data`` is installed on the job via
        :meth:`MapReduceJob.configure` before any task runs.
        """
        return list(self.run_iter(job, records, side_data=side_data))

    def run_iter(
        self,
        job: MapReduceJob,
        records: Iterable[KeyValue],
        side_data: Optional[Mapping[str, Any]] = None,
    ) -> Iterator[KeyValue]:
        """Like :meth:`run`, streaming the output task by task.

        The whole job executes eagerly (every reduce task has finished,
        counters are merged in task-index order, and the job is logged
        before this returns), but the output records are *yielded* from
        the per-task result lists instead of being concatenated into
        one driver-side list — each task's output is released as soon
        as it is consumed.  :class:`~repro.mapreduce.pipeline.Pipeline`
        streams this straight into ``filesystem.write``, so a stage's
        output never exists twice driver-side.
        """
        with self._job(job, records, side_data) as results:
            pass

        def stream() -> Iterator[KeyValue]:
            for index in range(len(results)):
                task_output = results[index][0]
                results[index] = None  # release as consumed
                yield from task_output

        return stream()

    # -- the delta iteration plane ----------------------------------------

    def state_store(self, name: str) -> ResidentStateStore:
        """A resident state store aligned with this runtime's shuffle.

        Partition count, filesystem and spill threshold follow the
        runtime's own configuration, and the store routes keys by the
        shuffle's hash, so the store's partition ``i`` holds exactly the
        keys reduce partition ``i`` can address and parks out-of-core
        on the same ``--fs`` backend the shuffle spills to.
        """
        self._state_store_sequence += 1
        return ResidentStateStore(
            name=f"{name}-{self._state_store_sequence:03d}",
            num_partitions=self.num_reduce_tasks,
            filesystem=self.filesystem,
            spill_threshold=self.spill_threshold,
            counters=self.counters,
        )

    def run_stateful(
        self,
        job: MapReduceJob,
        store: ResidentStateStore,
        deltas: Optional[List[KeyValue]] = None,
        scan: bool = False,
        side_data: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[List[KeyValue], List[KeyValue]]:
        """Run one *resident-state* round and return ``(outputs, deltas)``.

        The stateful variant of :meth:`run`: node records stay in
        ``store`` (partitioned by the same hash of the canonical key
        bytes the shuffle uses) instead of flowing through the job, and
        only the job's lightweight messages are shuffled.  On the
        reduce side each task joins its message groups against its
        state partition by cached key bytes and reports only *changed*
        records back; the runtime applies them to the store and returns
        them as the round's delta stream — an empty stream means the
        iteration has converged.

        Two modes:

        * ``scan=True`` — *resident scan*: the map phase iterates every
          resident record (``job.map_resident``), and the reduce visits
          the byte-sorted union of resident keys and message groups, so
          every record re-evaluates exactly as it would if its state
          were shuffled each round, as the paper's jobs do — minus the
          state records in the shuffle.
        * ``scan=False`` — *frontier*: the map phase covers only
          ``deltas`` (``job.map_delta``) — last round's changed records
          plus :class:`~repro.mapreduce.state.Retired` notices — and
          the reduce visits only keys that received messages.  The
          job's protocol must guarantee quiescent keys cannot change.

        Rounds meter ``iteration.resident_records`` (records resident
        at round start), ``iteration.delta_records`` (changed records
        emitted), and ``iteration.quiescent_records`` (resident records
        untouched by the round) into the job's counter group and the
        global ``runtime`` group.
        """
        if store.num_partitions != self.num_reduce_tasks:
            raise JobValidationError(
                f"state store has {store.num_partitions} partitions "
                f"but the runtime runs {self.num_reduce_tasks} reduce "
                "tasks; create stores via MapReduceRuntime.state_store"
            )
        records = store.records() if scan else (deltas or [])
        resident_before = len(store)
        with self._job(
            job, records, side_data, store=store, scan=scan
        ) as results:
            output: List[KeyValue] = []
            updates: List[Tuple[bytes, Any, Any]] = []
            for task_output, task_updates, _ in results:
                output.extend(task_output)
                updates.extend(task_updates)
            next_deltas, changed = self._apply_updates(store, updates)
            store.maybe_park()
            for target in (job.name, "runtime"):
                self.counters.increment(
                    target, "iteration.resident_records", resident_before
                )
                self.counters.increment(
                    target, "iteration.delta_records", changed
                )
                self.counters.increment(
                    target,
                    "iteration.quiescent_records",
                    max(0, resident_before - changed),
                )
        return output, next_deltas

    # -- the job skeleton ----------------------------------------------------

    @contextmanager
    def _job(
        self,
        job: MapReduceJob,
        records: Iterable[KeyValue],
        side_data: Optional[Mapping[str, Any]],
        store: Optional[ResidentStateStore] = None,
        scan: bool = False,
    ) -> Iterator[List[Tuple[List[KeyValue], List[Any], Counters]]]:
        """The one path every job takes: run map, shuffle and reduce,
        then yield the reduce tasks' ``(outputs, updates, counters)``
        in task-index order, counters already merged.

        ``store=None`` is a plain job; with a store it is a stateful
        round, ``scan`` choosing ``map_resident`` over ``map_delta``.
        The caller's block runs inside the ``job:`` span, before the
        job is logged.
        """
        job.configure(side_data)
        splits = self._split_input(records)
        spiller = ExternalShuffle(
            self.num_reduce_tasks,
            self.spill_threshold,
            spill_dir=self.spill_dir,
        )
        if store is None:
            method, attrs = "map", {}
        elif scan:
            method, attrs = "map_resident", {"mode": "scan"}
        else:
            method, attrs = "map_delta", {"mode": "frontier"}
        with self._span(f"job:{job.name}", kind="job", **attrs):
            try:
                with self._phase("map", tasks=len(splits)):
                    intermediate = self._run_map_phase(job, splits, method)
                with self._phase("shuffle"):
                    partitions = self._shuffle(
                        job, intermediate, spiller, store
                    )
                del intermediate  # the shuffle holds every record now
                # Frontier rounds dispatch only the partitions that
                # received messages, so a message-less partition's
                # state is never loaded (a parked one stays on disk).
                # The shuffle answers without consuming a lazy stream,
                # and the deterministic hash decides, so the skip is
                # identical across backends, filesystems and spills.
                dispatched = [
                    index
                    for index in range(self.num_reduce_tasks)
                    if store is None or scan or spiller.has_records(index)
                ]
                with self._phase("reduce", tasks=len(dispatched)):
                    tasks = [
                        (
                            job,
                            partitions[index],
                            None if store is None else store.partition(index),
                            scan,
                        )
                        for index in dispatched
                    ]
                    results = self._run_tasks(
                        _execute_reduce_task, tasks, label="reduce", job=job
                    )
            finally:
                # Run files live until every reduce task has read them.
                self._meter_phase("spill", spiller.spill_seconds)
                spiller.close()
            reduce_hist = self.metrics.histogram(
                "runtime", "task.reduce_output_records", COUNT_BUCKETS
            )
            for result in results:
                self.counters.merge(result[-1])
                reduce_hist.observe(len(result[0]))
            yield results
            self.jobs_executed += 1
            self.job_log.append(job.name)
            self.counters.increment("runtime", "jobs")

    @staticmethod
    def _apply_updates(
        store: ResidentStateStore,
        updates: List[Tuple[bytes, Any, Any]],
    ) -> Tuple[List[KeyValue], int]:
        """Apply one round's state updates; return ``(deltas, changed)``.

        Changed records become ``(key, new_state)`` deltas in reduce
        order.  :class:`Quiet` updates are stored without becoming
        deltas (and without counting as changed).  :class:`Retired`
        records are deleted; their ``notify`` lists are pruned against
        the *post-round* store (a peer that left in the same round
        needs no notice) and re-emitted only when a surviving peer
        remains — this pruning is what keeps frontier round counts
        identical to the paper's formulation, where a dead node simply
        stops sending.
        """
        retirements: List[Tuple[Any, Retired]] = []
        next_deltas: List[KeyValue] = []
        changed = 0
        for key_bytes, key, new_state in updates:
            if isinstance(new_state, Retired):
                store.discard(key_bytes)
                changed += 1
                if new_state.notify:
                    retirements.append((key, new_state))
            elif isinstance(new_state, Quiet):
                store.put(key_bytes, key, new_state.state)
            else:
                store.put(key_bytes, key, new_state)
                changed += 1
                next_deltas.append((key, new_state))
        # A node that retires late is named by most of its neighbours'
        # notices: look each name up once per round.  Only ``str`` is
        # memoised — equal strings encode to equal bytes, which
        # ``1 == True`` (or tuples of them) would not.
        alive: Dict[str, bool] = {}
        for key, retired in retirements:
            survivors = []
            for peer in retired.notify:
                if peer.__class__ is not str:
                    present = store.contains(peer)
                else:
                    present = alive.get(peer)
                    if present is None:
                        present = alive[peer] = store.contains(peer)
                if present:
                    survivors.append(peer)
            survivors = tuple(survivors)
            if survivors:
                next_deltas.append((key, Retired(survivors)))
        return next_deltas, changed

    # -- phases --------------------------------------------------------------

    def _split_input(
        self, records: Iterable[KeyValue]
    ) -> List[List[KeyValue]]:
        """Distribute input records round-robin across map tasks."""
        splits: List[List[KeyValue]] = [
            [] for _ in range(self.num_map_tasks)
        ]
        for index, record in enumerate(records):
            if not isinstance(record, tuple) or len(record) != 2:
                raise JobValidationError(
                    "input records must be (key, value) pairs, got "
                    f"{record!r}"
                )
            splits[index % self.num_map_tasks].append(record)
        return splits

    def _run_map_phase(
        self,
        job: MapReduceJob,
        splits: List[List[KeyValue]],
        method: str,
    ) -> List[List[EncodedRecord]]:
        """Dispatch one map task per split through the executor;
        ``method`` names the job's map function."""
        results = self._run_tasks(
            _execute_map_task,
            [
                (job, split, self.speculative_execution, method)
                for split in splits
            ],
            label="map",
            job=job,
        )
        map_hist = self.metrics.histogram(
            "runtime", "task.map_output_records", COUNT_BUCKETS
        )
        intermediate: List[List[EncodedRecord]] = []
        for emitted, values, task_counters in results:
            self.counters.merge(task_counters)
            map_hist.observe(values)
            intermediate.append(emitted)
        return intermediate

    def _shuffle(
        self,
        job: MapReduceJob,
        intermediate: List[List[EncodedRecord]],
        spiller: ExternalShuffle,
        store: Optional[ResidentStateStore],
    ) -> List[Any]:
        """Partition, sort and meter the intermediate records.

        Records route through ``spiller``'s per-partition buffers,
        which sort-and-spill to disk runs past the spill threshold
        (never, with none), and each partition comes back key-sorted:
        its runs and its tail k-way merged, equal keys in arrival
        order.  So every threshold hands each reduce task the same
        sorted records, and reduce outputs are bit-identical across
        thresholds.

        Each record's cached key bytes are looked up in the resident
        store's key index (an empty one for a plain job, ``store`` None)
        and only a key the store does not hold is hashed; the index
        holds the hash's own partition for every resident key, so the
        routing is the hash's record for record.  Byte
        metering measures the cached bytes with ``len`` instead of
        re-encoding the key.  A :class:`_Run` is routed once and
        metered per value, so every counter reads as if each value were
        its own record.
        """
        group = job.name
        num_partitions = self.num_reduce_tasks
        add = spiller.add
        shuffled = 0
        encoded_bytes = 0
        resident = (store.key_index if store is not None else {}).get
        for task_index, task_output in enumerate(intermediate):
            for record in task_output:
                key_bytes = record[0]
                index = resident(key_bytes)
                if index is None:
                    index = fast_hash_bytes(key_bytes) % num_partitions
                add(index, record)
                value = record[2]
                run = value if value.__class__ is _Run else (value,)
                shuffled += len(run)
                encoded_bytes += len(key_bytes) * len(run)
            # These records now live in the shuffle's buffers or
            # on-disk runs; drop the driver's copy so routing never
            # holds the shuffle twice.
            intermediate[task_index] = []
        policy = self.retry_policy
        if self.executor.picklable_tasks or (
            policy is not None and policy.max_attempts > 1
        ):
            # Task arguments cross a process boundary, or a retried
            # attempt must re-read them from the start: materialize.
            partitions: List[Any] = [
                spiller.merged_partition(index)
                for index in range(num_partitions)
            ]
        else:
            # The serial executor consumes the merged partitions
            # lazily — never re-materialized driver-side.  (Run files
            # live until after reduce; the job skeleton closes the
            # shuffle in its ``finally``.)
            partitions = [
                spiller.merged_stream(index)
                for index in range(num_partitions)
            ]
        spiller.meter(self.counters, group)
        self.counters.increment(group, "shuffle.records", shuffled)
        self.counters.increment("runtime", "shuffle.records", shuffled)
        self.counters.increment(
            group, "shuffle.encoded_bytes", encoded_bytes
        )
        self.counters.increment(
            "runtime", "shuffle.encoded_bytes", encoded_bytes
        )
        return partitions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MapReduceRuntime(map={self.num_map_tasks}, "
            f"reduce={self.num_reduce_tasks}, "
            f"backend={self.backend!r}, storage={self.storage!r}, "
            f"spill_threshold={self.spill_threshold}, "
            f"jobs={self.jobs_executed})"
        )


# -- task units of work ------------------------------------------------------
#
# Module-level functions (not methods) so the cluster backend can
# pickle them by reference.  Each returns a tuple whose last item is its
# task-local Counters; the runtime merges them in task-index order.


def _timed_call(fn: Callable, *args: Any) -> Tuple[float, Any]:
    """Run a task unit and measure its wall-clock inside the worker.

    Used only when a tracer is attached: measuring inside the (still
    picklable) wrapper means the serial and cluster backends both
    report the task's own execution time, not dispatch overhead.
    """
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def _execute_map_task(
    job: MapReduceJob,
    split: List[KeyValue],
    speculative: bool,
    method: str,
) -> Tuple[List[EncodedRecord], int, Counters]:
    """One map task: map every record, verify retries, combine, meter.

    ``method`` names the map function: ``"map"``, or the stateful
    plane's ``"map_resident"`` / ``"map_delta"``.  Returns ``(records,
    values, counters)``: ``values`` counts what the task emitted, a
    :class:`_Run` contributing each of its values.
    """
    counters = Counters()
    group = job.name
    emitted, values = _attempt_map(job, split, group, counters, method)
    if speculative:
        retry, _ = _attempt_map(job, split, group, None, method)
        if retry != emitted:
            raise JobValidationError(
                f"{job.name}.map is non-deterministic: a "
                "speculative re-execution of a task produced "
                "different output (jobs must be stateless and "
                "derive any randomness from their inputs)"
            )
    if job.has_combiner and emitted:
        emitted = _apply_combiner(job, emitted)
        values = len(emitted)
    counters.increment(group, "map.output.records", values)
    return emitted, values, counters


def _attempt_map(
    job: MapReduceJob,
    split: List[KeyValue],
    group: str,
    counters: Optional[Counters],
    method: str,
) -> Tuple[List[EncodedRecord], int]:
    """Run one attempt of a map task (``counters=None`` for retries);
    return its encoded records and the number of values emitted.

    This is where intermediate records enter the encoded plane: each
    emitted pair is validated, and its key canonically encoded the
    first time this attempt emits it — the one ``canonical_bytes`` call
    the run will ever see.  A later value under an exact-``str`` key
    joins that key's first record, whose value slot becomes a
    :class:`_Run`.  Other keys stay one record per value: ``1``,
    ``True`` and ``1.0`` are equal dict keys but encode differently,
    and a ``str`` subclass encodes like the ``str`` it equals — so
    emitting one closes every open run, keeping equal-bytes values in
    arrival order.
    """
    mapper = getattr(job, method)
    emitted: List[EncodedRecord] = []
    # str key -> its record's index in ``emitted``, or its _Run once
    # the key has been emitted twice.
    seen: Dict[str, Any] = {}
    values = 0
    if counters is not None and split:
        counters.increment(group, "map.input.records", len(split))
    for key, value in split:
        produced = mapper(key, value)
        if produced is None:
            raise JobValidationError(
                f"{job.name}.map returned None; return an iterable"
            )
        for pair in produced:
            if type(pair) is not tuple or len(pair) != 2:
                _validated_pair(job, pair)
            out_key, out_value = pair
            values += 1
            cls = out_key.__class__
            if cls is str:
                entry = seen.get(out_key)
                if entry is not None:
                    if entry.__class__ is _Run:
                        entry.append(out_value)
                    else:
                        first = emitted[entry]
                        run = seen[out_key] = _Run((first[2], out_value))
                        emitted[entry] = (first[0], first[1], run)
                    continue
                seen[out_key] = len(emitted)
            elif cls is not tuple and isinstance(out_key, str):
                seen.clear()
            emitted.append(
                (canonical_bytes(out_key), out_key, out_value)
            )
    return emitted, values


def _apply_combiner(
    job: MapReduceJob, emitted: List[EncodedRecord]
) -> List[EncodedRecord]:
    """Group one map task's output by key and apply ``job.combine``.

    Sorting and grouping compare the cached key bytes.  A combiner
    that emits under the very key object it was handed — the usual
    case — keeps that group's cached bytes; only a *new* key object is
    encoded, once, as it enters the plane.  The test is identity, never
    ``==``: ``1``, ``1.0`` and ``True`` are equal and encode
    differently.
    """
    emitted.sort(key=_record_key_bytes)  # stable: arrival order kept
    combined: List[EncodedRecord] = []
    for key_bytes, key, values in _group_encoded_bytes(emitted):
        for pair in job.combine(key, values):
            if type(pair) is not tuple or len(pair) != 2:
                _validated_pair(job, pair)
            out_key, out_value = pair
            out_bytes = (
                key_bytes if out_key is key else canonical_bytes(out_key)
            )
            combined.append((out_bytes, out_key, out_value))
    return combined


def _execute_reduce_task(
    job: MapReduceJob,
    partition: Iterable[EncodedRecord],
    state_partition: Optional[Dict[bytes, Tuple[Any, Any]]],
    scan: bool,
) -> Tuple[List[KeyValue], List[Tuple[bytes, Any, Any]], Counters]:
    """One reduce task: group, reduce, meter.

    Groups its partition, which the shuffle delivers key-sorted, by
    cached key bytes.  With no ``state_partition`` — a plain job —
    each group goes to ``job.reduce``.  With one, the groups join
    against it: the byte-sorted union of resident keys and message
    groups (``scan``) or the message groups alone (frontier), each
    key's resident state and messages going to ``job.reduce_state``.
    Returns ``(outputs, updates, counters)``, where ``updates`` holds
    only the *changed* records — ``(key_bytes, key, new_state)`` with
    :class:`Retired` marking departures — and stays empty for a plain
    job.  The state partition is read-only here; the runtime applies
    the updates driver-side, after every task of the round has
    finished.
    """
    counters = Counters()
    group = job.name
    groups = _group_encoded_bytes(partition)
    stateful = state_partition is not None
    if scan:
        visits = _scan_join(groups, state_partition)
    else:
        resident = state_partition or {}
        visits = (
            (key_bytes, key, resident.get(key_bytes), values)
            for key_bytes, key, values in groups
        )
    output: List[KeyValue] = []
    updates: List[Tuple[bytes, Any, Any]] = []
    visited = 0
    for key_bytes, key, entry, values in visits:
        visited += 1
        if not stateful:
            produced = job.reduce(key, values)
            if produced is None:
                raise JobValidationError(
                    f"{job.name}.reduce returned None; return an "
                    "iterable"
                )
        else:
            state = entry[1] if entry is not None else None
            new_state, produced = job.reduce_state(key, state, values)
            if produced is None:
                raise JobValidationError(
                    f"{job.name}.reduce_state returned no output "
                    "iterable; return (new_state, outputs)"
                )
        for pair in produced:
            if type(pair) is not tuple or len(pair) != 2:
                _validated_pair(job, pair)
            output.append(pair)
        if not stateful:
            continue
        if isinstance(new_state, Retired):
            if entry is not None:
                updates.append((key_bytes, key, new_state))
        elif isinstance(new_state, Quiet):
            if entry is None or new_state.state != entry[1]:
                updates.append((key_bytes, key, new_state))
        elif entry is None:
            if new_state is not None:
                updates.append((key_bytes, key, new_state))
        elif new_state is None:
            updates.append((key_bytes, key, Retired()))
        elif new_state != entry[1]:
            updates.append((key_bytes, key, new_state))
    if visited:
        counters.increment(group, "reduce.input.groups", visited)
    counters.increment(group, "reduce.output.records", len(output))
    return output, updates, counters


def _scan_join(
    groups: Iterator[Tuple[bytes, Any, List[Any]]],
    state_partition: Dict[bytes, Tuple[Any, Any]],
) -> Iterator[Tuple[bytes, Any, Optional[Tuple[Any, Any]], List[Any]]]:
    """Merge-join message groups with a state partition by key bytes.

    Both sides arrive sorted by the canonical key encoding (the groups
    by the shuffle sort, the partition by an explicit sort here), so
    the join is a linear two-pointer merge — resident keys without
    messages are visited with an empty value list, message keys without
    state with ``entry=None``, exactly the union a reduce would see if
    every state record were shuffled with the messages.
    """
    resident = sorted(state_partition.items())
    index = 0
    total = len(resident)
    for key_bytes, key, values in groups:
        while index < total and resident[index][0] < key_bytes:
            entry = resident[index][1]
            yield resident[index][0], entry[0], entry, []
            index += 1
        if index < total and resident[index][0] == key_bytes:
            yield key_bytes, key, resident[index][1], values
            index += 1
        else:
            yield key_bytes, key, None, values
    while index < total:
        entry = resident[index][1]
        yield resident[index][0], entry[0], entry, []
        index += 1


def _validated_pair(job: MapReduceJob, pair: Any) -> KeyValue:
    if not isinstance(pair, tuple) or len(pair) != 2:
        raise JobValidationError(
            f"{job.name} emitted {pair!r}; emit (key, value) tuples"
        )
    return pair


def _group_encoded_bytes(
    records: Iterable[EncodedRecord],
) -> Iterator[Tuple[bytes, Any, List[Any]]]:
    """Group a key-sorted encoded-record stream into ``(key_bytes,
    key, [values])``.

    Key equality is byte equality on the cached canonical encoding —
    no re-encoding, and it works for keys of mixed types exactly like
    the sort order does.  The bytes survive the grouping because the
    stateful reduce joins groups against the resident state store by
    them.  The stream may be lazy (the external shuffle's merged runs);
    it is consumed once, in order.  A :class:`_Run` contributes its
    values in order; it is copied, never extended, because a retried
    task re-reads the same records.
    """
    group_key: Any = None
    group_bytes: Optional[bytes] = None
    group_values: List[Any] = []
    for key_bytes, key, value in records:
        if group_bytes is not None and key_bytes == group_bytes:
            if value.__class__ is _Run:
                group_values.extend(value)
            else:
                group_values.append(value)
        else:
            if group_bytes is not None:
                yield group_bytes, group_key, group_values
            group_key, group_bytes = key, key_bytes
            if value.__class__ is _Run:
                group_values = list(value)
            else:
                group_values = [value]
    if group_bytes is not None:
        yield group_bytes, group_key, group_values
