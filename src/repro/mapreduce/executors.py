"""Pluggable task-execution backends for the MapReduce runtime.

The runtime decomposes every job into *independent tasks* (map tasks,
reduce tasks) and hands each batch to an :class:`Executor`.  Two
backends exist:

* :class:`SerialExecutor` — run tasks inline, one after another (the
  default; zero overhead, ideal for small inputs and for debugging);
* ``"cluster"``, in :mod:`repro.mapreduce.cluster` — worker daemon
  processes served over localhost TCP sockets with worker-local result
  storage, heartbeats, death detection with task re-execution, and
  speculative backups (tasks, jobs, and records must be picklable).
  Its driver lives in the shared-pool registry below and resolves
  lazily, so importing this module never pays for the cluster plane.

The contract every backend obeys — and the reason results are
bit-identical across backends — is:

1. ``run_tasks(fn, tasks)`` returns ``[fn(*task) for task in tasks]``
   *in input order*, regardless of completion order;
2. an exception raised by a task propagates to the caller as the
   original exception instance (the first one in task order);
3. backends never share mutable state between tasks: each task meters
   into its own :class:`~repro.telemetry.metrics.Counters`, and the
   runtime merges them deterministically in task-index order.

The cluster's worker fleet is lazy, module-level, and shared across
executor instances, so constructing many runtimes — as property-based
tests do — does not spawn a fleet per instance.  At most one fleet is
kept: requesting a different worker count tears the stale fleet down
first, so runtimes with different sizes never leak fleets behind each
other.  Individual executors may release the fleet early with
:meth:`Executor.close`; the global release point is
:func:`shutdown_shared_pools` (also registered ``atexit``).  Either
way the fleet is lazily recreated on the next use.

Fault tolerance: the cluster backend drives one
:class:`TaskLedger` per batch — the pending ``(index, attempt)``
queue, the outcomes (the first attempt to finish wins), per-task
losses and their cap, resubmits, backup wins, the respawn budget, and
which worker produced each result.  A task whose attempt is lost (a
worker dying mid-task, e.g. via ``os._exit``, or a dropped reply) is
re-queued; re-execution is safe because task units are stateless and
idempotent.  With ``run_tasks(..., timeout=t)``, every task still open
``t`` seconds after dispatch gets one backup attempt and the first
finisher wins, the loser's result being discarded (identical by the
statelessness contract).  The runtime meters the batch's recovery from
its ledger, :attr:`Executor.ledger`.
"""

from __future__ import annotations

import atexit
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import ExecutorError

__all__ = [
    "Executor",
    "SerialExecutor",
    "TaskLedger",
    "WorkerDied",
    "EXECUTOR_BACKENDS",
    "resolve_executor",
    "shutdown_shared_pools",
]

#: One task: the positional arguments applied to the task function.
Task = Tuple[Any, ...]
TaskFunction = Callable[..., Any]

#: Canonical backend names accepted by :func:`resolve_executor` (and
#: therefore by ``MapReduceRuntime(backend=...)`` and the CLI).
EXECUTOR_BACKENDS = ("serial", "cluster")

#: Worker deaths (pool respawns) tolerated per batch before it fails
#: with :class:`WorkerDied`.
RESPAWN_BUDGET = 6

#: Lost attempts tolerated per task before the batch fails with
#: :class:`WorkerDied`.
MAX_TASK_LOSSES = 10


class WorkerDied(ExecutorError):
    """Workers kept dying (or a task kept being lost) past a batch's
    budget."""


class TaskLedger:
    """The attempt bookkeeping of one batch on the cluster backend.

    Attempt ``0`` of every task is queued up front; :meth:`back_up`
    queues attempt ``1`` of every open task.  The first attempt of a
    task to :meth:`record` its outcome wins and a late duplicate is
    ignored, so results are independent of which attempt got there
    first.  A lost attempt is re-queued by :meth:`lose`, and a worker
    death is charged by :meth:`respawn`; either raises
    :class:`WorkerDied` once its budget is spent.

    The ledger does no locking of its own: a backend that drives it
    from several threads holds :attr:`cond` around every call.
    """

    def __init__(self, count: int) -> None:
        self.pending: deque[Tuple[int, int]] = deque(
            (index, 0) for index in range(count)
        )
        self.done = [False] * count
        #: ``(ok, value)`` per task, as
        #: :func:`~repro.mapreduce.cluster.worker._run_guarded` returns it.
        self.outcomes: List[Any] = [None] * count
        #: The worker slot that produced each accepted result, where
        #: the backend knows it.
        self.workers: List[Optional[int]] = [None] * count
        self.losses = [0] * count
        self.completed = 0
        #: Tasks whose winning attempt was a backup.
        self.wins = 0
        self.resubmits = 0
        self.respawns = 0
        #: An infrastructure failure that ended the batch early.
        self.failure: Optional[BaseException] = None
        self.cond = threading.Condition()

    @property
    def settled(self) -> bool:
        """Every task has an outcome, or the batch has failed."""
        return self.failure is not None or self.completed == len(self.done)

    def next(self) -> Optional[Tuple[int, int]]:
        """Pop the next queued attempt of a still-open task."""
        while self.pending:
            index, attempt = self.pending.popleft()
            if not self.done[index]:
                return index, attempt
        return None

    def record(
        self,
        index: int,
        attempt: int,
        outcome: Any,
        worker: Optional[int] = None,
    ) -> None:
        """Accept an attempt's outcome unless the task already has one."""
        if self.done[index]:
            return
        self.done[index] = True
        self.outcomes[index] = outcome
        self.workers[index] = worker
        self.completed += 1
        if attempt > 0:
            self.wins += 1

    def lose(self, index: int, attempt: int, cause: BaseException) -> None:
        """Re-queue an attempt whose result never arrived."""
        if self.done[index]:
            return
        self.losses[index] += 1
        if self.losses[index] >= MAX_TASK_LOSSES:
            raise WorkerDied(
                f"task {index} was lost {self.losses[index]} times "
                f"(last: {cause})"
            )
        self.pending.append((index, attempt))
        self.resubmits += 1

    def back_up(self) -> None:
        """Queue one backup attempt for every task still open."""
        for index, done in enumerate(self.done):
            if not done:
                self.pending.append((index, 1))

    def respawn(self, cause: object) -> None:
        """Charge one worker respawn to the batch's budget."""
        if self.respawns >= RESPAWN_BUDGET:
            raise WorkerDied(
                f"workers kept dying after {self.respawns} respawns: "
                f"{cause}"
            )
        self.respawns += 1

    def fail(self, failure: BaseException) -> None:
        """End the batch with an infrastructure failure (first wins)."""
        if self.failure is None:
            self.failure = failure

    def results(self) -> List[Any]:
        """Hand over the results in task order; raises the batch's
        failure, else the first task failure in task order — the
        cross-backend error determinism rule.

        The ledger keeps no reference to them afterwards: an executor
        holds its last ledger, which must not keep a finished batch's
        outputs alive.
        """
        if self.failure is not None:
            raise self.failure
        outcomes, self.outcomes = self.outcomes, []
        results = []
        for ok, value in outcomes:
            if not ok:
                raise value
            results.append(value)
        return results


class Executor:
    """Strategy interface for executing a batch of independent tasks."""

    #: Canonical backend name, e.g. ``"serial"``.
    name: str = "abstract"

    #: ``True`` when task arguments cross a process boundary and must
    #: therefore pickle.  The runtime uses this to decide whether a
    #: reduce task may consume a lazy (unpicklable) record stream from
    #: the external shuffle or needs a materialized list.
    picklable_tasks: bool = False

    #: The :class:`TaskLedger` of the most recent batch.  The serial
    #: backend builds none: it has no attempts to race or lose.
    ledger: Optional[TaskLedger] = None

    def run_tasks(
        self,
        fn: TaskFunction,
        tasks: Sequence[Task],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """Return ``[fn(*task) for task in tasks]`` in input order.

        With ``timeout``, a parallel backend gives every task still
        open ``timeout`` seconds after dispatch one backup attempt;
        whichever attempt finishes first supplies the result.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker pool this executor was using.

        Safe to call repeatedly; the pool is lazily recreated on the
        next use.  The serial backend holds no resources.
        """

    def publish_metrics(self, registry: Any) -> None:
        """Export fleet health as gauges after a batch (if any)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every task inline in the calling thread (default backend).

    There are no stragglers to race, so ``timeout`` is ignored.
    """

    name = "serial"

    def run_tasks(
        self,
        fn: TaskFunction,
        tasks: Sequence[Task],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        return [fn(*task) for task in tasks]


# -- the shared cluster fleet ---------------------------------------------

_POOL_LOCK = threading.Lock()
#: The live cluster driver, keyed by its worker count (at most one).
_SHARED_POOLS: Dict[int, Any] = {}


def _shared_pool(max_workers: int) -> Any:
    """Return (creating lazily) the shared cluster fleet of this size.

    At most one fleet stays alive: asking for a different worker count
    evicts the stale one, so alternating runtimes with different sizes
    cannot accumulate idle worker fleets.
    """
    stale: List[Any] = []
    with _POOL_LOCK:
        pool = _SHARED_POOLS.get(max_workers)
        if pool is None:
            stale = list(_SHARED_POOLS.values())
            _SHARED_POOLS.clear()
            # Lazy import: the cluster plane is only paid for when the
            # cluster backend is actually used.
            from .cluster.driver import ClusterDriver

            pool = _SHARED_POOLS[max_workers] = ClusterDriver(
                num_workers=max_workers
            )
    for old in stale:  # shutdown outside the lock; it can block
        old.shutdown(wait=False, cancel_futures=True)
    return pool


def _evict_pool(max_workers: int) -> None:
    with _POOL_LOCK:
        pool = _SHARED_POOLS.pop(max_workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down the shared cluster fleet (also registered atexit)."""
    with _POOL_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_shared_pools)


def resolve_executor(
    backend: Union[str, Executor, None],
    max_workers: Optional[int] = None,
) -> Executor:
    """Turn a backend name (or an :class:`Executor`) into an executor.

    ``None`` selects the serial backend.  Only the exact names in
    :data:`EXECUTOR_BACKENDS` are accepted; anything else raises
    :class:`ExecutorError` listing them.
    """
    if isinstance(backend, Executor):
        return backend
    if backend is None or backend == "serial":
        return SerialExecutor()
    if backend == "cluster":
        # Lazy: only cluster users pay the cluster plane's import.
        from .cluster.executor import ClusterExecutor

        return ClusterExecutor(max_workers=max_workers)
    raise ExecutorError(
        f"unknown executor backend {backend!r}; "
        f"known backends: {', '.join(EXECUTOR_BACKENDS)}"
    )
