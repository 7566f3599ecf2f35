"""Pluggable task-execution backends for the MapReduce runtime.

The runtime decomposes every job into *independent tasks* (map tasks,
reduce tasks) and hands each batch to an :class:`Executor`.  Two
backends are provided here:

* :class:`SerialExecutor` — run tasks inline, one after another (the
  default; zero overhead, ideal for small inputs and for debugging);
* :class:`ProcessExecutor` — run tasks on a shared process pool
  (true CPU parallelism; tasks, jobs, and records must be picklable).

A third backend, ``"cluster"``, lives in :mod:`repro.mapreduce.
cluster`: worker daemon processes served over localhost TCP sockets
with worker-local result storage, heartbeats, death detection with
task re-execution, and speculative backups.  It registers here through
the same shared-pool machinery (kind ``"cluster"``) and resolves
lazily, so importing this module never pays for the cluster plane.

The contract every backend obeys — and the reason results are
bit-identical across backends — is:

1. ``run_tasks(fn, tasks)`` returns ``[fn(*task) for task in tasks]``
   *in input order*, regardless of completion order;
2. an exception raised by a task propagates to the caller as the
   original exception instance (the first one in task order);
3. backends never share mutable state between tasks: each task meters
   into its own :class:`~repro.mapreduce.counters.Counters`, and the
   runtime merges them deterministically in task-index order.

Worker pools are lazy, module-level, and shared across executor
instances, so constructing many runtimes — as property-based tests do
— does not fork a pool per instance.  At most one pool per kind is
kept: requesting a different worker count tears the stale pool down
first, so runtimes with different sizes never leak pools behind each
other.  Individual executors may release their pool early with
:meth:`Executor.close`; the global release point is
:func:`shutdown_shared_pools` (also registered ``atexit``).  Either
way pools are lazily recreated on the next use.

Fault tolerance: :class:`ProcessExecutor` survives a
``BrokenProcessPool`` (a worker dying mid-task, e.g. via ``os._exit``)
by respawning the pool and re-submitting the tasks that were in
flight, up to :attr:`ProcessExecutor.max_pool_respawns` times per
batch — re-execution is safe because task units are stateless and
idempotent.  Parallel backends also implement
:meth:`Executor.run_tasks_speculative`: tasks still running after a
timeout get a backup attempt and the first finisher wins, the loser's
result being discarded (identical by the statelessness contract).
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import ExecutorError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTOR_BACKENDS",
    "resolve_executor",
    "shutdown_shared_pools",
]

#: One task: the positional arguments applied to the task function.
Task = Tuple[Any, ...]
TaskFunction = Callable[..., Any]

#: Canonical backend names accepted by :func:`resolve_executor` (and
#: therefore by ``MapReduceRuntime(backend=...)`` and the CLI).
EXECUTOR_BACKENDS = ("serial", "processes", "cluster")


class Executor:
    """Strategy interface for executing a batch of independent tasks."""

    #: Canonical backend name, e.g. ``"serial"``.
    name: str = "abstract"

    #: ``True`` when task arguments cross a process boundary and must
    #: therefore pickle.  The runtime uses this to decide whether a
    #: reduce task may consume a lazy (unpicklable) record stream from
    #: the external shuffle or needs a materialized list.
    picklable_tasks: bool = False

    def run_tasks(
        self, fn: TaskFunction, tasks: Sequence[Task]
    ) -> List[Any]:
        """Return ``[fn(*task) for task in tasks]`` in input order."""
        raise NotImplementedError

    def run_tasks_speculative(
        self, fn: TaskFunction, tasks: Sequence[Task], timeout: float
    ) -> Tuple[List[Any], int]:
        """Like :meth:`run_tasks`, plus straggler mitigation.

        Tasks still running ``timeout`` seconds after dispatch get a
        backup attempt; whichever attempt finishes first supplies the
        result and the loser is discarded.  Returns ``(results,
        backup_wins)``.  Backends without real parallelism have no
        stragglers to race, so the base implementation just runs the
        batch.
        """
        return self.run_tasks(fn, tasks), 0

    def close(self) -> None:
        """Release any worker pool this executor was using.

        Safe to call repeatedly; the pool is lazily recreated on the
        next use.  The serial backend holds no resources.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every task inline in the calling thread (default backend)."""

    name = "serial"

    def run_tasks(
        self, fn: TaskFunction, tasks: Sequence[Task]
    ) -> List[Any]:
        return [fn(*task) for task in tasks]


# -- shared pools ----------------------------------------------------------

_POOL_LOCK = threading.Lock()
_SHARED_POOLS: Dict[Tuple[str, int], Any] = {}


def _default_workers() -> int:
    return min(os.cpu_count() or 1, 8)


def _shared_pool(kind: str, max_workers: int) -> Any:
    """Return (creating lazily) the shared pool for ``(kind, size)``.

    At most one pool per kind stays alive: asking for a different
    worker count evicts the stale pool, so alternating runtimes with
    different sizes cannot accumulate idle worker fleets.
    """
    key = (kind, max_workers)
    stale: List[Any] = []
    with _POOL_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is None:
            for other_key in [
                k for k in _SHARED_POOLS if k[0] == kind
            ]:
                stale.append(_SHARED_POOLS.pop(other_key))
            if kind == "cluster":
                # Lazy import: the cluster plane is only paid for when
                # the cluster backend is actually used.
                from .cluster.driver import ClusterDriver

                pool = ClusterDriver(num_workers=max_workers)
            else:
                # The platform-default start method: fork on older
                # Linux Pythons, forkserver/spawn elsewhere (safer in a
                # multithreaded process).  Under non-fork start methods
                # jobs must live in importable modules — the same
                # constraint pickling imposes anyway.
                pool = ProcessPoolExecutor(max_workers=max_workers)
            _SHARED_POOLS[key] = pool
    for old in stale:  # shutdown outside the lock; it can block
        old.shutdown(wait=False, cancel_futures=True)
    return pool


def _evict_pool(kind: str, max_workers: int) -> None:
    with _POOL_LOCK:
        pool = _SHARED_POOLS.pop((kind, max_workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down every shared worker pool (also registered atexit)."""
    with _POOL_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_shared_pools)


def _speculate(
    submit: Callable[..., Any],
    fn: TaskFunction,
    tasks: List[Task],
    timeout: float,
) -> Tuple[List[Any], int]:
    """First-finisher-wins straggler racing over ``submit``.

    Primaries for every task are dispatched up front; any primary
    still running after ``timeout`` seconds gets one backup attempt,
    and whichever of the pair completes first supplies the result.
    The loser keeps running to completion in the pool but its result
    is never read — safe, because task units are stateless and their
    outputs identical.  Task-order error determinism is preserved:
    results (and the first failure) are collected in input order.
    """
    primaries = [submit(fn, *task) for task in tasks]
    done, straggling = wait(primaries, timeout=timeout)
    wins = 0
    winners: List[Any] = list(primaries)
    for index, primary in enumerate(primaries):
        if primary not in straggling:
            continue
        backup = submit(fn, *tasks[index])
        wait([primary, backup], return_when=FIRST_COMPLETED)
        # Prefer the primary on a photo finish — fewer discarded wins.
        if primary.done():
            backup.cancel()
        else:
            winners[index] = backup
            wins += 1
    return [future.result() for future in winners], wins


def _run_guarded(fn: TaskFunction, task: Task) -> Tuple[bool, Any]:
    """Process-pool trampoline: capture task errors as return values.

    Returning ``(False, exc)`` instead of raising keeps the *original*
    exception instance intact across the process boundary, so a
    ``JobValidationError`` raised inside a worker surfaces to the caller
    as a ``JobValidationError`` — not as a pool plumbing error.
    """
    try:
        return True, fn(*task)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = ExecutorError(
                f"task raised unpicklable {type(exc).__name__}: {exc}"
            )
        return False, exc


class ProcessExecutor(Executor):
    """Run tasks on a shared :class:`ProcessPoolExecutor`.

    Task functions, jobs (including their side data), and all records
    must be picklable; violations raise :class:`ExecutorError` with the
    offending detail rather than a bare pool error.
    """

    name = "processes"
    picklable_tasks = True

    #: Pool respawns allowed per batch before giving up: a worker can
    #: die (and be replaced) this many times without failing the job.
    max_pool_respawns: int = 3

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers or _default_workers()
        #: Lifetime meters, read by the runtime to fill the ``faults``
        #: counter group after each dispatch.
        self.pool_respawns = 0
        self.resubmitted_tasks = 0

    def run_tasks(
        self, fn: TaskFunction, tasks: Sequence[Task]
    ) -> List[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        outcomes: List[Any] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        respawns_left = self.max_pool_respawns
        while pending:
            pool = _shared_pool("processes", self.max_workers)
            futures: Dict[int, Any] = {}
            failed: List[int] = []
            broken: Optional[BaseException] = None
            for index in pending:
                try:
                    futures[index] = pool.submit(
                        _run_guarded, fn, tasks[index]
                    )
                except (BrokenExecutor, RuntimeError) as exc:
                    # The pool died under us before accepting the task;
                    # everything not yet submitted needs the next pool.
                    broken = exc
                    failed.append(index)
            for index in sorted(futures):
                try:
                    outcomes[index] = futures[index].result()
                except BrokenExecutor as exc:
                    # The worker holding this task died (e.g. hard
                    # os._exit); the task itself is innocent and gets
                    # re-submitted to a fresh pool.
                    broken = exc
                    failed.append(index)
                except Exception as exc:
                    # _run_guarded converts job errors into values, so
                    # any other exception is infrastructure:
                    # unpicklable inputs.
                    name = getattr(fn, "__name__", str(fn))
                    raise ExecutorError(
                        f"processes backend could not execute {name!r}: "
                        f"{exc} (jobs, side data, and records must be "
                        "picklable — define jobs at module level)"
                    ) from exc
            if broken is None:
                break
            _evict_pool("processes", self.max_workers)
            if respawns_left <= 0:
                raise ExecutorError(
                    "processes backend: worker pool kept breaking "
                    f"after {self.max_pool_respawns} respawns: {broken}"
                ) from broken
            respawns_left -= 1
            self.pool_respawns += 1
            self.resubmitted_tasks += len(failed)
            pending = sorted(failed)
        results = []
        for ok, value in outcomes:
            if not ok:
                raise value
            results.append(value)
        return results

    def run_tasks_speculative(
        self, fn: TaskFunction, tasks: Sequence[Task], timeout: float
    ) -> Tuple[List[Any], int]:
        tasks = list(tasks)
        if not tasks:
            return [], 0
        pool = _shared_pool("processes", self.max_workers)

        def submit(task_fn: TaskFunction, *args: Any) -> Any:
            return pool.submit(_run_guarded, task_fn, args)

        try:
            outcomes, wins = _speculate(submit, fn, tasks, timeout)
        except BrokenExecutor as exc:
            # Speculative batches do not respawn mid-race (primary and
            # backup attempts would lose their pairing); the plain
            # run_tasks path is the recovery story for worker death.
            _evict_pool("processes", self.max_workers)
            raise ExecutorError(
                f"processes backend pool broke during speculative "
                f"execution: {exc}"
            ) from exc
        results = []
        for ok, value in outcomes:
            if not ok:
                raise value
            results.append(value)
        return results, wins

    def close(self) -> None:
        _evict_pool("processes", self.max_workers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessExecutor(max_workers={self.max_workers})"


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
    if backend == "processes":
        return ProcessExecutor(max_workers=max_workers)
    if backend == "cluster":
        # Lazy: only cluster users pay the cluster plane's import.
        from .cluster.executor import ClusterExecutor

        return ClusterExecutor(max_workers=max_workers)
    raise ExecutorError(
        f"unknown executor backend {backend!r}; "
        f"known backends: {', '.join(EXECUTOR_BACKENDS)}"
    )
