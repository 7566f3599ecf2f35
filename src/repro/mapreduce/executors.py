"""Pluggable task-execution backends for the MapReduce runtime.

The runtime decomposes every job into *independent tasks* (map tasks,
reduce tasks) and hands each batch to an :class:`Executor`.  Two
backends exist:

* :class:`SerialExecutor` — run tasks inline, one after another (the
  default; zero overhead, ideal for small inputs and for debugging);
* ``"cluster"``, in :mod:`repro.mapreduce.cluster` — worker daemon
  processes served over localhost TCP sockets, with every result
  returned inline on its reply frame, heartbeats, death detection with
  task re-execution, and speculative backups (tasks, jobs, and records
  must be picklable).  It resolves lazily, so importing this module
  never pays for the cluster plane.

The contract every backend obeys — and the reason results are
bit-identical across backends — is:

1. ``run_tasks(fn, tasks)`` returns ``[fn(*task) for task in tasks]``
   *in input order*, regardless of completion order;
2. an exception raised by a task propagates to the caller as the
   original exception instance (the first one in task order);
3. backends never share mutable state between tasks: each task meters
   into its own :class:`~repro.telemetry.metrics.Counters`, and the
   runtime merges them deterministically in task-index order.

Individual executors may release their workers with
:meth:`Executor.close`; the global release point for the cluster's
shared fleet is :func:`shutdown_shared_pools`.  Either way the fleet is
lazily recreated on the next use.  A parallel backend keeps the
attempt bookkeeping of its latest batch as :attr:`Executor.ledger`,
from which the runtime meters the batch's recovery.
"""

from __future__ import annotations

import sys
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import ExecutorError

if TYPE_CHECKING:
    from .cluster.driver import TaskLedger

__all__ = [
    "Executor",
    "SerialExecutor",
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


class Executor:
    """Strategy interface for executing a batch of independent tasks."""

    #: Canonical backend name, e.g. ``"serial"``.
    name: str = "abstract"

    #: ``True`` when task arguments cross a process boundary and must
    #: therefore pickle.  The runtime uses this to decide whether a
    #: reduce task may consume a lazy (unpicklable) record stream from
    #: the external shuffle or needs a materialized list.
    picklable_tasks: bool = False

    #: The :class:`~repro.mapreduce.cluster.driver.TaskLedger` of the
    #: most recent batch.  The serial backend builds none: it has no
    #: attempts to race or lose.
    ledger: Optional["TaskLedger"] = None

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


def shutdown_shared_pools() -> None:
    """Shut down the shared cluster fleet, if one was ever started.

    A fleet exists only once the cluster executor module is imported,
    so this never imports the cluster plane itself.
    """
    cluster = sys.modules.get(f"{__package__}.cluster.executor")
    if cluster is not None:
        cluster.shutdown_fleet()


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
