"""``backend="cluster"``: the Executor adapter over the shared driver.

:class:`ClusterExecutor` satisfies the existing
:class:`~repro.mapreduce.executors.Executor` contract, so the runtime,
the iterative driver, the matching layer, the serving layer, and the
CLI all gain the distributed backend without any API change — and the
cluster joins the bit-identical-across-backends verification battery
for free.

Like the process backend, the heavy resource (the
:class:`~repro.mapreduce.cluster.driver.ClusterDriver` and its worker
fleet) lives in the module-level shared pool registry, keyed
``("cluster", num_workers)``: constructing many runtimes — as
property-based tests do — shares one fleet, :meth:`close` evicts it,
and ``shutdown_shared_pools()`` / ``atexit`` reap the worker processes
at interpreter exit, so ``pytest -x`` leaves no orphaned daemons.

Each batch's :class:`~repro.mapreduce.executors.TaskLedger` comes back
from the driver and is kept as :attr:`ledger`, from which the runtime
meters recovery (``pool.respawns`` / ``task.resubmits`` /
``task.speculative_wins``) and worker attribution.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..executors import (
    _POOL_LOCK,
    _SHARED_POOLS,
    Executor,
    _evict_pool,
    _shared_pool,
)
from .driver import ClusterDriver, _default_cluster_workers

__all__ = ["ClusterExecutor"]


class ClusterExecutor(Executor):
    """Run tasks on a shared localhost worker fleet over TCP frames.

    Task functions, jobs (including side data), and all records must
    be picklable — the same constraint the processes backend imposes,
    for the same reason: task units cross a process boundary.
    """

    name = "cluster"
    picklable_tasks = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers or _default_cluster_workers()

    def run_tasks(
        self,
        fn: Callable,
        tasks: Sequence[Tuple],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        driver: ClusterDriver = _shared_pool("cluster", self.max_workers)
        self.ledger = driver._dispatch(fn, tasks, timeout)
        return self.ledger.results()

    def close(self) -> None:
        _evict_pool("cluster", self.max_workers)

    def publish_metrics(self, registry: Any) -> None:
        """Export fleet health as (volatile) telemetry gauges.

        Task→worker assignment is timing-dependent, so everything here
        is a gauge — excluded from the bit-identity contract by
        ``strip_volatile_counters`` wholesale.
        """
        with _POOL_LOCK:
            driver = _SHARED_POOLS.get(("cluster", self.max_workers))
        if driver is None:
            return
        stats = driver.worker_stats()
        registry.gauge("cluster", "workers").set(stats["workers"])
        registry.gauge("cluster", "worker.respawns").set(
            stats["respawns"]
        )
        registry.gauge("cluster", "task.resubmits").set(
            stats["resubmits"]
        )
        registry.gauge("cluster", "queue_depth.highwater").set(
            stats["queue_depth_highwater"]
        )
        for slot, count in sorted(stats["tasks_by_worker"].items()):
            registry.gauge("cluster", f"worker.{slot}.tasks").set(
                count
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterExecutor(max_workers={self.max_workers})"
