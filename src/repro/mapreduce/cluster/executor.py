"""``backend="cluster"``: the Executor adapter over the shared driver.

:class:`ClusterExecutor` satisfies the existing
:class:`~repro.mapreduce.executors.Executor` contract, so the runtime,
the iterative driver, the matching layer, the serving layer, and the
CLI all gain the distributed backend without any API change — and the
cluster joins the bit-identical-across-backends verification battery
for free.

The heavy resource (the
:class:`~repro.mapreduce.cluster.driver.ClusterDriver` and its worker
fleet) lives in one module-level slot shared by every executor:
constructing many runtimes — as property-based tests do — shares one
fleet, asking for a different worker count replaces it (so runtimes of
different sizes never leak fleets behind each other), :meth:`close`
releases it, and :func:`shutdown_fleet` (registered ``atexit``) reaps
the worker processes at interpreter exit, so ``pytest -x`` leaves no
orphaned daemons.

Each batch's :class:`~repro.mapreduce.cluster.driver.TaskLedger` is
kept as :attr:`ledger`, from which the runtime meters recovery
(``pool.respawns`` / ``task.resubmits`` / ``task.speculative_wins``)
and worker attribution.
"""

from __future__ import annotations

import atexit
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..executors import Executor
from .driver import ClusterDriver, _default_cluster_workers

__all__ = ["ClusterExecutor", "shutdown_fleet"]

_FLEET_LOCK = threading.Lock()
#: The live shared driver, if any.
_fleet: Optional[ClusterDriver] = None


def _shared_fleet(num_workers: int) -> ClusterDriver:
    """Return (creating lazily) the shared fleet of this size; a fleet
    of another size is shut down first."""
    global _fleet
    with _FLEET_LOCK:
        stale = _fleet
        if stale is not None and stale.num_workers == num_workers:
            return stale
        fleet = _fleet = ClusterDriver(num_workers=num_workers)
    if stale is not None:  # shutdown outside the lock; it can block
        stale.shutdown(wait=False)
    return fleet


def shutdown_fleet(
    num_workers: Optional[int] = None, wait: bool = True
) -> None:
    """Shut down the shared fleet (only if it has ``num_workers``
    workers, when given)."""
    global _fleet
    with _FLEET_LOCK:
        fleet = _fleet
        if fleet is None or num_workers not in (None, fleet.num_workers):
            return
        _fleet = None
    fleet.shutdown(wait=wait)


atexit.register(shutdown_fleet)


class ClusterExecutor(Executor):
    """Run tasks on a shared localhost worker fleet over TCP frames.

    Task functions, jobs (including side data), and all records must
    be picklable: task units cross a process boundary.
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
        driver = _shared_fleet(self.max_workers)
        try:
            return driver.run_tasks(fn, tasks, timeout)
        finally:
            self.ledger = driver.ledger

    def close(self) -> None:
        shutdown_fleet(self.max_workers, wait=False)

    def publish_metrics(self, registry: Any) -> None:
        """Export fleet health as (volatile) telemetry gauges.

        Task→worker assignment is timing-dependent, so everything here
        is a gauge — excluded from the bit-identity contract by
        ``strip_volatile_counters`` wholesale.
        """
        driver = _fleet
        if driver is None or driver.num_workers != self.max_workers:
            return
        stats = driver.worker_stats()
        registry.gauge("cluster", "workers").set(stats["workers"])
        registry.gauge("cluster", "worker.respawns").set(
            stats["respawns"]
        )
        registry.gauge("cluster", "task.resubmits").set(
            stats["resubmits"]
        )
        for slot, count in sorted(stats["tasks_by_worker"].items()):
            registry.gauge("cluster", f"worker.{slot}.tasks").set(
                count
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterExecutor(max_workers={self.max_workers})"
