"""The driver's heartbeat bookkeeping, as a pure state machine.

The :class:`~repro.mapreduce.cluster.driver.ClusterDriver` pings every
worker on a fixed cadence; this module owns the *decision* of when a
quiet worker stops being merely slow and becomes presumed-dead.  It is
deliberately time-injected (every method takes ``now``) so the timeout
ladder is unit-testable without sleeping:

* ``alive`` — a pong arrived within ``interval`` seconds;
* ``suspect`` — between ``interval`` and ``interval * miss_limit``
  seconds of silence: the worker keeps its tasks, but the driver
  prefers other workers for new dispatches;
* ``dead`` — silence past ``interval * miss_limit``: the driver
  closes the worker's connections (unblocking any thread waiting on a
  task reply), re-executes its in-flight tasks elsewhere, and respawns
  the process.

A worker that comes back from ``suspect`` (a late pong) is simply
``alive`` again; ``dead`` is sticky until :meth:`reset` — a restarted
worker starts a fresh lease.  On localhost a SIGKILLed worker usually
announces itself immediately (the kernel resets its sockets), so the
heartbeat path is the backstop for the quieter failure shapes: a
wedged daemon, a dropped ping frame, a worker alive but unreachable.
"""

from __future__ import annotations

from typing import Dict

from ..errors import JobValidationError

__all__ = ["HeartbeatMonitor"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


class HeartbeatMonitor:
    """Track per-worker pong recency and classify silence.

    Parameters
    ----------
    interval:
        The ping cadence in seconds; silence up to one interval is
        normal scheduling jitter.
    miss_limit:
        How many consecutive silent intervals a worker is granted
        before it is declared dead (``>= 2`` so one dropped pong can
        never kill a healthy worker).
    """

    def __init__(self, interval: float, miss_limit: int = 5) -> None:
        if not interval > 0:
            raise JobValidationError(
                f"heartbeat interval must be > 0, got {interval}"
            )
        if miss_limit < 2:
            raise JobValidationError(
                f"miss_limit must be >= 2, got {miss_limit}"
            )
        self.interval = interval
        self.miss_limit = miss_limit
        self._last_pong: Dict[int, float] = {}
        self._dead: Dict[int, bool] = {}

    def reset(self, worker: int, now: float) -> None:
        """Start (or restart) a worker's lease at time ``now``."""
        self._last_pong[worker] = now
        self._dead[worker] = False

    def beat(self, worker: int, now: float) -> None:
        """Record a pong.  Ignored once a worker is declared dead —
        its replacement gets a fresh lease via :meth:`reset`."""
        if worker not in self._last_pong:
            raise JobValidationError(
                f"heartbeat for unknown worker {worker}; reset() first"
            )
        if not self._dead[worker]:
            self._last_pong[worker] = now

    def silence(self, worker: int, now: float) -> float:
        """Seconds since the worker's last pong."""
        return now - self._last_pong[worker]

    def state(self, worker: int, now: float) -> str:
        """Classify the worker: ``alive`` / ``suspect`` / ``dead``.

        The first call to cross the dead threshold latches: the state
        stays ``dead`` even if a zombie pong arrives later, so the
        driver's kill-and-respawn decision cannot flap.
        """
        if self._dead.get(worker):
            return DEAD
        silence = self.silence(worker, now)
        if silence <= self.interval:
            return ALIVE
        if silence <= self.interval * self.miss_limit:
            return SUSPECT
        self._dead[worker] = True
        return DEAD

    def deadline(self, worker: int) -> float:
        """The absolute time at which the worker will be declared dead
        absent a pong (for scheduling the next check)."""
        return self._last_pong[worker] + self.interval * self.miss_limit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeartbeatMonitor(interval={self.interval}, "
            f"miss_limit={self.miss_limit}, "
            f"workers={sorted(self._last_pong)})"
        )
