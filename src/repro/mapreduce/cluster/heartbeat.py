"""The driver's heartbeat bookkeeping, as a pure state machine.

The :class:`~repro.mapreduce.cluster.driver.ClusterDriver` pings every
worker on a fixed cadence; this module owns the *decision* of when a
quiet worker stops being merely slow and becomes presumed-dead.  It is
deliberately time-injected (every method takes ``now``) so the lease
is unit-testable without sleeping.  Each pong renews a worker's lease
of ``interval * miss_limit`` seconds:

* ``alive`` — the lease has not run out;
* ``dead`` — silence past ``interval * miss_limit``: the driver
  closes the worker's connections (unblocking any thread waiting on a
  task reply), re-executes its in-flight tasks elsewhere, and respawns
  the process.

``dead`` is sticky until :meth:`reset` — a restarted worker starts a
fresh lease.  On localhost a SIGKILLed worker usually announces itself
immediately (the kernel resets its sockets), so the heartbeat path is
the backstop for the quieter failure shapes: a wedged daemon, a
dropped ping frame, a worker alive but unreachable.
"""

from __future__ import annotations

from typing import Dict

from ..errors import JobValidationError

__all__ = ["HeartbeatMonitor"]

ALIVE = "alive"
DEAD = "dead"


class HeartbeatMonitor:
    """Track per-worker pong recency and classify silence.

    Parameters
    ----------
    interval:
        The ping cadence in seconds.
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
        """Classify the worker: ``alive`` / ``dead``.

        The first call to cross the dead threshold latches: the state
        stays ``dead`` even if a zombie pong arrives later, so the
        driver's kill-and-respawn decision cannot flap.
        """
        if self._dead.get(worker):
            return DEAD
        if self.silence(worker, now) <= self.interval * self.miss_limit:
            return ALIVE
        self._dead[worker] = True
        return DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeartbeatMonitor(interval={self.interval}, "
            f"miss_limit={self.miss_limit}, "
            f"workers={sorted(self._last_pong)})"
        )
