"""Exception hierarchy for the MapReduce simulator.

All errors raised by :mod:`repro.mapreduce` derive from
:class:`MapReduceError`, so callers can catch simulator failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations

__all__ = [
    "MapReduceError",
    "JobValidationError",
    "ExecutorError",
    "DriverError",
    "RoundLimitExceeded",
]


class MapReduceError(Exception):
    """Base class for every error raised by the MapReduce simulator."""


class JobValidationError(MapReduceError):
    """A job or its configuration is structurally invalid.

    Raised, for example, when a job emits a non-iterable from ``map`` or
    when the runtime is constructed with a non-positive number of tasks.
    """


class ExecutorError(MapReduceError):
    """An execution backend failed for infrastructure reasons.

    Raised when a backend cannot run tasks at all — an unknown backend
    name, a broken worker fleet, or (for the ``cluster`` backend) a job
    whose tasks cannot be pickled.  Errors raised *by* job code keep
    their original type and traverse the backend unchanged.
    """


class DriverError(MapReduceError):
    """An iterative driver could not make progress."""


class RoundLimitExceeded(DriverError):
    """An iterative computation exceeded its configured round budget.

    The randomized algorithms in this package terminate with probability 1
    (and in expectation after a poly-logarithmic number of rounds); hitting
    this error indicates either a pathological seed or a bug, so we fail
    loudly instead of looping forever.
    """

    def __init__(self, name: str, max_rounds: int):
        super().__init__(
            f"{name!r} did not converge within {max_rounds} rounds"
        )
        self.name = name
        self.max_rounds = max_rounds
