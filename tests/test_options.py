"""The parameters of the layers' configurable entry points, pinned.

Every option doubles the configurations tests and benchmarks must
cover, so an option is kept only while two real callers want different
values.  Adding, removing or renaming a parameter of one of these
callables must change a line below, so the new option shows in the
diff as a decision of its own rather than a side effect of another
change.
"""

import inspect

import pytest

from repro.mapreduce import (
    FaultPlan,
    LocalDiskFileSystem,
    MapReduceRuntime,
    Pipeline,
    ResidentStateStore,
    resolve_filesystem,
)
from repro.mapreduce.cluster import ClusterDriver
from repro.matching import greedy_mr_b_matching
from repro.telemetry import MetricsExporter, render_prometheus

PINNED = [
    (
        MapReduceRuntime,
        (
            "num_map_tasks",
            "num_reduce_tasks",
            "counters",
            "speculative_execution",
            "backend",
            "max_workers",
            "storage",
            "spill_threshold",
            "spill_dir",
            "tracer",
            "retry_policy",
            "fault_plan",
        ),
    ),
    (
        ResidentStateStore,
        (
            "name",
            "num_partitions",
            "filesystem",
            "spill_threshold",
            "counters",
        ),
    ),
    (LocalDiskFileSystem, ("root",)),
    (resolve_filesystem, ("storage", "root")),
    (Pipeline, ("runtime", "filesystem")),
    (
        FaultPlan,
        (
            "seed",
            "crash_rate",
            "delay_rate",
            "delay_seconds",
            "worker_kill_rate",
            "frame_drop_rate",
            "io_rate",
            "flush_rate",
        ),
    ),
    (MetricsExporter, ("registry", "extra_metrics", "host", "port")),
    (render_prometheus, ("snapshot", "extra")),
    (greedy_mr_b_matching, ("graph", "runtime")),
    (ClusterDriver, ("num_workers", "heartbeat_interval", "miss_limit")),
]


@pytest.mark.parametrize(
    "callable_, expected",
    PINNED,
    ids=[callable_.__name__ for callable_, _ in PINNED],
)
def test_parameters_are_pinned(callable_, expected):
    assert tuple(inspect.signature(callable_).parameters) == expected
