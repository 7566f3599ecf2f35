"""In-process MapReduce simulator (the Hadoop substrate of the paper).

Public API::

    from repro.mapreduce import MapReduceJob, MapReduceRuntime, IterativeDriver

    class WordCount(MapReduceJob):
        has_combiner = True
        def map(self, key, line):
            for word in line.split():
                yield word, 1
        def reduce(self, word, counts):
            yield word, sum(counts)
        combine = reduce

    runtime = MapReduceRuntime(num_map_tasks=4, num_reduce_tasks=4)
    output = runtime.run(WordCount(), [(0, "a b a")])

Both halves of the execution model are pluggable: compute via
``backend="serial" | "cluster"`` (see
:mod:`repro.mapreduce.executors`) and storage via ``storage="memory" |
"disk"`` plus ``spill_threshold=`` for the external sort-and-spill
shuffle (see :mod:`repro.mapreduce.storage`).  Results are
bit-identical across every combination.

See DESIGN.md (substitution table) for how this simulator stands in for
the Hadoop cluster used in the paper's evaluation.
"""

from ..telemetry.metrics import Counters
from .driver import IterativeDriver
from .errors import (
    DriverError,
    ExecutorError,
    JobValidationError,
    MapReduceError,
    RoundLimitExceeded,
)
from .executors import (
    EXECUTOR_BACKENDS,
    Executor,
    SerialExecutor,
    resolve_executor,
    shutdown_shared_pools,
)
from .faults import (
    FAULT_COUNTER_GROUP,
    FaultPlan,
    FaultyFileSystem,
    InjectedFault,
    InjectedIOError,
    InjectedTaskFault,
    PoisonedEvent,
    RetryPolicy,
    RetryingFileSystem,
    TaskFaultSpec,
    fired_specs,
    resilient_task_call,
)
from .job import KeyValue, MapReduceJob
from .partitioner import (
    HashPartitioner,
    canonical_bytes,
    fast_hash_bytes,
    stable_hash,
)
from .pipeline import Pipeline, PipelineStage
from .runtime import MapReduceRuntime
from .state import (
    STATE_POINT_COUNTERS,
    STATE_SPILL_COUNTERS,
    Quiet,
    ResidentStateStore,
    Retired,
    strip_volatile_counters,
)
from .storage import (
    FILESYSTEM_BACKENDS,
    SPILL_COUNTERS,
    DatasetStats,
    ExternalShuffle,
    FileSystem,
    FileSystemError,
    InMemoryFileSystem,
    LocalDiskFileSystem,
    resolve_filesystem,
    strip_spill_counters,
)

__all__ = [
    "Counters",
    "DatasetStats",
    "DriverError",
    "EXECUTOR_BACKENDS",
    "Executor",
    "ExecutorError",
    "ExternalShuffle",
    "FAULT_COUNTER_GROUP",
    "FILESYSTEM_BACKENDS",
    "FaultPlan",
    "FaultyFileSystem",
    "FileSystem",
    "FileSystemError",
    "HashPartitioner",
    "InMemoryFileSystem",
    "InjectedFault",
    "InjectedIOError",
    "InjectedTaskFault",
    "IterativeDriver",
    "JobValidationError",
    "KeyValue",
    "LocalDiskFileSystem",
    "MapReduceError",
    "MapReduceJob",
    "MapReduceRuntime",
    "Pipeline",
    "PipelineStage",
    "PoisonedEvent",
    "Quiet",
    "ResidentStateStore",
    "Retired",
    "RetryPolicy",
    "RetryingFileSystem",
    "RoundLimitExceeded",
    "SPILL_COUNTERS",
    "STATE_POINT_COUNTERS",
    "STATE_SPILL_COUNTERS",
    "SerialExecutor",
    "TaskFaultSpec",
    "canonical_bytes",
    "fast_hash_bytes",
    "fired_specs",
    "resilient_task_call",
    "resolve_executor",
    "resolve_filesystem",
    "shutdown_shared_pools",
    "stable_hash",
    "strip_spill_counters",
    "strip_volatile_counters",
]
