"""Distributed cluster backend: driver/worker protocol over TCP.

This package is the executor layer's parallel backend, a real (if
localhost-bound) cluster: a
:class:`~repro.mapreduce.cluster.driver.ClusterDriver` assigns task
units to :mod:`worker <repro.mapreduce.cluster.worker>` daemon
processes over length-prefixed socket frames, workers keep their large
task outputs in worker-local spill files and serve them over the same
data plane on demand, and the driver supervises the fleet with
heartbeats, worker-death detection with task re-execution, and
straggler speculative backups.

The public entry point is ``backend="cluster"`` on
:class:`~repro.mapreduce.runtime.MapReduceRuntime` (or ``--backend
cluster`` on the CLI): :class:`~repro.mapreduce.cluster.executor.
ClusterExecutor` satisfies the existing
:class:`~repro.mapreduce.executors.Executor` contract, so the runtime,
the iterative driver, the matching layer, and the serving layer all
inherit the distributed backend without API changes — and, crucially,
so the cluster joins the bit-identical-across-backends verification
battery against the serial backend.
"""

from .driver import ClusterDriver, TaskLost, WorkerDied
from .executor import ClusterExecutor
from .heartbeat import HeartbeatMonitor
from .protocol import (
    ConnectionClosed,
    ProtocolError,
    RemoteBlob,
    recv_frame,
    send_frame,
)

__all__ = [
    "ClusterDriver",
    "ClusterExecutor",
    "ConnectionClosed",
    "HeartbeatMonitor",
    "ProtocolError",
    "RemoteBlob",
    "TaskLost",
    "WorkerDied",
    "recv_frame",
    "send_frame",
]
