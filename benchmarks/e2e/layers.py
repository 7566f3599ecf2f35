"""The traced pass: where to wrap, and how spans become layer metrics.

Layers are the repo's own modules: ``simjoin``, ``pipeline``,
``storage``, ``runtime``, ``executors``, ``cluster``, ``driver``,
``state``, ``matching``, ``service``; ``bench`` is the root span around
the timed region and ``loadgen`` the harness's own event records.

:func:`install` wraps the *public* callables at those boundaries (see
``WRAPS``); the runtime's own ``tracer=`` hooks supply the job, phase,
task, round, flush and stage spans in between, and its ``Counters``
supply the record and byte counts — all read as they are.
(``meter_bytes=True`` is left off: pickling every shuffled value to
size it made the traced ``stack_match`` 35 % slower than the untraced
one, so ``runtime.shuffle_encoded_bytes`` — the key bytes the runtime
meters for free — is the shuffle's byte count.)  :func:`per_layer`
condenses one traced run into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from repro.mapreduce import driver as mr_driver
from repro.mapreduce import executors, pipeline, state
from repro.mapreduce.cluster import driver as cluster_driver
from repro.mapreduce.cluster import executor as cluster_executor
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.storage import disk as fs_disk
from repro.mapreduce.storage import memory as fs_memory
from repro.matching import greedy_mr, stack_mr
from repro.service import matcher as service_matcher
from repro.simjoin import mr_join

from loadgen import percentile
from spans import Span, SpanRecorder, layer_self_seconds

__all__ = ["LAYERS", "install", "layer_of", "per_layer"]

#: Every layer a span can be charged to, in report order.
LAYERS = (
    "bench", "simjoin", "pipeline", "storage", "runtime", "executors",
    "cluster", "driver", "state", "matching", "service",
)


def layer_of(name: str, kind: str) -> str:
    """The layer of a span the runtime's own tracer hooks emit."""
    if kind in ("job", "phase"):
        return "runtime"
    if kind == "task":
        return "executors"
    if kind == "round":
        # The round span covers the matcher's round closure (collecting
        # matches, the value history); the driver's own loop is the
        # wrapped ``IterativeDriver.iterate`` around it.
        return "matching"
    if kind == "stage" and name.startswith("stage:"):
        return "pipeline"
    if kind in ("flush", "stage"):
        return "service"
    return kind


def _sized_bytes(result: Any, fs: Any, path: Any = None):
    # Pipeline.run sizes every stage output it has written; reading the
    # answer off its own ``du`` call costs the traced run nothing.
    return {} if path is None else {"path": path, "bytes": result.bytes}


def _sent_bytes(result: Any, sock: Any, header: Any, payload: bytes = b""):
    return {"bytes": len(payload)}


def _received_bytes(result: Any, *_: Any, **__: Any):
    return {"bytes": len(result[1])}


#: ``(owner, attribute, layer, on_return)`` — every wrap point.  All are
#: public names; none runs per record.
WRAPS = (
    (mr_join, "mapreduce_similarity_join", "simjoin", None),
    (pipeline.Pipeline, "run", "pipeline", None),
    (fs_memory.InMemoryFileSystem, "write", "storage", None),
    (fs_memory.InMemoryFileSystem, "read", "storage", None),
    (fs_memory.InMemoryFileSystem, "delete", "storage", None),
    (fs_memory.InMemoryFileSystem, "du", "storage", _sized_bytes),
    (fs_disk.LocalDiskFileSystem, "write", "storage", None),
    (fs_disk.LocalDiskFileSystem, "read", "storage", None),
    (fs_disk.LocalDiskFileSystem, "delete", "storage", None),
    (fs_disk.LocalDiskFileSystem, "du", "storage", _sized_bytes),
    (MapReduceRuntime, "run_iter", "runtime", None),
    (MapReduceRuntime, "run_stateful", "runtime", None),
    (executors.SerialExecutor, "run_tasks", "executors", None),
    (cluster_executor.ClusterExecutor, "run_tasks", "executors", None),
    # The names cluster/driver.py bound at import: driver side only,
    # the heartbeat's pings go through protocol.request and stay out.
    (cluster_driver, "send_frame", "cluster", _sent_bytes),
    (cluster_driver, "recv_frame", "cluster", _received_bytes),
    (mr_driver.IterativeDriver, "iterate", "driver", None),
    (mr_driver.IterativeDriver, "run_stateful", "driver", None),
    (mr_driver.IterativeDriver, "create_store", "driver", None),
    (state.ResidentStateStore, "load", "state", None),
    (state.ResidentStateStore, "maybe_park", "state", None),
    (state.ResidentStateStore, "begin_transaction", "state", None),
    (state.ResidentStateStore, "commit_transaction", "state", None),
    (state.ResidentStateStore, "rollback_transaction", "state", None),
    (state.ResidentStateStore, "close", "state", None),
    (greedy_mr, "greedy_mr_b_matching", "matching", None),
    (stack_mr, "stack_mr_b_matching", "matching", None),
    (stack_mr, "mr_maximal_b_matching", "matching", None),
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every boundary in ``WRAPS``; each flush starts a trace."""
    for owner, attr, layer, on_return in WRAPS:
        recorder.wrap(owner, attr, layer, on_return=on_return)
    recorder.wrap(
        service_matcher.OnlineMatcher, "flush", "service", new_trace=True
    )


# -- spans -> metrics ----------------------------------------------------------


def _total(spans: Sequence[Span], *names: str) -> float:
    return sum(s.duration for s in spans if s.name in names)


def _sum_counter(delta: Dict[str, Dict[str, int]], name: str) -> int:
    """A counter the runtime keeps per job group only, summed."""
    return sum(
        names.get(name, 0)
        for group, names in delta.items()
        if group != "runtime"
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(
    inside: List[Span],
    counters: Dict[str, Dict[str, int]],
    facts: Dict[str, Any],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``inside`` holds the spans of the timed region, the ``bench`` root
    first; ``counters`` is the runtime's counter delta over it; and
    ``facts`` carries what spans and counters cannot: the workload's
    result facts (edges, rounds, matching value, load-generator
    readings), its set-up timings, the traced ``wall_s``, the runtime's
    ``workers``, ``reduce_tasks`` and ``spill_s``
    (``phase_timings["spill"]``).
    """
    root = inside[0]
    self_s = layer_self_seconds(inside, root)
    runtime = counters.get("runtime", {})
    service = counters.get("service", {})
    faults = counters.get("faults", {})

    jobs = [s for s in inside if s.name.startswith("job:")]
    tasks = [s for s in inside if s.start is None and s.layer == "executors"]
    rounds = [s.duration for s in inside if s.name.startswith("round:")]
    flushes = [s.duration for s in inside if s.name == "service.flush"]
    frames = [s for s in inside if s.layer == "cluster"]
    sized = {
        s.attrs["path"]: s.attrs["bytes"]
        for s in inside
        if s.name == "storage.du" and "path" in s.attrs
    }
    run_tasks_s = _total(inside, "executors.run_tasks")
    task_s = sum(s.duration for s in tasks)
    shuffled = runtime.get("shuffle.records", 0)
    map_output = _sum_counter(counters, "map.output.records")
    documents = facts.get("documents", 0)
    # Ullman & Ullman's cover argument for a bipartite some-pairs
    # problem: a reducer that receives q inputs can compare at most
    # q²/4 cross pairs, so producing m pairs from n inputs needs a
    # replication rate of at least 4m/(nq) — and never less than 1.
    reducer_size = _ratio(
        counters.get("simjoin-candidates", {}).get("shuffle.records", 0),
        facts["reduce_tasks"],
    )
    some_pairs_bound = (
        max(1.0, _ratio(4.0 * facts.get("output_edges", 0),
                        documents * reducer_size))
        if documents
        else 0.0
    )

    reduce_phases = _tasks_by_phase(inside, "phase:reduce")
    skew = _ratio(
        sum(max(group) for group in reduce_phases),
        sum(statistics.fmean(group) for group in reduce_phases),
    )
    flush_count = service.get("batches.flushed", 0)
    admitted = service.get("events.admitted", 0)

    metrics = {
        "simjoin.term_bounds_s": _total(inside, "stage:simjoin-term-bounds"),
        "simjoin.candidates_s": _total(inside, "stage:simjoin-candidates"),
        "simjoin.verify_s": _total(inside, "stage:simjoin-verify"),
        "simjoin.output_edges": facts.get("output_edges", 0),
        "simjoin.replication_rate": _ratio(shuffled, documents),
        "simjoin.some_pairs_bound": some_pairs_bound,
        "storage.fs_write_s": _total(inside, "storage.write"),
        "storage.fs_read_s": _total(inside, "storage.read"),
        "storage.fs_du_s": _total(inside, "storage.du"),
        "storage.fs_bytes_written": sum(sized.values()),
        "runtime.jobs": runtime.get("jobs", 0),
        "runtime.job_s": sum(s.duration for s in jobs),
        "runtime.map_s": _total(inside, "phase:map"),
        "runtime.shuffle_s": _total(inside, "phase:shuffle"),
        "runtime.reduce_s": _total(inside, "phase:reduce"),
        "runtime.shuffle_records": shuffled,
        "runtime.shuffle_encoded_bytes": runtime.get(
            "shuffle.encoded_bytes", 0
        ),
        "runtime.map_output_records": map_output,
        "runtime.reduce_task_skew": skew,
        "storage.spill_s": facts["spill_s"],
        "storage.spilled_records": runtime.get("spilled_records", 0),
        "storage.spill_files": runtime.get("spill_files", 0),
        "storage.spilled_bytes": runtime.get("spilled_bytes", 0),
        "executors.run_tasks_s": run_tasks_s,
        "executors.task_s_sum": task_s,
        "executors.tasks": len(tasks),
        "executors.overhead_s": run_tasks_s - task_s / facts["workers"],
        "executors.resubmits": faults.get("task.resubmits", 0),
        "cluster.send_frame_s": _total(inside, "cluster.send_frame"),
        "cluster.recv_frame_s": _total(inside, "cluster.recv_frame"),
        "cluster.frames": len(frames),
        "cluster.bytes_sent": sum(
            s.attrs["bytes"] for s in frames
            if s.name == "cluster.send_frame"
        ),
        "cluster.bytes_received": sum(
            s.attrs["bytes"] for s in frames
            if s.name == "cluster.recv_frame"
        ),
        "cluster.respawns": faults.get("pool.respawns", 0),
        "driver.rounds": len(rounds),
        "driver.round_s_p50": _median(rounds),
        "driver.round_s_max": max(rounds, default=0.0),
        "state.load_s": _total(inside, "state.load"),
        "state.park_s": _total(inside, "state.maybe_park"),
        "state.txn_s": _total(
            inside,
            "state.begin_transaction",
            "state.commit_transaction",
            "state.rollback_transaction",
        ),
        "state.resident_records": runtime.get(
            "iteration.resident_records", 0
        ),
        "state.delta_records": runtime.get("iteration.delta_records", 0),
        "state.quiescent_ratio": _ratio(
            runtime.get("iteration.quiescent_records", 0),
            runtime.get("iteration.resident_records", 0),
        ),
        "matching.rounds": facts.get("rounds", 0),
        "matching.value": facts.get("value", 0.0),
        "matching.max_violation": facts.get("max_violation", 0.0),
        "service.flushes": flush_count,
        "service.flush_s_p50": _median(flushes),
        "service.flush_s_p95": percentile(flushes, 95) if flushes else 0.0,
        "service.admit_s": _total(inside, "admit"),
        "service.reconverge_s": _total(inside, "reconverge"),
        "service.rounds_per_flush": _ratio(
            service.get("reconverge.rounds", 0), flush_count
        ),
        "service.affected_nodes_per_flush": _ratio(
            service.get("reconverge.affected_nodes", 0), flush_count
        ),
        "service.coalescing_ratio": _ratio(admitted, flush_count),
        "service.shuffle_records_per_event": _ratio(shuffled, admitted),
        "service.queue_wait_ms_p50": facts.get("queue_wait_ms_p50", 0.0),
        "loadgen.lag_ms_p95": facts.get("lag_ms_p95", 0.0),
        "loadgen.backlog_max": facts.get("backlog_max", 0),
        "datasets.generate_s": facts.get("datasets.generate_s", 0.0),
        "graph.build_s": facts.get("graph.build_s", 0.0),
        "bench.unattributed_s": self_s.get("bench", 0.0),
        # What the self times add up to: the timed region as the traced
        # child's own clock read it, inside the root span.
        "bench.traced_wall_s": facts["wall_s"],
    }
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return metrics


def _tasks_by_phase(spans: Sequence[Span], phase: str) -> List[List[float]]:
    """Task seconds grouped per phase span of the given name."""
    groups: Dict[int, List[float]] = {}
    phases = {s.span_id for s in spans if s.name == phase}
    for s in spans:
        if s.start is None and s.parent_id in phases:
            groups.setdefault(s.parent_id, []).append(s.duration)
    return [group for group in groups.values() if group]
