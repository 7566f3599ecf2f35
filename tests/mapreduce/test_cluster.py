"""The cluster backend: protocol, heartbeats, recovery, equivalence.

Four layers of the distributed plane, bottom-up:

* **frame codec** — length-prefixed frames round-trip any header +
  payload, and every malformed-stream shape (bad magic, truncation,
  oversized header) fails with the right exception class;
* **heartbeat state machine** — the alive → suspect → dead ladder is a
  pure function of injected clock readings, so worker-death detection
  is tested without a single real socket or sleep;
* **driver recovery** — a real localhost fleet survives mid-task
  ``SIGKILL``, lost result blobs, dropped connections, and silent
  (muted) workers, re-executing work until the batch completes with
  results identical to what a healthy fleet returns;
* **executor equivalence** — ``--backend cluster`` plugged into the
  full :class:`MapReduceRuntime` produces output records, ``job_log``,
  and volatile-stripped counters bit-identical to ``serial``.

Everything here runs real worker processes, so the whole module wears
the ``cluster`` marker (deselect with ``-m "not cluster"``).
"""

import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.mapreduce import (
    Counters,
    ExecutorError,
    JobValidationError,
    LocalDiskFileSystem,
    MapReduceJob,
    MapReduceRuntime,
    resolve_executor,
)
from repro.mapreduce.cluster import (
    ClusterDriver,
    ClusterExecutor,
    ConnectionClosed,
    HeartbeatMonitor,
    ProtocolError,
    RemoteBlob,
    TaskLost,
    recv_frame,
    send_frame,
)
from repro.mapreduce.cluster.heartbeat import ALIVE, DEAD, SUSPECT
from repro.mapreduce.cluster.protocol import connect, request
from repro.mapreduce.executors import _SHARED_POOLS, _evict_pool
from repro.mapreduce.faults import _claim_once
from repro.mapreduce.state import strip_volatile_counters
from repro.telemetry import MetricsRegistry

from ..conftest import SPILL_THRESHOLD, STORAGE

pytestmark = pytest.mark.cluster


# -- module-level task functions (workers unpickle these) ------------------


def _square(x):
    return x * x


def _fail_on(x, bad):
    if x == bad:
        raise ValueError(f"task {x} failed")
    return x


def _blob_payload(n):
    """A result whose pickle comfortably exceeds a small threshold."""
    return bytes((n + i) % 251 for i in range(4096))


def _exit_once(sentinel, value):
    """SIGKILL-shaped worker death on the first execution only."""
    if _claim_once(sentinel):
        os._exit(13)
    return value


def _sleep_once(sentinel, value, seconds):
    """Straggle on the first execution; the backup runs full speed."""
    if _claim_once(sentinel):
        time.sleep(seconds)
    return value


class ClusterHistogram(MapReduceJob):
    has_combiner = True

    def map(self, key, value):
        yield value % 5, 1

    def combine(self, key, counts):
        yield key, sum(counts)

    def reduce(self, key, counts):
        yield key, sum(counts)


RECORDS = [(i, (i * 7) % 13) for i in range(40)]


# -- frame codec round-trips ------------------------------------------------


def _pair():
    left, right = socket.socketpair()
    return left, right


def test_frame_round_trip_header_and_payload():
    left, right = _pair()
    try:
        payload = os.urandom(3000)
        send_frame(left, {"op": "task", "id": "4.0"}, payload)
        header, body = recv_frame(right)
        assert header == {"op": "task", "id": "4.0"}
        assert body == payload
    finally:
        left.close()
        right.close()


def test_frame_round_trip_empty_payload_and_unicode_header():
    left, right = _pair()
    try:
        send_frame(left, {"op": "pong", "note": "wörker"})
        header, body = recv_frame(right)
        assert header["note"] == "wörker"
        assert body == b""
    finally:
        left.close()
        right.close()


def test_frames_are_sequenced_not_coalesced():
    """TCP gives a byte stream; the length prefix restores framing."""
    left, right = _pair()
    try:
        for index in range(5):
            send_frame(left, {"seq": index}, bytes([index]) * index)
        for index in range(5):
            header, body = recv_frame(right)
            assert header == {"seq": index}
            assert body == bytes([index]) * index
    finally:
        left.close()
        right.close()


def test_recv_rejects_bad_magic():
    left, right = _pair()
    try:
        left.sendall(b"HTTP/1.1 200 OK\r\n" + b"x" * 32)
        with pytest.raises(ProtocolError, match="magic"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_recv_reports_clean_close_and_mid_frame_truncation():
    # Clean close between frames: ConnectionClosed, an ordinary
    # end-of-conversation (it subclasses ConnectionError, so the
    # driver's recovery path treats it as a lost frame).
    left, right = _pair()
    left.close()
    try:
        with pytest.raises(ConnectionClosed):
            recv_frame(right)
    finally:
        right.close()
    # Truncation mid-frame: also ConnectionClosed — the peer died
    # while sending, which is exactly the injected frame-drop shape.
    left, right = _pair()
    try:
        import io

        buffer = io.BytesIO()

        class _Sink:
            def sendall(self, data):
                buffer.write(data)

        send_frame(_Sink(), {"op": "result"}, b"z" * 100)
        left.sendall(buffer.getvalue()[:-60])
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)
    finally:
        right.close()


def test_recv_rejects_oversized_header_declaration():
    from repro.mapreduce.cluster.protocol import _MAX_HEADER, _PREFIX, MAGIC

    left, right = _pair()
    try:
        left.sendall(_PREFIX.pack(MAGIC, 1, _MAX_HEADER + 1, 0))
        with pytest.raises(ProtocolError, match="header"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_remote_blob_header_round_trip():
    blob = RemoteBlob(worker=3, port=45001, blob="blob-000007", size=9000)
    assert RemoteBlob.from_header(blob.to_header()) == blob


# -- heartbeat state machine (pure, time-injected) --------------------------


def test_heartbeat_ladder_alive_suspect_dead():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=3)
    monitor.reset(0, now=0.0)
    assert monitor.state(0, now=0.5) == ALIVE
    assert monitor.state(0, now=1.0) == ALIVE  # exactly one interval
    assert monitor.state(0, now=1.5) == SUSPECT
    assert monitor.state(0, now=3.0) == SUSPECT  # the full budget
    assert monitor.state(0, now=3.1) == DEAD


def test_heartbeat_beat_revives_a_suspect():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=3)
    monitor.reset(0, now=0.0)
    assert monitor.state(0, now=2.5) == SUSPECT
    monitor.beat(0, now=2.5)
    assert monitor.state(0, now=3.4) == ALIVE
    assert monitor.state(0, now=5.6) == DEAD


def test_heartbeat_death_latches_until_reset():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=2)
    monitor.reset(0, now=0.0)
    assert monitor.state(0, now=10.0) == DEAD
    # A late pong from a zombie must not resurrect the slot ...
    monitor.beat(0, now=10.1)
    assert monitor.state(0, now=10.2) == DEAD
    # ... only the driver's explicit respawn acknowledgement does.
    monitor.reset(0, now=11.0)
    assert monitor.state(0, now=11.5) == ALIVE


def test_heartbeat_slots_are_independent():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=2)
    monitor.reset(0, now=0.0)
    monitor.reset(1, now=0.0)
    monitor.beat(1, now=5.0)
    assert monitor.state(0, now=5.5) == DEAD
    assert monitor.state(1, now=5.5) == ALIVE


def test_heartbeat_validates_parameters():
    with pytest.raises(JobValidationError, match="interval"):
        HeartbeatMonitor(interval=0.0)
    with pytest.raises(JobValidationError, match="interval"):
        HeartbeatMonitor(interval=float("nan"))
    with pytest.raises(JobValidationError, match="miss_limit"):
        HeartbeatMonitor(interval=1.0, miss_limit=1)


# -- driver: dispatch, errors, blobs ----------------------------------------


@pytest.fixture
def driver():
    """A small real fleet, torn down even if the test dies mid-way."""
    instance = ClusterDriver(
        num_workers=2, heartbeat_interval=0.2, miss_limit=5
    )
    yield instance
    instance.shutdown()


def test_driver_runs_tasks_in_order(driver):
    results = driver.run_tasks(_square, [(i,) for i in range(20)])
    assert results == [i * i for i in range(20)]
    # A second batch reuses the same fleet (no respawns, same pids).
    pids = driver.worker_pids()
    assert driver.run_tasks(_square, [(3,)]) == [9]
    assert driver.worker_pids() == pids
    assert driver.worker_stats()["respawns"] == 0


def test_driver_raises_first_task_order_failure(driver):
    # Task 3 fails; the error crosses the socket with its original
    # type and message — the cross-backend error determinism rule.
    with pytest.raises(ValueError, match="task 3 failed"):
        driver.run_tasks(_fail_on, [(i, 3) for i in range(8)])
    # The fleet survives job errors; no recovery was involved.
    assert driver.ledger.respawns == 0
    assert driver.ledger.resubmits == 0
    assert driver.run_tasks(_square, [(2,)]) == [4]


def test_driver_empty_batch_and_stats(driver):
    assert driver.run_tasks(_square, []) == []
    driver.run_tasks(_square, [(1,), (2,)])
    stats = driver.worker_stats()
    assert stats["workers"] == 2
    assert sum(stats["tasks_by_worker"].values()) == 2
    assert stats["queue_depth_highwater"] >= 2
    assert len(driver.ledger.workers) == 2
    assert all(slot in (0, 1) for slot in driver.ledger.workers)


def test_driver_rejects_unpicklable_tasks(driver):
    local = lambda x: x  # noqa: E731 — deliberately unpicklable
    with pytest.raises(ExecutorError, match="module level"):
        driver.run_tasks(local, [(1,)])


def test_oversized_results_travel_as_blobs():
    driver = ClusterDriver(num_workers=2, blob_threshold=64)
    try:
        results = driver.run_tasks(
            _blob_payload, [(n,) for n in range(6)]
        )
        assert results == [_blob_payload(n) for n in range(6)]
    finally:
        driver.shutdown()


def test_small_results_stay_inline():
    fetched = []
    driver = ClusterDriver(num_workers=1, blob_threshold=1 << 20)
    driver._before_fetch = fetched.append
    try:
        assert driver.run_tasks(_square, [(9,)]) == [81]
        assert fetched == []  # no data-plane round trip happened
    finally:
        driver.shutdown()


# -- driver: recovery -------------------------------------------------------


def test_mid_task_sigkill_is_reexecuted(driver, tmp_path):
    """A worker dying *mid-task* (os._exit) costs one respawn and one
    resubmit, and the batch still completes with correct results."""
    sentinel = str(tmp_path / "boom")
    results = driver.run_tasks(
        _exit_once, [(sentinel, i) for i in range(8)]
    )
    assert results == list(range(8))
    assert driver.ledger.respawns >= 1
    assert driver.ledger.resubmits >= 1
    # The respawned slot serves the next batch like nothing happened.
    assert driver.run_tasks(_square, [(5,)]) == [25]


def test_fetch_retry_on_restarted_worker(tmp_path):
    """Killing a blob's owner *between execution and fetch* loses the
    result bytes; the driver re-executes the task instead of failing."""
    driver = ClusterDriver(num_workers=2, blob_threshold=64)
    killed = []

    def assassinate(blob):
        if not killed:
            killed.append(blob)
            os.kill(driver._handles[blob.worker].pid, signal.SIGKILL)
            time.sleep(0.05)

    driver._before_fetch = assassinate
    try:
        results = driver.run_tasks(
            _blob_payload, [(n,) for n in range(4)]
        )
        assert results == [_blob_payload(n) for n in range(4)]
        assert len(killed) == 1
        assert driver.ledger.respawns >= 1
        assert driver.ledger.resubmits >= 1
    finally:
        driver.shutdown()


def test_restarted_worker_reports_blob_missing():
    """The protocol-level half of fetch recovery: a worker that lost
    its spill files answers ``error/blob-missing``, which the driver
    maps to :class:`TaskLost` (and thence to re-execution)."""
    driver = ClusterDriver(num_workers=1, blob_threshold=64)
    try:
        driver.run_tasks(_blob_payload, [(1,)])
        port = driver._handles[0].port
        sock = connect(port, timeout=5.0)
        try:
            header, _ = request(
                sock, {"op": "fetch", "blob": "blob-999999"}
            )
        finally:
            sock.close()
        assert header["op"] == "error"
        assert header["kind"] == "blob-missing"
        with pytest.raises(TaskLost, match="no longer holds"):
            driver._fetch_blob(
                RemoteBlob(
                    worker=0, port=port, blob="blob-999999", size=10
                )
            )
    finally:
        driver.shutdown()


def test_muted_worker_is_declared_dead_and_replaced():
    """Dropped heartbeats alone — no task in flight — kill a worker.

    The ``mute`` op makes the worker swallow ping probes while staying
    otherwise healthy, exactly the silent-partition shape.  The
    monitor walks alive → suspect → dead, the driver kills the
    process, and the next dispatch recovers onto a fresh generation.
    """
    driver = ClusterDriver(
        num_workers=1, heartbeat_interval=0.1, miss_limit=3
    )
    try:
        assert driver.run_tasks(_square, [(2,)]) == [4]
        first_pid = driver.worker_pids()[0]
        sock = connect(driver._handles[0].port, timeout=5.0)
        try:
            header, _ = request(sock, {"op": "mute", "seconds": 30.0})
            assert header["op"] == "ok"
        finally:
            sock.close()
        deadline = time.monotonic() + 20.0
        process = driver._handles[0].process
        while process.is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process.is_alive(), "heartbeat never declared death"
        # The next batch respawns the slot and completes normally.  On
        # a loaded box the aggressive ladder can declare the *fresh*
        # generation dead once too before its first pong lands, so the
        # respawn count is at-least-one, not exactly-one.
        assert driver.run_tasks(_square, [(6,)]) == [36]
        assert driver.worker_stats()["respawns"] >= 1
        assert driver.worker_pids()[0] != first_pid
    finally:
        driver.shutdown()


def test_speculative_backup_beats_cluster_straggler(tmp_path):
    driver = ClusterDriver(num_workers=2)
    sentinel = str(tmp_path / "slow")
    try:
        results = driver.run_tasks(
            _sleep_once,
            [(sentinel, i, 30.0) for i in range(2)],
            timeout=0.2,
        )
        assert results == [0, 1]
        assert driver.ledger.wins >= 1
    finally:
        driver.shutdown()


def test_worker_death_budget_exhaustion_raises_worker_died(monkeypatch):
    from repro.mapreduce import executors
    from repro.mapreduce.cluster.driver import WorkerDied

    monkeypatch.setattr(executors, "RESPAWN_BUDGET", 1)
    driver = ClusterDriver(num_workers=1)
    try:
        # Every execution of this task kills its worker (fresh spill
        # dir per generation, so the sentinel trick can't save it);
        # one respawn is allowed, then the dispatch must fail loudly
        # rather than thrash forever.
        with pytest.raises(WorkerDied, match="respawns"):
            driver.run_tasks(os._exit, [(13,)])
    finally:
        driver.shutdown()


# -- executor: contract, shared pool, reaping -------------------------------


def test_resolve_executor_knows_cluster():
    executor = resolve_executor("cluster")
    assert isinstance(executor, ClusterExecutor)
    assert executor.name == "cluster"
    assert executor.picklable_tasks  # runtime must materialize spills


def test_cluster_executor_close_reaps_workers():
    """The latent ``Executor.close()`` gap, fixed: no orphan worker
    daemons survive the executor — counted via live children."""
    # A fleet of this size left by an earlier test (the ``runtime``
    # fixture's, say) would serve the batch and spawn nothing.
    _evict_pool(2)
    baseline = {p.pid for p in multiprocessing.active_children()}
    executor = ClusterExecutor(max_workers=2)
    try:
        assert executor.run_tasks(_square, [(3,)]) == [9]
        spawned = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in baseline
        ]
        assert len(spawned) == 2
        assert 2 in _SHARED_POOLS
    finally:
        executor.close()
    assert 2 not in _SHARED_POOLS
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not [
            p
            for p in multiprocessing.active_children()
            if p.pid not in baseline
        ]:
            break
        time.sleep(0.05)
    leaked = [
        p
        for p in multiprocessing.active_children()
        if p.pid not in baseline
    ]
    assert leaked == []
    # close() is idempotent and the fleet lazily rebuilds on reuse.
    executor.close()
    assert executor.run_tasks(_square, [(4,)]) == [16]
    executor.close()


def test_cluster_executor_meters_and_gauges(tmp_path):
    executor = ClusterExecutor(max_workers=2)
    try:
        sentinel = str(tmp_path / "boom")
        assert executor.run_tasks(
            _exit_once, [(sentinel, i) for i in range(4)]
        ) == list(range(4))
        assert executor.ledger.respawns >= 1
        assert executor.ledger.resubmits >= 1
        assert len(executor.ledger.workers) == 4
        registry = MetricsRegistry()
        executor.publish_metrics(registry)
        gauges = registry.snapshot()["gauges"]["cluster"]
        assert gauges["workers"] == 2
        assert gauges["worker.respawns"] >= 1
        assert gauges["task.resubmits"] >= 1
    finally:
        executor.close()


# -- runtime equivalence: cluster is bit-identical to serial ----------------


def _cell_runtime(backend, tmp, **kwargs):
    if STORAGE == "memory":
        storage = None
    else:
        storage = LocalDiskFileSystem(root=os.path.join(tmp, "dfs"))
    os.makedirs(tmp, exist_ok=True)
    return MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=4,
        counters=Counters(),
        backend=backend,
        max_workers=2 if backend == "cluster" else None,
        storage=storage,
        spill_threshold=SPILL_THRESHOLD,
        spill_dir=os.path.join(tmp, "spills"),
        **kwargs,
    )


def _observe(runtime):
    output = runtime.run(ClusterHistogram(), RECORDS)
    return (
        output,
        list(runtime.job_log),
        strip_volatile_counters(runtime.counters.snapshot()),
    )


def test_cluster_runtime_matches_serial(tmp_path):
    serial = _observe(_cell_runtime("serial", str(tmp_path / "s")))
    cluster = _observe(_cell_runtime("cluster", str(tmp_path / "c")))
    assert cluster == serial


def test_cluster_runtime_matches_serial_on_disk_with_spill(tmp_path):
    """The out-of-core cell of the matrix, pinned regardless of the
    env knobs: disk datasets + tiny spill threshold, still identical.

    This is the cell that forces the lazy-spill materialization path:
    ``picklable_tasks`` makes the runtime render disk-backed partition
    iterators into lists before framing tasks for the socket."""

    def cell(backend, tmp):
        os.makedirs(tmp, exist_ok=True)
        return MapReduceRuntime(
            num_map_tasks=3,
            num_reduce_tasks=3,
            counters=Counters(),
            backend=backend,
            max_workers=2 if backend == "cluster" else None,
            storage=LocalDiskFileSystem(root=os.path.join(tmp, "dfs")),
            spill_threshold=4,
            spill_dir=os.path.join(tmp, "spills"),
        )

    serial = _observe(cell("serial", str(tmp_path / "s")))
    cluster = _observe(cell("cluster", str(tmp_path / "c")))
    assert cluster == serial


def test_cluster_greedy_mr_matches_serial(tmp_path):
    from repro.graph import random_bipartite
    from repro.matching import greedy_mr_b_matching
    import random

    graph = random_bipartite(10, 10, 0.5, rng=random.Random(11))
    reference = greedy_mr_b_matching(
        graph, runtime=_cell_runtime("serial", str(tmp_path / "s"))
    )
    observed = greedy_mr_b_matching(
        graph, runtime=_cell_runtime("cluster", str(tmp_path / "c"))
    )
    assert sorted(observed.matching.edges()) == sorted(
        reference.matching.edges()
    )
    assert observed.value_history == reference.value_history
    assert observed.rounds == reference.rounds


def test_cluster_worker_spans_are_attributed(tmp_path):
    """Task spans carry the producing worker slot (telemetry plane)."""
    from repro.telemetry import Tracer

    tracer = Tracer()
    runtime = _cell_runtime(
        "cluster", str(tmp_path / "t"), tracer=tracer
    )
    runtime.run(ClusterHistogram(), RECORDS)
    tasks = [
        span
        for span in tracer.spans
        if span.kind == "task" and "worker" in span.attrs
    ]
    assert tasks, "no task span carried a worker attribution"
    assert all(span.attrs["worker"] in (0, 1) for span in tasks)
