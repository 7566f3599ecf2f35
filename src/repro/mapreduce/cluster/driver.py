"""The cluster driver: task assignment, supervision, and recovery.

:class:`ClusterDriver` owns a fleet of worker daemon processes (see
:mod:`~repro.mapreduce.cluster.worker`) and plays the JobTracker role:
it assigns task units to workers over the frame protocol, pings every
worker on a heartbeat cadence, declares silent workers dead and
re-executes their in-flight tasks elsewhere, respawns dead workers
(with fresh spill directories — a restarted worker has lost its
blobs, exactly like a remachined node), and races straggling tasks
with speculative backup attempts.

The driver is *also* the shared pool behind ``backend="cluster"``: it
duck-types the ``shutdown(wait, cancel_futures)`` surface the shared
pool registry expects.

Dispatch model
--------------

One dispatch at a time (the runtime is phase-synchronous anyway).  The
batch's attempt bookkeeping is a
:class:`~repro.mapreduce.executors.TaskLedger`: one driver-side
serving thread per worker
pulls the next attempt from the ledger, executes it over that worker's
control connection, and records the outcome under the task's index —
so results come back in input order and the first task-order failure
raises, preserving the backend bit-identity contract.  A thread whose
interaction fails (connection drop, worker death, lost blob) reports
the lost attempt to the ledger, which re-queues it, and runs recovery
on its worker: reconnect if the process is alive (a dropped frame),
respawn it if not, giving up with :class:`WorkerDied` once the
ledger's respawn budget is spent.  Every ledger call happens under the
ledger's condition variable.

When the batch completes while a discarded attempt is still running
(a speculative loser, or a task re-executed past a slow primary), the
driver *abandons* it: the worker's control connection is closed —
unblocking the serving thread — and lazily reopened on the next
dispatch.  The worker finishes the attempt, fails to reply into the
closed socket, and simply keeps serving; its result was never going to
be read.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import shutil
import socket as _socket
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutorError
from ..executors import TaskLedger, WorkerDied
from .heartbeat import DEAD, HeartbeatMonitor
from .protocol import (
    ConnectionClosed,
    ProtocolError,
    RemoteBlob,
    connect,
    recv_frame,
    request,
    send_frame,
)
from .worker import READY_FILE, worker_main

__all__ = ["ClusterDriver", "TaskLost", "WorkerDied"]


class TaskLost(ConnectionError):
    """A task attempt's result is unrecoverable (lost blob, dead
    worker, dropped frame); the task will be re-executed."""


#: Seconds to wait for a worker's TCP connect, and for a spawned
#: worker's ready announcement.
CONNECT_TIMEOUT = 10.0
START_TIMEOUT = 20.0

#: Data-plane attempts per result-blob fetch before the task is lost.
FETCH_RETRIES = 3


def _default_cluster_workers() -> int:
    # Each worker is a full daemon process with its own socket server;
    # cap the default fleet at four.
    return min(os.cpu_count() or 1, 4)


class _WorkerHandle:
    """Driver-side bookkeeping for one worker slot."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.generation = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        #: This generation's private spill directory (holds the
        #: worker's blobs and its ``ready.json`` announcement).
        self.spill_dir: Optional[str] = None
        #: Serializes respawn/declare-dead decisions for this slot.
        self.lock = threading.Lock()
        #: Guards the socket attributes (assigned and closed from
        #: different threads).
        self.sock_lock = threading.Lock()
        self.control: Optional[Any] = None
        self.ping: Optional[Any] = None
        #: True while a serving thread is inside a task interaction —
        #: tells the abandonment path which connections to sever.
        self.in_flight = False
        #: Generation already declared dead (so the heartbeat kills a
        #: wedged worker once, not every cadence tick).
        self.dead_generation = -1

    def close_sockets(self) -> None:
        with self.sock_lock:
            for attr in ("control", "ping"):
                sock = getattr(self, attr)
                if sock is not None:
                    try:
                        # shutdown() before close(): close() alone
                        # does not wake another thread blocked in
                        # recv() on this socket.
                        sock.shutdown(_socket.SHUT_RDWR)
                    except OSError:
                        pass
                    try:
                        sock.close()
                    except OSError:
                        pass
                    setattr(self, attr, None)


class ClusterDriver:
    """Supervise a localhost worker fleet and execute task batches.

    Parameters
    ----------
    num_workers:
        Fleet size (default: ``min(cpu_count, 4)``).
    blob_threshold:
        Task results whose pickled size exceeds this stay in the
        producing worker's local spill files and come back as
        :class:`~repro.mapreduce.cluster.protocol.RemoteBlob` handles,
        fetched over the data plane on demand.
    heartbeat_interval, miss_limit:
        Ping cadence and the silent-interval budget before a worker is
        declared dead (see :class:`~repro.mapreduce.cluster.heartbeat.
        HeartbeatMonitor`).
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        blob_threshold: int = 256 * 1024,
        heartbeat_interval: float = 0.5,
        miss_limit: int = 10,
    ) -> None:
        self.num_workers = num_workers or _default_cluster_workers()
        self.blob_threshold = blob_threshold
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        #: Lifetime recovery totals and accepted-result counts per
        #: worker slot, folded in from each batch's ledger (telemetry
        #: gauges).
        self.respawns = 0
        self.resubmits = 0
        self.tasks_by_worker: Dict[int, int] = {}
        #: High-water mark of the pending queue (telemetry gauge).
        self.queue_depth_highwater = 0
        #: The ledger of the latest :meth:`run_tasks` batch.
        self.ledger: Optional[TaskLedger] = None
        #: Test hook: called with the RemoteBlob before every fetch.
        self._before_fetch: Optional[Callable[[RemoteBlob], None]] = None

        self._start_lock = threading.Lock()
        self._dispatch_lock = threading.Lock()
        self._handles: List[_WorkerHandle] = []
        self._ctx = multiprocessing.get_context()
        self._spill_root: Optional[str] = None
        self._monitor: Optional[HeartbeatMonitor] = None
        self._mon_lock = threading.Lock()
        self._stop: Optional[threading.Event] = None
        self._hb_thread: Optional[threading.Thread] = None

    # -- fleet lifecycle ---------------------------------------------------

    def _ensure_started(self) -> None:
        with self._start_lock:
            if self._handles:
                return
            self._spill_root = tempfile.mkdtemp(prefix="repro-cluster-")
            self._monitor = HeartbeatMonitor(
                self.heartbeat_interval, self.miss_limit
            )
            handles = [
                _WorkerHandle(slot) for slot in range(self.num_workers)
            ]
            for handle in handles:  # launch the whole fleet first ...
                self._launch(handle)
            for handle in handles:  # ... then collect readiness
                self._finish_spawn(handle)
            self._handles = handles
            self._stop = threading.Event()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-cluster-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()

    def _launch(self, handle: _WorkerHandle) -> None:
        handle.generation += 1
        handle.spill_dir = os.path.join(
            self._spill_root,
            f"w{handle.slot}-g{handle.generation}",
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.slot,
                handle.generation,
                handle.spill_dir,
                self.blob_threshold,
            ),
            name=f"repro-cluster-w{handle.slot}",
            daemon=True,
        )
        process.start()
        handle.process = process

    def _finish_spawn(self, handle: _WorkerHandle) -> None:
        port, pid = self._await_ready(handle)
        handle.port = port
        handle.pid = pid
        with self._mon_lock:
            self._monitor.reset(handle.slot, time.monotonic())

    def _await_ready(self, handle: _WorkerHandle) -> Tuple[int, int]:
        """Wait for the worker's ``ready.json`` announcement.

        Readiness is a file rename into the generation's private spill
        directory, not a shared queue: no cross-process lock exists for
        a SIGKILLed sibling to wedge, and concurrent respawns cannot
        interleave announcements.  A worker that dies *during* startup
        is reported immediately (with its exit code) instead of being
        waited out.
        """
        deadline = time.monotonic() + START_TIMEOUT
        path = os.path.join(handle.spill_dir, READY_FILE)
        while True:
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    info = json.load(stream)
            except (OSError, ValueError):
                info = None
            if info is not None:
                return int(info["port"]), int(info["pid"])
            process = handle.process
            if process is not None and not process.is_alive():
                try:  # it may have announced just before dying
                    with open(path, "r", encoding="utf-8") as stream:
                        info = json.load(stream)
                except (OSError, ValueError):
                    raise ExecutorError(
                        f"cluster worker {handle.slot} (generation "
                        f"{handle.generation}) died during startup "
                        f"(exit code {process.exitcode})"
                    ) from None
                return int(info["port"]), int(info["pid"])
            if time.monotonic() > deadline:
                raise ExecutorError(
                    f"cluster worker {handle.slot} (generation "
                    f"{handle.generation}) failed to start within "
                    f"{START_TIMEOUT}s"
                )
            time.sleep(0.005)

    def shutdown(
        self, wait: bool = True, cancel_futures: bool = False
    ) -> None:
        """Stop the heartbeat, ask workers to exit, reap stragglers.

        Matches the pool ``shutdown`` surface the shared-pool registry
        and ``atexit`` hook call; safe to invoke repeatedly.
        """
        with self._start_lock:
            handles, self._handles = self._handles, []
            stop, self._stop = self._stop, None
            hb_thread, self._hb_thread = self._hb_thread, None
            spill_root, self._spill_root = self._spill_root, None
        if not handles:
            return
        if stop is not None:
            stop.set()
        if hb_thread is not None:
            hb_thread.join(timeout=2.0)
        for handle in handles:
            handle.close_sockets()
            if handle.port is not None:
                try:
                    sock = connect(handle.port, timeout=0.5)
                    try:
                        request(sock, {"op": "shutdown"})
                    finally:
                        sock.close()
                except Exception:
                    pass  # already gone; the join below reaps it
        grace = 1.0 if wait else 0.2
        for handle in handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=grace)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        if spill_root is not None:
            shutil.rmtree(spill_root, ignore_errors=True)

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        stop = self._stop
        while stop is not None and not stop.wait(self.heartbeat_interval):
            for handle in list(self._handles):
                if handle.process is None:
                    continue
                pong = self._ping(handle)
                now = time.monotonic()
                with self._mon_lock:
                    monitor = self._monitor
                    if monitor is None:
                        return
                    if pong:
                        monitor.beat(handle.slot, now)
                    state = monitor.state(handle.slot, now)
                if (
                    state == DEAD
                    and handle.dead_generation != handle.generation
                ):
                    handle.dead_generation = handle.generation
                    self._declare_dead(handle)

    def _ping(self, handle: _WorkerHandle) -> bool:
        try:
            with handle.sock_lock:
                sock = handle.ping
            if sock is None:
                sock = connect(
                    handle.port, timeout=self.heartbeat_interval
                )
                sock.settimeout(max(self.heartbeat_interval, 0.2))
                with handle.sock_lock:
                    handle.ping = sock
            header, _ = request(sock, {"op": "ping"})
            return header.get("op") == "pong"
        except (OSError, ProtocolError):
            with handle.sock_lock:
                if handle.ping is not None:
                    try:
                        handle.ping.close()
                    except OSError:
                        pass
                    handle.ping = None
            return False

    def _declare_dead(self, handle: _WorkerHandle) -> None:
        """Kill a silent worker and sever its connections.

        The sever is the load-bearing part: it unblocks any serving
        thread waiting on the wedged worker's reply, which re-queues
        the task and respawns the slot through the normal recovery
        path.
        """
        with handle.lock:
            process = handle.process
            if process is not None and process.is_alive():
                try:
                    process.kill()
                except Exception:
                    pass
            handle.close_sockets()

    # -- dispatch ----------------------------------------------------------

    def run_tasks(
        self,
        fn: Callable,
        tasks: Sequence[Tuple],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """Run a batch on the fleet, in input order; :attr:`ledger`
        keeps the batch's bookkeeping.  With ``timeout``, tasks still
        open after ``timeout`` seconds get one backup attempt each."""
        self.ledger = self._dispatch(fn, tasks, timeout)
        return self.ledger.results()

    def _dispatch(
        self,
        fn: Callable,
        tasks: Sequence[Tuple],
        timeout: Optional[float],
    ) -> TaskLedger:
        ledger = TaskLedger(len(tasks))
        if not tasks:
            return ledger
        self._ensure_started()
        frames: List[bytes] = []
        for task in tasks:
            try:
                frames.append(
                    pickle.dumps(
                        (fn, tuple(task)), pickle.HIGHEST_PROTOCOL
                    )
                )
            except Exception as exc:
                name = getattr(fn, "__name__", str(fn))
                raise ExecutorError(
                    f"cluster backend could not serialize a task for "
                    f"{name!r}: {exc} (jobs, side data, and records "
                    "must be picklable — define jobs at module level)"
                ) from exc
        with self._dispatch_lock:
            self.queue_depth_highwater = max(
                self.queue_depth_highwater, len(frames)
            )
            threads = [
                threading.Thread(
                    target=self._serve,
                    args=(handle, ledger, frames),
                    name=f"repro-cluster-serve-w{handle.slot}",
                    daemon=True,
                )
                for handle in self._handles
            ]
            for thread in threads:
                thread.start()
            try:
                with ledger.cond:
                    if timeout is not None:
                        ledger.cond.wait_for(
                            lambda: ledger.settled, timeout
                        )
                        ledger.back_up()
                        ledger.cond.notify_all()
                    ledger.cond.wait_for(lambda: ledger.settled)
            finally:
                self._abandon(ledger)
                for thread in threads:
                    thread.join(timeout=2.0)
            self.respawns += ledger.respawns
            self.resubmits += ledger.resubmits
            for slot in ledger.workers:
                if slot is not None:
                    self.tasks_by_worker[slot] = (
                        self.tasks_by_worker.get(slot, 0) + 1
                    )
            return ledger

    def _abandon(self, ledger: TaskLedger) -> None:
        """Release serving threads still waiting on discarded attempts."""
        with ledger.cond:
            if not ledger.settled:  # interrupted mid-batch
                ledger.fail(ExecutorError("cluster dispatch abandoned"))
            ledger.cond.notify_all()
        for handle in self._handles:
            if handle.in_flight:
                handle.close_sockets()

    def _serve(
        self, handle: _WorkerHandle, ledger: TaskLedger, frames: List[bytes]
    ) -> None:
        """One worker's serving loop: pull, execute, record, recover."""
        try:
            while True:
                with ledger.cond:
                    attempt = ledger.next()
                    while attempt is None and not ledger.settled:
                        ledger.cond.wait(0.1)
                        attempt = ledger.next()
                    if ledger.settled:
                        return
                try:
                    outcome, worker = self._execute(
                        handle, frames[attempt[0]], *attempt
                    )
                except (TaskLost, ProtocolError, OSError) as exc:
                    with ledger.cond:
                        if ledger.settled:
                            return
                        ledger.lose(*attempt, exc)
                        ledger.cond.notify_all()
                    self._recover(handle, ledger)
                    continue
                with ledger.cond:
                    ledger.record(*attempt, outcome, worker)
                    ledger.cond.notify_all()
        except ExecutorError as exc:  # WorkerDied included
            with ledger.cond:
                ledger.fail(exc)
                ledger.cond.notify_all()

    def _execute(
        self, handle: _WorkerHandle, frame: bytes, index: int, attempt: int
    ) -> Tuple[Any, int]:
        """One task interaction: send, await, fetch (if blob), decode."""
        handle.in_flight = True
        try:
            sock = self._control(handle)
            send_frame(
                sock, {"op": "task", "id": f"{index}.{attempt}"}, frame
            )
            header, payload = recv_frame(sock)
            if header.get("op") == "error":
                name = header.get("kind", "error")
                raise ExecutorError(
                    f"cluster backend could not execute a task "
                    f"({name}): {header.get('detail')} (jobs, side "
                    "data, records, and results must be picklable)"
                )
            if "blob" in header:
                payload = self._fetch_blob(
                    RemoteBlob.from_header(header["blob"])
                )
            try:
                outcome = pickle.loads(payload)
            except Exception as exc:
                raise TaskLost(
                    f"undecodable result for task {index}: {exc}"
                ) from exc
            return outcome, int(header.get("worker", handle.slot))
        finally:
            handle.in_flight = False

    def _control(self, handle: _WorkerHandle) -> Any:
        with handle.sock_lock:
            sock = handle.control
        if sock is not None:
            return sock
        sock = connect(handle.port, timeout=CONNECT_TIMEOUT)
        sock.settimeout(None)  # task replies take as long as tasks do
        with handle.sock_lock:
            handle.control = sock
        return sock

    def _fetch_blob(self, blob: RemoteBlob) -> bytes:
        """Pull result bytes from the owning worker's data plane.

        Transient connection errors are retried; a worker that no
        longer holds the blob (it restarted and lost its spill files)
        raises :class:`TaskLost`, and the task is re-executed — the
        fetch-side half of the worker-death recovery story.
        """
        hook = self._before_fetch
        if hook is not None:
            hook(blob)
        last: Optional[BaseException] = None
        for attempt in range(FETCH_RETRIES):
            try:
                sock = connect(blob.port, timeout=CONNECT_TIMEOUT)
                try:
                    header, payload = request(
                        sock, {"op": "fetch", "blob": blob.blob}
                    )
                finally:
                    sock.close()
            except (OSError, ProtocolError) as exc:
                last = exc
                if attempt + 1 < FETCH_RETRIES:
                    time.sleep(0.05 * (attempt + 1))
                continue
            if header.get("op") == "error":
                raise TaskLost(
                    f"worker {blob.worker} no longer holds blob "
                    f"{blob.blob!r}: {header.get('detail')}"
                )
            if len(payload) != blob.size:
                raise TaskLost(
                    f"short blob {blob.blob!r}: got {len(payload)} of "
                    f"{blob.size} bytes"
                )
            return payload
        raise TaskLost(
            f"could not reach worker {blob.worker} for blob "
            f"{blob.blob!r} after {FETCH_RETRIES} attempts: {last}"
        )

    def _recover(self, handle: _WorkerHandle, ledger: TaskLedger) -> None:
        """Bring a failed worker slot back.

        A live process whose connection dropped (injected frame drop,
        severed socket) is simply reconnected.  A dead process is
        respawned with a fresh generation — new port, new empty spill
        directory — charged to the ledger's respawn budget; past the
        budget the batch fails with :class:`WorkerDied`.
        """
        with handle.lock:
            handle.close_sockets()
            process = handle.process
            if process is not None and process.is_alive():
                try:
                    sock = connect(handle.port, timeout=1.0)
                except OSError:
                    try:  # listening socket gone: the worker is toast
                        process.kill()
                    except Exception:
                        pass
                else:
                    sock.settimeout(None)
                    with handle.sock_lock:
                        handle.control = sock
                    return
            if process is not None:
                process.join(timeout=2.0)
            with ledger.cond:
                ledger.respawn(f"cluster worker {handle.slot} died")
            self._launch(handle)
            self._finish_spawn(handle)

    # -- telemetry ---------------------------------------------------------

    def worker_stats(self) -> Dict[str, Any]:
        """A snapshot for the telemetry plane (volatile by nature)."""
        return {
            "workers": self.num_workers,
            "respawns": self.respawns,
            "resubmits": self.resubmits,
            "queue_depth_highwater": self.queue_depth_highwater,
            "tasks_by_worker": dict(self.tasks_by_worker),
        }

    def worker_pids(self) -> List[Optional[int]]:
        """Current worker PIDs (tests use this to aim chaos)."""
        return [handle.pid for handle in self._handles]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterDriver(num_workers={self.num_workers}, "
            f"started={bool(self._handles)}, "
            f"respawns={self.respawns})"
        )

