"""The cluster driver: task assignment, supervision, and recovery.

:class:`ClusterDriver` owns a fleet of worker daemon processes (see
:mod:`~repro.mapreduce.cluster.worker`) and plays the JobTracker role:
it assigns task units to workers over the frame protocol, pings every
worker on a heartbeat cadence, declares silent workers dead and
re-executes their in-flight tasks elsewhere, respawns dead workers
(each generation in a fresh directory, like a remachined node), and
races straggling tasks with speculative backup attempts.  Every task
result comes back inline on the reply frame of the control connection
the task was dispatched on.

The driver is *also* the shared fleet behind ``backend="cluster"``
(see :mod:`~repro.mapreduce.cluster.executor`).

Dispatch model
--------------

One dispatch at a time (the runtime is phase-synchronous anyway).  The
batch's attempt bookkeeping is a :class:`TaskLedger`: one driver-side
serving thread per worker pulls the next attempt from the ledger, executes it over that worker's
control connection, and records the outcome under the task's index —
so results come back in input order and the first task-order failure
raises, preserving the backend bit-identity contract.  A thread whose
interaction fails (connection drop, worker death) reports the lost
attempt to the ledger, which re-queues it, and runs recovery on its
worker: reconnect if the process is alive (a dropped frame), respawn
it if not, giving up with :class:`WorkerDied` once the ledger's
respawn budget is spent.  Every ledger call happens under the
ledger's condition variable.  Only a task's first dispatch fires its
injected faults: the frame header of every later one says
``"replay": true``.

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
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutorError
from .heartbeat import DEAD, HeartbeatMonitor
from .protocol import (
    ProtocolError,
    connect,
    recv_frame,
    request,
    send_frame,
)
from .worker import READY_FILE, worker_main

__all__ = ["ClusterDriver", "TaskLedger", "TaskLost", "WorkerDied"]


#: Worker deaths (pool respawns) tolerated per batch before it fails
#: with :class:`WorkerDied`.
RESPAWN_BUDGET = 6

#: Lost attempts tolerated per task before the batch fails with
#: :class:`WorkerDied`.
MAX_TASK_LOSSES = 10


class WorkerDied(ExecutorError):
    """Workers kept dying (or a task kept being lost) past a batch's
    budget."""


class TaskLedger:
    """The attempt bookkeeping of one batch on the cluster backend.

    Attempt ``0`` of every task is queued up front; :meth:`back_up`
    queues attempt ``1`` of every open task.  The first attempt of a
    task to :meth:`record` its outcome wins and a late duplicate is
    ignored, so results are independent of which attempt got there
    first.  A lost attempt is re-queued by :meth:`lose`, and a worker
    death is charged by :meth:`respawn`; either raises
    :class:`WorkerDied` once its budget is spent.

    The ledger does no locking of its own: the driver's serving threads
    hold :attr:`cond` around every call.
    """

    def __init__(self, count: int) -> None:
        self.pending: deque[Tuple[int, int]] = deque(
            (index, 0) for index in range(count)
        )
        self.done = [False] * count
        #: ``(ok, value)`` per task, as
        #: :func:`~repro.mapreduce.cluster.worker._run_guarded` returns it.
        self.outcomes: List[Any] = [None] * count
        #: The worker slot that produced each accepted result.
        self.workers: List[Optional[int]] = [None] * count
        self.losses = [0] * count
        self.completed = 0
        #: Tasks whose winning attempt was a backup.
        self.wins = 0
        self.resubmits = 0
        self.respawns = 0
        #: An infrastructure failure that ended the batch early.
        self.failure: Optional[BaseException] = None
        self.cond = threading.Condition()

    @property
    def settled(self) -> bool:
        """Every task has an outcome, or the batch has failed."""
        return self.failure is not None or self.completed == len(self.done)

    def next(self) -> Optional[Tuple[int, int]]:
        """Pop the next queued attempt of a still-open task."""
        while self.pending:
            index, attempt = self.pending.popleft()
            if not self.done[index]:
                return index, attempt
        return None

    def first_dispatch(self, index: int, attempt: int) -> bool:
        """Whether a popped attempt is its task's first dispatch.

        Only attempt ``0`` before any loss is; a backup (attempt
        ``1``) and a re-queued lost attempt are re-dispatches, which
        fire no injected faults.
        """
        return attempt == 0 and self.losses[index] == 0

    def record(
        self,
        index: int,
        attempt: int,
        outcome: Any,
        worker: Optional[int] = None,
    ) -> None:
        """Accept an attempt's outcome unless the task already has one."""
        if self.done[index]:
            return
        self.done[index] = True
        self.outcomes[index] = outcome
        self.workers[index] = worker
        self.completed += 1
        if attempt > 0:
            self.wins += 1

    def lose(self, index: int, attempt: int, cause: BaseException) -> None:
        """Re-queue an attempt whose result never arrived."""
        if self.done[index]:
            return
        self.losses[index] += 1
        if self.losses[index] >= MAX_TASK_LOSSES:
            raise WorkerDied(
                f"task {index} was lost {self.losses[index]} times "
                f"(last: {cause})"
            )
        self.pending.append((index, attempt))
        self.resubmits += 1

    def back_up(self) -> None:
        """Queue one backup attempt for every task still open."""
        for index, done in enumerate(self.done):
            if not done:
                self.pending.append((index, 1))

    def respawn(self, cause: object) -> None:
        """Charge one worker respawn to the batch's budget."""
        if self.respawns >= RESPAWN_BUDGET:
            raise WorkerDied(
                f"workers kept dying after {self.respawns} respawns: "
                f"{cause}"
            )
        self.respawns += 1

    def fail(self, failure: BaseException) -> None:
        """End the batch with an infrastructure failure (first wins)."""
        if self.failure is None:
            self.failure = failure

    def results(self) -> List[Any]:
        """Hand over the results in task order; raises the batch's
        failure, else the first task failure in task order — the
        cross-backend error determinism rule.

        The ledger keeps no reference to them afterwards: the driver
        and its executor hold the last ledger, which must not keep a
        finished batch's outputs alive.
        """
        if self.failure is not None:
            raise self.failure
        outcomes, self.outcomes = self.outcomes, []
        results = []
        for ok, value in outcomes:
            if not ok:
                raise value
            results.append(value)
        return results


class TaskLost(ConnectionError):
    """A task attempt's reply carried an undecodable result; the task
    will be re-executed."""


#: Seconds to wait for a worker's TCP connect, and for a spawned
#: worker's ready announcement.
CONNECT_TIMEOUT = 10.0
START_TIMEOUT = 20.0


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
        #: worker's ``ready.json`` announcement).
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
        #: The generation whose heartbeat lease is running: set once it
        #: is ready, ``0`` once it is declared dead (generations count
        #: from ``1``).  The heartbeat judges a worker only while this
        #: equals :attr:`generation`, so a generation still starting up
        #: is never judged on its predecessor's expired lease.
        self.lease = 0

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
    heartbeat_interval, miss_limit:
        Ping cadence and the silent-interval budget before a worker is
        declared dead (see :class:`~repro.mapreduce.cluster.heartbeat.
        HeartbeatMonitor`).
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        heartbeat_interval: float = 0.5,
        miss_limit: int = 10,
    ) -> None:
        self.num_workers = num_workers or _default_cluster_workers()
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        #: Lifetime recovery totals and accepted-result counts per
        #: worker slot, folded in from each batch's ledger (telemetry
        #: gauges).
        self.respawns = 0
        self.resubmits = 0
        self.tasks_by_worker: Dict[int, int] = {}
        # Per calling thread: runtimes sharing this fleet from two
        # threads each read back their own batch's ledger.
        self._latest = threading.local()

        self._start_lock = threading.Lock()
        self._dispatch_lock = threading.Lock()
        self._handles: List[_WorkerHandle] = []
        self._ctx = multiprocessing.get_context()
        self._spill_root: Optional[str] = None
        self._monitor: Optional[HeartbeatMonitor] = None
        self._mon_lock = threading.Lock()
        self._stop: Optional[threading.Event] = None
        self._hb_thread: Optional[threading.Thread] = None

    @property
    def ledger(self) -> Optional[TaskLedger]:
        """The ledger of the calling thread's latest :meth:`run_tasks`
        batch."""
        return getattr(self._latest, "ledger", None)

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
            args=(handle.slot, handle.generation, handle.spill_dir),
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
        handle.lease = handle.generation

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

    def shutdown(self, wait: bool = True) -> None:
        """Stop the heartbeat, ask workers to exit, reap stragglers.

        Called by the shared fleet slot and its ``atexit`` hook; safe
        to invoke repeatedly.
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
                generation = handle.generation
                if handle.lease != generation:
                    continue  # starting up, or already declared dead
                pong = self._ping(handle)
                now = time.monotonic()
                with self._mon_lock:
                    monitor = self._monitor
                    if monitor is None:
                        return
                    if pong:
                        monitor.beat(handle.slot, now)
                    state = monitor.state(handle.slot, now)
                if state == DEAD:
                    self._declare_dead(handle, generation)

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

    def _declare_dead(self, handle: _WorkerHandle, generation: int) -> None:
        """Kill a silent worker generation and sever its connections.

        The sever is the load-bearing part: it unblocks any serving
        thread waiting on the wedged worker's reply, which re-queues
        the task and respawns the slot through the normal recovery
        path.  A slot respawned while this waited for its lock holds a
        newer generation, which is left alone.
        """
        with handle.lock:
            if handle.lease != generation:
                return
            handle.lease = 0
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
        ledger = self._latest.ledger = TaskLedger(len(tasks))
        if not tasks:
            return []
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
        return ledger.results()

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
                    replay = not ledger.first_dispatch(*attempt)
                try:
                    outcome, worker = self._execute(
                        handle, frames[attempt[0]], *attempt, replay
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
        self,
        handle: _WorkerHandle,
        frame: bytes,
        index: int,
        attempt: int,
        replay: bool,
    ) -> Tuple[Any, int]:
        """One task interaction: send, await the reply frame, decode.

        ``replay`` marks a re-dispatch, whose injected faults the
        worker skips (see :func:`~repro.mapreduce.cluster.worker.
        replaying`).
        """
        handle.in_flight = True
        try:
            sock = self._control(handle)
            task_header = {"op": "task", "id": f"{index}.{attempt}"}
            if replay:
                task_header["replay"] = True
            send_frame(sock, task_header, frame)
            header, payload = recv_frame(sock)
            if header.get("op") == "error":
                name = header.get("kind", "error")
                raise ExecutorError(
                    f"cluster backend could not execute a task "
                    f"({name}): {header.get('detail')} (jobs, side "
                    "data, records, and results must be picklable)"
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

    def _recover(self, handle: _WorkerHandle, ledger: TaskLedger) -> None:
        """Bring a failed worker slot back.

        A live process whose connection dropped (injected frame drop,
        severed socket) is simply reconnected.  A dead process is
        respawned with a fresh generation — new port, new spill
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

