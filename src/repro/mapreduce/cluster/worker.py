"""The worker daemon: one process serving tasks, pings, and fetches.

A worker is a plain OS process (spawned by the
:class:`~repro.mapreduce.cluster.driver.ClusterDriver`) that binds an
ephemeral localhost port, announces readiness by atomically publishing
a ``ready.json`` (port + pid) into its per-generation spill directory,
and then serves protocol frames forever:

* ``task`` — unpickle ``(fn, args)``, execute guarded (job errors come
  back as values, see :func:`_run_guarded`), and reply with the
  pickled outcome.  Outcomes larger than the blob threshold stay
  *worker-local*: the pickled bytes are written to this worker's
  spill directory and the reply carries only a
  :class:`~repro.mapreduce.cluster.protocol.RemoteBlob` handle — the
  consumer fetches the bytes directly from this worker's data plane.
  This is the cluster's shuffle-locality story: big map outputs live
  with the worker that produced them until a reduce-side consumer
  pulls them, and die with it (their loss is recovered by task
  re-execution, as on a real cluster).
* ``ping`` — heartbeat probe; answered from a dedicated handler
  thread, so a worker stays responsive while a long task runs and a
  ping timeout therefore means *process trouble*, not mere load.
* ``fetch`` — stream a locally held blob to any peer (driver or
  another worker); unknown ids get an ``error/blob-missing`` reply,
  the signal that triggers re-execution after a restart.
* ``mute`` — test hook: suppress pong replies for N seconds so the
  heartbeat ladder can be exercised deterministically.
* ``shutdown`` — acknowledge and exit.

Each accepted connection is served by its own daemon thread; task
execution is serialized by a process-wide lock (one task at a time per
worker — fleet parallelism comes from worker count, as in the
one-slot-per-container cluster shape).

Fault-injection context
-----------------------

:func:`~repro.mapreduce.faults.resilient_task_call` runs *inside* the
worker and fires scheduled :class:`~repro.mapreduce.faults.
TaskFaultSpec` faults.  The cluster-specific kinds consult this
module: ``worker_kill`` calls ``os._exit`` only when
:func:`in_worker` is true (on the serial backend it degrades to
a plain injected crash), and ``drop_frame`` arms
:func:`request_drop_reply`, making the connection handler close the
socket instead of replying — the driver sees a dropped frame from a
perfectly healthy worker.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import ExecutorError
from ..executors import Task, TaskFunction
from .protocol import (
    RemoteBlob,
    recv_frame,
    send_frame,
)

__all__ = [
    "READY_FILE",
    "WORKER_ENV_FLAG",
    "consume_drop_reply",
    "in_worker",
    "request_drop_reply",
    "worker_main",
]

#: Set in the worker process environment — lets task code (and the
#: fault plane) detect it is running inside a cluster worker daemon.
WORKER_ENV_FLAG = "REPRO_CLUSTER_WORKER"

_STATE: Dict[str, Any] = {
    "active": False,
    "slot": None,
    "drop_reply": False,
    "muted_until": 0.0,
}


def in_worker() -> bool:
    """True inside a cluster worker daemon process."""
    return bool(_STATE["active"])


def request_drop_reply() -> None:
    """Arm the injected frame drop for the task being executed."""
    _STATE["drop_reply"] = True


def consume_drop_reply() -> bool:
    """Read-and-clear the armed frame drop."""
    armed = bool(_STATE["drop_reply"])
    _STATE["drop_reply"] = False
    return armed


def _run_guarded(fn: TaskFunction, task: Task) -> Tuple[bool, Any]:
    """Task trampoline: capture task errors as return values.

    Returning ``(False, exc)`` instead of raising keeps the *original*
    exception instance intact across the process boundary, so a
    ``JobValidationError`` raised inside a worker surfaces to the caller
    as a ``JobValidationError`` — not as a transport error.
    """
    try:
        return True, fn(*task)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = ExecutorError(
                f"task raised unpicklable {type(exc).__name__}: {exc}"
            )
        return False, exc


class _BlobStore:
    """Worker-local spill files for oversized task outcomes."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._sequence = 0
        self._sizes: Dict[str, int] = {}

    def put(self, payload: bytes) -> str:
        with self._lock:
            self._sequence += 1
            blob_id = f"blob-{self._sequence:06d}"
            self._sizes[blob_id] = len(payload)
        path = os.path.join(self.root, blob_id)
        # Atomic publish (the PR 2 crash-safety idiom): a fetch can
        # never observe a half-written blob.
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
        return blob_id

    def get(self, blob_id: str) -> Optional[bytes]:
        if blob_id not in self._sizes:
            return None
        with open(os.path.join(self.root, blob_id), "rb") as handle:
            return handle.read()

    def __len__(self) -> int:
        return len(self._sizes)


class _WorkerServer:
    def __init__(
        self,
        slot: int,
        spill_dir: str,
        blob_threshold: int,
    ) -> None:
        self.slot = slot
        self.blob_threshold = blob_threshold
        self.blobs = _BlobStore(spill_dir)
        self.tasks_executed = 0
        self._task_lock = threading.Lock()
        self.listener = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        self.listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(64)
        self.port = self.listener.getsockname()[1]

    # -- frame handlers ----------------------------------------------------

    def handle_task(self, header: Dict, payload: bytes) -> tuple:
        """Execute one task unit; returns ``(reply_header, payload)``."""
        try:
            fn, args = pickle.loads(payload)
        except Exception as exc:
            # The task unit doesn't resolve in this process (e.g. a
            # function defined in __main__ after the fleet forked);
            # an error *reply* — not a dropped connection — so the
            # driver can surface the picklability hint.
            return (
                {
                    "op": "error",
                    "kind": "undecodable-task",
                    "id": header.get("id"),
                    "detail": f"{type(exc).__name__}: {exc}",
                },
                b"",
            )
        with self._task_lock:
            outcome = _run_guarded(fn, args)
            self.tasks_executed += 1
        try:
            encoded = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # unpicklable task result
            return (
                {
                    "op": "error",
                    "kind": "unpicklable",
                    "id": header.get("id"),
                    "detail": f"{type(exc).__name__}: {exc}",
                },
                b"",
            )
        reply = {
            "op": "result",
            "id": header.get("id"),
            "worker": self.slot,
        }
        if len(encoded) > self.blob_threshold:
            blob_id = self.blobs.put(encoded)
            reply["blob"] = RemoteBlob(
                worker=self.slot,
                port=self.port,
                blob=blob_id,
                size=len(encoded),
            ).to_header()
            return reply, b""
        return reply, encoded

    def handle_fetch(self, header: Dict) -> tuple:
        payload = self.blobs.get(str(header.get("blob")))
        if payload is None:
            return (
                {
                    "op": "error",
                    "kind": "blob-missing",
                    "detail": f"no blob {header.get('blob')!r} on "
                    f"worker {self.slot} (restarted?)",
                },
                b"",
            )
        return {"op": "blob", "size": len(payload)}, payload

    # -- connection plumbing -----------------------------------------------

    def serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                header, payload = recv_frame(conn)
                op = header.get("op")
                if op == "task":
                    reply, body = self.handle_task(header, payload)
                    if consume_drop_reply():
                        # Injected frame drop: hang up instead of
                        # replying — the attempt's work is lost and
                        # the driver re-executes it.
                        return
                    send_frame(conn, reply, body)
                elif op == "ping":
                    if time.monotonic() < _STATE["muted_until"]:
                        continue  # swallow the probe: injected silence
                    send_frame(
                        conn, {"op": "pong", "worker": self.slot}
                    )
                elif op == "fetch":
                    reply, body = self.handle_fetch(header)
                    send_frame(conn, reply, body)
                elif op == "mute":
                    _STATE["muted_until"] = time.monotonic() + float(
                        header.get("seconds", 0.0)
                    )
                    send_frame(conn, {"op": "ok"})
                elif op == "info":
                    send_frame(
                        conn,
                        {
                            "op": "info",
                            "worker": self.slot,
                            "pid": os.getpid(),
                            "tasks_executed": self.tasks_executed,
                            "blobs": len(self.blobs),
                        },
                    )
                elif op == "shutdown":
                    try:
                        send_frame(conn, {"op": "ok"})
                    finally:
                        os._exit(0)
                else:
                    send_frame(
                        conn,
                        {
                            "op": "error",
                            "kind": "bad-op",
                            "detail": f"unknown op {op!r}",
                        },
                    )
        except (OSError, EOFError):
            pass  # peer went away (or we are being abandoned): done
        except Exception:
            # A corrupt frame or internal bug must not take the whole
            # worker down with it; drop the connection and keep serving
            # the healthy ones.
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def serve_forever(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            conn.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            thread = threading.Thread(
                target=self.serve_connection,
                args=(conn,),
                name=f"repro-cluster-w{self.slot}-conn",
                daemon=True,
            )
            thread.start()


#: Name of the readiness announcement inside a worker's spill dir.
READY_FILE = "ready.json"


def worker_main(
    slot: int,
    generation: int,
    spill_dir: str,
    blob_threshold: int,
) -> None:
    """Process entry point: bind, announce readiness, serve forever.

    Readiness is announced by atomically publishing ``ready.json``
    (port + pid) into this generation's private spill directory — a
    deliberate choice over a shared ``multiprocessing.Queue``: the
    queue's cross-process semaphores are not robust against the
    SIGKILLs this plane injects on purpose (a worker killed at the
    wrong instant can wedge the shared lock for every later respawn),
    while a rename into a per-generation directory cannot be corrupted
    by any other process's death.
    """
    _STATE["active"] = True
    _STATE["slot"] = slot
    os.environ[WORKER_ENV_FLAG] = str(slot)
    server = _WorkerServer(slot, spill_dir, blob_threshold)
    announcement = json.dumps(
        {
            "slot": slot,
            "generation": generation,
            "port": server.port,
            "pid": os.getpid(),
        }
    )
    path = os.path.join(spill_dir, READY_FILE)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        handle.write(announcement)
    os.replace(path + ".tmp", path)
    server.serve_forever()
