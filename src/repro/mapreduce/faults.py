"""Deterministic fault injection and the recovery machinery over it.

The ROADMAP's distributed-cluster north star needs task retry on
worker death, straggler re-execution, and clean-restart semantics —
none of which can be trusted without a way to *provoke* failures
reproducibly and prove that recovery preserves the bit-identical
contract.  This module supplies both halves:

* **Injection** — a seeded :class:`FaultPlan` schedules task crashes,
  artificial straggler delays, cluster worker kills and dropped
  frames, transient storage errors, and mid-flush service faults,
  each decided by a cryptographic hash of ``(seed, site)`` so every
  failure scenario is reproducible from one integer seed, across
  backends and machines.
  :class:`FaultyFileSystem` wraps any
  :class:`~repro.mapreduce.storage.FileSystem` and raises seeded
  transient :class:`InjectedIOError`\\ s from ``read``/``write``.

* **Recovery** — :class:`RetryPolicy` configures how many attempts a
  task (or a storage operation, or a service flush) gets and how long
  to back off between them, and :meth:`RetryPolicy.run` is the one
  retry loop all three share; :func:`resilient_task_call` is the
  picklable in-worker wrapper that re-executes failed task attempts
  (a failed attempt's counters are simply never returned, so totals
  stay bit-identical — the ``counters=None`` retry discipline);
  :class:`RetryingFileSystem` retries transient storage faults
  driver-side.

Why recovery preserves determinism
----------------------------------

Task units are stateless and idempotent (the contract the speculative
statelessness check has enforced since PR 1), and each attempt meters
into a *fresh* task-local :class:`~repro.telemetry.metrics.Counters`
that only the successful attempt returns.  Storage writes are atomic
(PR 2's rename-on-close), and :class:`FaultyFileSystem` raises
*before* delegating, so a faulted operation leaves nothing behind and
its retry observes exactly the pre-fault state.  The chaos checker
:mod:`repro.chaos` asserts the consequence: outputs, job logs, and
volatile-stripped counters of a faulted run are bit-identical to the
fault-free run, with the ``faults`` counter group
(:data:`FAULT_COUNTER_GROUP` — dropped by
:func:`~repro.mapreduce.state.strip_volatile_counters`) proving the
faults actually fired.

Fault identity and the first-dispatch rule
------------------------------------------

Every fault site has a stable identity: tasks by ``(job, phase,
task_index, attempt)``, storage operations by ``(kind, op_index)``,
and flushes by ``(flush_index, attempt)``.  Crash-like faults are
*attempt-capped* (:data:`MAX_FAULTS_PER_SITE`): the fault fires on the
first attempt only and stands down afterwards, so any recovery budget
of at least two attempts deterministically converges.  A task's specs fire
on its *first dispatch* only: a speculative backup, a resubmit after a
dropped frame, and a re-execution after a worker respawn all run
clean.  The cluster driver knows which dispatch is first from its
:class:`~repro.mapreduce.cluster.driver.TaskLedger` and marks the others
as replays (see :func:`~repro.mapreduce.cluster.worker.replaying`);
the serial backend never re-dispatches.  Storage faults are *consumed
once*: the faulted operation does not advance the logical op index, so
the immediate retry of the same logical operation hits the
already-consumed fault key and succeeds — the transient-error model,
made deterministic.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..telemetry.metrics import Counters
from .errors import JobValidationError, MapReduceError
from .job import KeyValue
from .storage.base import FileSystem

__all__ = [
    "FAULT_COUNTER_GROUP",
    "FaultPlan",
    "FaultyFileSystem",
    "InjectedFault",
    "InjectedIOError",
    "InjectedTaskFault",
    "MAX_FAULTS_PER_SITE",
    "RetryPolicy",
    "RetryingFileSystem",
    "TaskFaultSpec",
    "fired_specs",
    "resilient_task_call",
]

#: Counter group for every fault/recovery meter (``injected_*``,
#: ``task.retries``, ``task.speculative_wins``, ``pool.respawns``,
#: ``storage.retries``, ``flush.retries``).
#: The group is volatile by definition — whether and where faults fire
#: must never perturb the deterministic totals — so
#: :func:`~repro.mapreduce.state.strip_volatile_counters` drops it
#: wholesale.
FAULT_COUNTER_GROUP = "faults"

#: Cap on crash-like faults per site (task / flush): one, so recovery
#: converges under any retry budget of ``max_attempts >= 2``.
MAX_FAULTS_PER_SITE = 1


class InjectedFault(MapReduceError):
    """Base class of every deliberately injected failure."""


class InjectedTaskFault(InjectedFault):
    """A scheduled task-attempt crash (stands in for worker death)."""


class InjectedIOError(InjectedFault, IOError):
    """A scheduled *transient* storage error.

    Also an :class:`IOError`, so generic ``except OSError`` recovery
    paths treat it exactly like the real flaky-disk errors it models.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How much recovery a runtime (or matcher) is allowed to buy.

    Parameters
    ----------
    max_attempts:
        Total attempts per task / storage operation / flush (``1`` =
        no retries, the pre-fault-plane behavior).
    backoff:
        Base seconds slept between attempts, scaled linearly by the
        attempt number (attempt ``n`` retries after ``backoff * n``
        seconds).  Keep ``0.0`` in tests.
    task_timeout:
        When set and the executor is parallel, the runtime promotes
        the speculative-execution hook to real straggler mitigation:
        tasks still running after this many seconds get a backup
        attempt and the first finisher wins (the loser's output is
        discarded — identical by the statelessness contract).
    """

    max_attempts: int = 3
    backoff: float = 0.0
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise JobValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        # ``not x >= 0`` rather than ``x < 0``: NaN fails it too.
        if not self.backoff >= 0:
            raise JobValidationError(
                f"backoff must be >= 0, got {self.backoff}"
            )
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise JobValidationError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )

    @staticmethod
    def retryable(exc: BaseException) -> bool:
        """Whether an exception models a *transient* failure.

        Injected faults and OS-level errors qualify; deterministic job
        bugs (validation errors, event rejections) do not — retrying a
        deterministic failure is wasted work that hides the bug.
        """
        return isinstance(exc, (InjectedFault, OSError))

    def run(
        self,
        attempt_fn: Callable[[int], Any],
        on_retry: Optional[Callable[[int], None]] = None,
    ) -> Any:
        """Call ``attempt_fn(attempt)`` until it returns, retrying
        transient failures within the budget; return its result.

        ``attempt`` counts from ``0``.  A failure that is not
        :meth:`retryable`, or that ends the last of ``max_attempts``,
        propagates at once.  Before each retry actually made,
        ``on_retry(retry)`` is called with the retry's 1-based number
        — the place to meter it — and the loop sleeps
        ``backoff * retry`` seconds.  The one retry loop: task
        attempts (:func:`resilient_task_call`), storage operations
        (:class:`RetryingFileSystem`) and service flushes all run
        through it.
        """
        attempt = 0
        while True:
            try:
                return attempt_fn(attempt)
            except Exception as exc:
                attempt += 1
                if not self.retryable(exc) or attempt >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt)
                if self.backoff:
                    time.sleep(self.backoff * attempt)


@dataclass(frozen=True)
class TaskFaultSpec:
    """One scheduled fault for one task attempt (picklable).

    ``kind`` is ``"crash"`` (raise :class:`InjectedTaskFault`),
    ``"delay"`` (sleep ``seconds``), ``"worker_kill"`` (hard-kill the
    hosting cluster worker), or ``"drop_frame"`` (run the task but
    drop its result frame).  Every kind fires on the task's first
    dispatch only, so a re-dispatch runs clean — for delays, the
    straggler shape speculative backups exist to beat; for the cluster
    kinds, the guarantee that driver-side re-execution converges.
    """

    kind: str
    seconds: float = 0.0


def fired_specs(
    specs: Sequence[Optional[TaskFaultSpec]],
) -> List[TaskFaultSpec]:
    """The specs that will actually fire, in firing order.

    Attempt 0 always runs; attempt ``n`` runs only if attempt ``n-1``
    crashed (a delay slows an attempt but lets it succeed).  Computed
    driver-side so the ``injected_*`` meters are backend-independent.
    """
    fired: List[TaskFaultSpec] = []
    for spec in specs:
        if spec is None:
            break
        fired.append(spec)
        if spec.kind != "crash":
            break
    return fired


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of failures.

    Every decision is a pure function of ``(seed, site identity)`` via
    SHA-256, so the same plan injects the same faults at the same
    sites on every run, backend, filesystem, and machine — one integer
    seed reproduces a whole failure scenario.  A plan holds no per-run
    state, so one value can drive any number of runs.

    Parameters
    ----------
    seed:
        The scenario. Same seed, same faults.
    crash_rate:
        Probability a task attempt is scheduled to crash
        (:class:`InjectedTaskFault` before the task body runs).
        Capped per task by :data:`MAX_FAULTS_PER_SITE` and by the retry
        budget — a crash is only scheduled on attempts that have a
        successor, so recovery always converges.
    delay_rate, delay_seconds:
        Probability a task attempt is scheduled to straggle, and for
        how long.  Like every task fault a delay fires on the task's
        first dispatch only, so a speculative backup of a delayed task
        runs at full speed.
    worker_kill_rate:
        Probability a task's first dispatch hard-kills its hosting
        cluster worker (``os._exit`` mid-task — the worker-death
        shape).  Recovery is *driver-side*: the cluster driver detects
        the death, respawns the worker, and re-executes the task,
        and the re-execution runs clean.  On the serial backend (no
        worker to kill) it degrades to an in-worker task-attempt crash.
    frame_drop_rate:
        Probability a task's first dispatch completes but its result
        frame is dropped on the wire (the worker closes the connection
        instead of replying) — the lost-message shape.  Driver-side
        recovery re-executes the task, and the re-execution runs clean.
        Degrades to a task-attempt crash off-cluster.
    io_rate:
        Probability a ``read``/``write`` through a
        :class:`FaultyFileSystem` raises a transient
        :class:`InjectedIOError` (consumed-once per logical op).
    flush_rate:
        Probability a service flush attempt faults mid-reconvergence
        (capped per flush by :data:`MAX_FAULTS_PER_SITE`).
    """

    seed: int
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.05
    worker_kill_rate: float = 0.0
    frame_drop_rate: float = 0.0
    io_rate: float = 0.0
    flush_rate: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            rate = getattr(self, field.name)
            if field.name.endswith("_rate") and not 0.0 <= rate <= 1.0:
                raise JobValidationError(
                    f"{field.name} must be in [0, 1], got {rate}"
                )
        # ``not x >= 0`` rather than ``x < 0``: NaN fails it too.
        if not self.delay_seconds >= 0:
            raise JobValidationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    # -- the seeded coin ---------------------------------------------------

    def _roll(self, *site: Any) -> float:
        """A uniform draw in ``[0, 1)`` keyed by ``(seed, site)``."""
        token = repr((self.seed,) + site).encode("utf-8")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # -- task faults -------------------------------------------------------

    @property
    def has_task_faults(self) -> bool:
        return (
            self.crash_rate > 0
            or self.delay_rate > 0
            or self.worker_kill_rate > 0
            or self.frame_drop_rate > 0
        )

    def task_faults(
        self,
        job: str,
        phase: str,
        task_index: int,
        max_attempts: int,
    ) -> Tuple[Optional[TaskFaultSpec], ...]:
        """Per-attempt fault specs for one task, ``max_attempts`` long.

        Crashes are scheduled only on attempts with a successor and at
        most :data:`MAX_FAULTS_PER_SITE` times, so a task that keeps being
        retried always reaches a crash-free attempt.  Delays may fire
        on any attempt (they slow, never fail).

        Cluster faults (``worker_kill`` / ``drop_frame``) are
        scheduled at most once per task, on attempt 0 only, and are
        mutually exclusive with the in-worker kinds: their recovery is
        a driver-side *re-dispatch*, which fires no specs, so the
        remaining attempts stay clean — and :func:`fired_specs` still
        meters exactly what fires.
        """
        if self.worker_kill_rate > 0 or self.frame_drop_rate > 0:
            site = (job, phase, task_index, 0)
            spec: Optional[TaskFaultSpec] = None
            if self._roll("worker_kill", *site) < self.worker_kill_rate:
                spec = TaskFaultSpec(kind="worker_kill")
            elif self._roll("drop_frame", *site) < self.frame_drop_rate:
                spec = TaskFaultSpec(kind="drop_frame")
            if spec is not None:
                return (spec,) + (None,) * (max_attempts - 1)
        crash_budget = min(MAX_FAULTS_PER_SITE, max_attempts - 1)
        specs: List[Optional[TaskFaultSpec]] = []
        for attempt in range(max_attempts):
            site = (job, phase, task_index, attempt)
            if (
                attempt < crash_budget
                and self._roll("crash", *site) < self.crash_rate
            ):
                specs.append(TaskFaultSpec(kind="crash"))
            elif self._roll("delay", *site) < self.delay_rate:
                specs.append(
                    TaskFaultSpec(kind="delay", seconds=self.delay_seconds)
                )
            else:
                specs.append(None)
        return tuple(specs)

    # -- storage / service faults ------------------------------------------

    def storage_fault(self, kind: str, op_index: int) -> bool:
        """Whether logical storage operation ``op_index`` of ``kind``
        (``"read"`` / ``"write"``) should raise transiently."""
        return self._roll("io", kind, op_index) < self.io_rate

    def flush_fault(self, flush_index: int, attempt: int) -> bool:
        """Whether flush ``flush_index``'s attempt ``attempt`` should
        fault mid-reconvergence (attempt-capped like task crashes)."""
        if attempt >= MAX_FAULTS_PER_SITE:
            return False
        return self._roll("flush", flush_index, attempt) < self.flush_rate


# -- the in-worker retry wrapper ---------------------------------------------
#
# A module-level function so the cluster backend can pickle it by
# reference; fault specs are precomputed driver-side (deterministic and
# picklable) and travel with the task arguments.


def _fire(spec: TaskFaultSpec) -> None:
    """Make one scheduled fault happen, inside the worker."""
    if spec.kind == "crash":
        raise InjectedTaskFault("injected task-attempt crash")
    if spec.kind == "delay":
        time.sleep(spec.seconds)
        return
    if spec.kind in ("worker_kill", "drop_frame"):
        # Lazy import: only chaos runs that schedule cluster kinds pay
        # for the cluster plane, and only to ask "am I in a worker?".
        from .cluster import worker as cluster_worker

        on_cluster = cluster_worker.in_worker()
        if spec.kind == "worker_kill":
            if on_cluster:
                os._exit(17)  # hard worker death, mid-task
            raise InjectedTaskFault(
                "injected worker kill (no cluster worker to kill: "
                "degraded to a task-attempt crash)"
            )
        if on_cluster:
            cluster_worker.request_drop_reply()
            return  # the task runs; its result frame is dropped
        raise InjectedTaskFault(
            "injected frame drop (no frame to drop: degraded to a "
            "task-attempt crash)"
        )


def resilient_task_call(
    policy: RetryPolicy,
    specs: Tuple[Optional[TaskFaultSpec], ...],
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """Run a task unit with injected faults and bounded retries.

    Each attempt first fires its scheduled fault (if any), then runs
    the real task function; a cluster re-dispatch of the task
    (:func:`~repro.mapreduce.cluster.worker.replaying`) fires none,
    since its first dispatch already did.  A failed attempt's partial
    result — and crucially its task-local :class:`Counters` — is
    discarded whole, so only the successful attempt's counters ever
    reach the driver and totals stay bit-identical with the fault-free
    run.  The recovery meters (``task.retries``) land on the successful
    result's trailing counters under :data:`FAULT_COUNTER_GROUP`, which
    the bit-identical comparisons strip.

    Attempts run through :meth:`RetryPolicy.run`, so retries cover
    transient failures only (injected faults and ``OSError``): a
    deterministic job bug (a validation error, say) fails fast on its
    first attempt exactly as it does without a retry policy.
    """
    if any(specs):
        from .cluster import worker as cluster_worker

        if cluster_worker.replaying():
            specs = ()

    def attempt_fn(attempt: int) -> Any:
        spec = specs[attempt] if attempt < len(specs) else None
        if spec is not None:
            _fire(spec)
        result = fn(*args)
        if attempt:
            counters = result[-1]
            if isinstance(counters, Counters):
                counters.increment(
                    FAULT_COUNTER_GROUP, "task.retries", attempt
                )
        return result

    return policy.run(attempt_fn)


# -- filesystem wrappers ------------------------------------------------------


class _DelegatingFileSystem(FileSystem):
    """Shared plumbing: forward everything to an inner filesystem."""

    def __init__(self, inner: FileSystem) -> None:
        self.inner = inner

    @property  # type: ignore[override]
    def name(self) -> str:  # the wrapped backend keeps its identity
        return self.inner.name

    def write(
        self,
        path: str,
        records: Iterable[KeyValue],
        overwrite: bool = False,
    ) -> int:
        return self.inner.write(path, records, overwrite=overwrite)

    def read(self, path: str) -> List[KeyValue]:
        return self.inner.read(path)

    def exists(self, path: str) -> bool:
        return self.inner.exists(path)

    def delete(self, path: str) -> None:
        self.inner.delete(path)

    def list_paths(self, prefix: str = "/") -> List[str]:
        return self.inner.list_paths(prefix)

    def du(self, path: Optional[str] = None):
        return self.inner.du(path)

    def __getattr__(self, attr: str) -> Any:
        # Backend extras (e.g. LocalDiskFileSystem.root) stay reachable
        # through the wrapper; only missing attributes land here.
        return getattr(self.inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.inner!r})"


class FaultyFileSystem(_DelegatingFileSystem):
    """Inject seeded transient IO errors over any filesystem.

    Fault decisions key off the *logical operation index* per kind
    (the N-th ``read``, the N-th ``write``), and a faulted call does
    **not** advance that index — the fault key is consumed instead, so
    the immediate retry of the same logical operation deterministically
    succeeds.  The fault is raised *before* delegating, so a faulted
    write never leaves partial state (and the inner backend's atomic
    rename-on-close covers real crashes).

    Because every decision is a pure function of the plan's seed and
    the op index, a run over ``Faulty(disk)`` injects the same faults
    as the same run over ``Faulty(memory)``.
    """

    def __init__(
        self,
        inner: FileSystem,
        plan: FaultPlan,
        counters: Optional[Counters] = None,
    ) -> None:
        super().__init__(inner)
        self.plan = plan
        self.counters = counters
        self._op_counts: Dict[str, int] = {"read": 0, "write": 0}
        self._consumed: Set[Tuple[str, int]] = set()

    def _maybe_fault(self, kind: str, path: str) -> None:
        index = self._op_counts[kind]
        key = (kind, index)
        if key not in self._consumed and self.plan.storage_fault(
            kind, index
        ):
            self._consumed.add(key)
            if self.counters is not None:
                self.counters.increment(FAULT_COUNTER_GROUP, "injected_io")
                self.counters.increment(
                    FAULT_COUNTER_GROUP, "injected_total"
                )
            raise InjectedIOError(
                f"injected transient {kind} fault at {path!r} "
                f"(op #{index})"
            )
        self._op_counts[kind] = index + 1

    def write(
        self,
        path: str,
        records: Iterable[KeyValue],
        overwrite: bool = False,
    ) -> int:
        self._maybe_fault("write", path)
        return self.inner.write(path, records, overwrite=overwrite)

    def read(self, path: str) -> List[KeyValue]:
        self._maybe_fault("read", path)
        return self.inner.read(path)


class RetryingFileSystem(_DelegatingFileSystem):
    """Retry transient ``read``/``write`` failures per a policy.

    The driver-side half of storage recovery: wraps the (possibly
    faulty) filesystem so state parking, point reads, and pipeline
    stage writes transparently survive transient errors.  Retries only
    what :meth:`RetryPolicy.retryable` calls transient — contract
    violations (:class:`~repro.mapreduce.storage.FileSystemError`,
    e.g. an overwrite without ``overwrite=True``) are deterministic
    and fail fast.
    """

    def __init__(
        self,
        inner: FileSystem,
        policy: RetryPolicy,
        counters: Optional[Counters] = None,
    ) -> None:
        super().__init__(inner)
        self.policy = policy
        self.counters = counters

    def _with_retries(self, fn: Callable[[], Any]) -> Any:
        counters = self.counters
        on_retry = None
        if counters is not None:

            def on_retry(_retry: int) -> None:
                counters.increment(FAULT_COUNTER_GROUP, "storage.retries")

        return self.policy.run(lambda _attempt: fn(), on_retry)

    def write(
        self,
        path: str,
        records: Iterable[KeyValue],
        overwrite: bool = False,
    ) -> int:
        # Materialize once so every attempt writes the same records
        # even when the caller streams them.
        rows = records if isinstance(records, list) else list(records)
        return self._with_retries(
            lambda: self.inner.write(path, rows, overwrite=overwrite)
        )

    def read(self, path: str) -> List[KeyValue]:
        return self._with_retries(lambda: self.inner.read(path))
