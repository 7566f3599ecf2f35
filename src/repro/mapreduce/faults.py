"""Deterministic fault injection and the recovery machinery over it.

The ROADMAP's distributed-cluster north star needs task retry on
worker death, straggler re-execution, and clean-restart semantics —
none of which can be trusted without a way to *provoke* failures
reproducibly and prove that recovery preserves the bit-identical
contract.  This module supplies both halves:

* **Injection** — a seeded :class:`FaultPlan` schedules task crashes,
  artificial straggler delays, transient storage errors, poisoned
  event records, and mid-flush service faults, each decided by a
  cryptographic hash of ``(seed, site)`` so every failure scenario is
  reproducible from one integer seed, across backends and machines.
  :class:`FaultyFileSystem` wraps any
  :class:`~repro.mapreduce.storage.FileSystem` and raises seeded
  transient :class:`InjectedIOError`\\ s from ``read``/``write``.

* **Recovery** — :class:`RetryPolicy` configures how many attempts a
  task (or a storage operation, or a service flush) gets and how long
  to back off between them; :func:`resilient_task_call` is the
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
its retry observes exactly the pre-fault state.  The chaos property
matrix in ``tests/mapreduce/test_faults.py`` asserts the consequence:
outputs, job logs, and volatile-stripped counters of a faulted run are
bit-identical to the fault-free run, with the ``faults`` counter group
(:data:`FAULT_COUNTER_GROUP` — dropped by
:func:`~repro.mapreduce.state.strip_volatile_counters`) proving the
faults actually fired.

Fault identity and the consumed-once rule
-----------------------------------------

Every fault site has a stable identity: tasks by ``(job, phase,
task_index, attempt)``, storage operations by ``(kind, op_index)``,
flushes by ``(flush_index, attempt)``, events by their admission
sequence number.  Crash-like faults are *attempt-capped*
(:data:`MAX_FAULTS_PER_SITE`): the fault fires on the first attempt
only and stands down afterwards, so any recovery budget of at
least two attempts deterministically converges.  Storage faults are
*consumed once*: the faulted operation does not advance the logical
op index, so the immediate retry of the same logical operation hits
the already-consumed fault key and succeeds — the transient-error
model, made deterministic.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
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
    "PoisonedEvent",
    "RetryPolicy",
    "RetryingFileSystem",
    "TaskFaultSpec",
    "fired_specs",
    "resilient_task_call",
]

#: Counter group for every fault/recovery meter (``injected_*``,
#: ``task.retries``, ``task.speculative_wins``, ``pool.respawns``,
#: ``storage.retries``, ``flush.retries``, ``events.dead_lettered``).
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


class PoisonedEvent(InjectedFault):
    """A scheduled admission failure for one service event."""


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

    def retry_delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        return self.backoff * attempt

    @staticmethod
    def retryable(exc: BaseException) -> bool:
        """Whether an exception models a *transient* failure.

        Injected faults and OS-level errors qualify; deterministic job
        bugs (validation errors, event rejections) do not — retrying a
        deterministic failure is wasted work that hides the bug.  The
        one definition every retry loop asks: task attempts
        (:func:`resilient_task_call`), storage operations
        (:class:`RetryingFileSystem`) and service flushes.
        """
        return isinstance(exc, (InjectedFault, OSError))


@dataclass(frozen=True)
class TaskFaultSpec:
    """One scheduled fault for one task attempt (picklable).

    ``kind`` is ``"crash"`` (raise :class:`InjectedTaskFault`),
    ``"delay"`` (sleep ``seconds``), ``"worker_kill"`` (hard-kill the
    hosting cluster worker), or ``"drop_frame"`` (run the task but
    drop its result frame).  ``once_path``, when set, makes the fault
    *machine-scoped* rather than attempt-scoped: the first execution
    to claim the sentinel file fires it, any concurrent or later
    re-execution of the same attempt runs clean — for delays, the
    straggler shape speculative backups exist to beat; for the cluster
    kinds, the guarantee that driver-side re-execution converges.
    """

    kind: str
    seconds: float = 0.0
    once_path: Optional[str] = None


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


class FaultPlan:
    """A seeded, deterministic schedule of failures.

    Every decision is a pure function of ``(seed, site identity)`` via
    SHA-256, so the same plan injects the same faults at the same
    sites on every run, backend, filesystem, and machine — one integer
    seed reproduces a whole failure scenario.

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
        how long.  Delays are machine-scoped via a sentinel file (see
        :class:`TaskFaultSpec.once_path`), so a speculative backup of
        a delayed task runs at full speed.
    worker_kill_rate:
        Probability a task's first execution hard-kills its hosting
        cluster worker (``os._exit`` mid-task — the worker-death
        shape).  Recovery is *driver-side*: the cluster driver detects
        the death, respawns the worker, and re-executes the task;
        the fault is sentinel-scoped so the re-execution runs clean.
        On the serial backend (no worker to kill) it degrades to
        an in-worker task-attempt crash.
    frame_drop_rate:
        Probability a task's first execution completes but its result
        frame is dropped on the wire (the worker closes the connection
        instead of replying) — the lost-message shape.  Driver-side
        recovery re-executes; sentinel-scoped like ``worker_kill``.
        Degrades to a task-attempt crash off-cluster.
    io_rate:
        Probability a ``read``/``write`` through a
        :class:`FaultyFileSystem` raises a transient
        :class:`InjectedIOError` (consumed-once per logical op).
    flush_rate:
        Probability a service flush attempt faults mid-reconvergence
        (capped per flush by :data:`MAX_FAULTS_PER_SITE`).
    poison_rate:
        Probability an admitted event is *permanently* poisoned: its
        admission raises :class:`PoisonedEvent` on every attempt until
        the matcher dead-letters it.
    scratch_dir:
        Directory for delay sentinel files; a private temporary
        directory is created lazily when omitted (removed by
        :meth:`cleanup` / context-manager exit).
    """

    #: The probability parameters, each validated to lie in [0, 1].
    _RATES = (
        "crash_rate",
        "delay_rate",
        "worker_kill_rate",
        "frame_drop_rate",
        "io_rate",
        "flush_rate",
        "poison_rate",
    )

    def __init__(
        self,
        seed: int,
        crash_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.05,
        worker_kill_rate: float = 0.0,
        frame_drop_rate: float = 0.0,
        io_rate: float = 0.0,
        flush_rate: float = 0.0,
        poison_rate: float = 0.0,
        scratch_dir: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.crash_rate = crash_rate
        self.delay_rate = delay_rate
        self.delay_seconds = delay_seconds
        self.worker_kill_rate = worker_kill_rate
        self.frame_drop_rate = frame_drop_rate
        self.io_rate = io_rate
        self.flush_rate = flush_rate
        self.poison_rate = poison_rate
        for name in self._RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise JobValidationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        # ``not x >= 0`` rather than ``x < 0``: NaN fails it too.
        if not delay_seconds >= 0:
            raise JobValidationError(
                f"delay_seconds must be >= 0, got {delay_seconds}"
            )
        self._scratch_dir = scratch_dir
        self._owns_scratch = False

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
        scheduled at most once per task, on the first execution only,
        and are mutually exclusive with the in-worker kinds: their
        recovery is a driver-side *re-execution* (the same attempt-0
        spec tuple runs again), so the spec is sentinel-scoped and the
        remaining attempts stay clean — and :func:`fired_specs` still
        meters exactly what fires.
        """
        if self.worker_kill_rate > 0 or self.frame_drop_rate > 0:
            site = (job, phase, task_index, 0)
            spec: Optional[TaskFaultSpec] = None
            if self._roll("worker_kill", *site) < self.worker_kill_rate:
                spec = TaskFaultSpec(
                    kind="worker_kill",
                    once_path=self._sentinel_path("worker_kill", *site),
                )
            elif self._roll("drop_frame", *site) < self.frame_drop_rate:
                spec = TaskFaultSpec(
                    kind="drop_frame",
                    once_path=self._sentinel_path("drop_frame", *site),
                )
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
                    TaskFaultSpec(
                        kind="delay",
                        seconds=self.delay_seconds,
                        once_path=self._sentinel_path(*site),
                    )
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

    def event_poisoned(self, sequence: int) -> bool:
        """Whether the event with admission sequence number
        ``sequence`` is permanently poisoned."""
        return self._roll("poison", sequence) < self.poison_rate

    # -- straggler sentinels -----------------------------------------------

    def _sentinel_path(self, *site: Any) -> str:
        token = hashlib.sha256(
            repr(site).encode("utf-8")
        ).hexdigest()[:20]
        return os.path.join(self.scratch_dir, f"straggler-{token}")

    @property
    def scratch_dir(self) -> str:
        """The sentinel directory, created lazily."""
        if self._scratch_dir is None:
            self._scratch_dir = tempfile.mkdtemp(prefix="repro-faults-")
            self._owns_scratch = True
        return self._scratch_dir

    def cleanup(self) -> None:
        """Remove the sentinel scratch directory if this plan owns it."""
        if self._owns_scratch and self._scratch_dir is not None:
            shutil.rmtree(self._scratch_dir, ignore_errors=True)
            self._scratch_dir = None
            self._owns_scratch = False

    def __enter__(self) -> "FaultPlan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rates = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in self._RATES
            if getattr(self, name)
        )
        return f"FaultPlan(seed={self.seed}{', ' + rates if rates else ''})"


# -- the in-worker retry wrapper ---------------------------------------------
#
# A module-level function so the cluster backend can pickle it by
# reference; fault specs are precomputed driver-side (deterministic and
# picklable) and travel with the task arguments.


def _claim_once(path: str) -> bool:
    """Claim a fault sentinel; ``False`` if already claimed elsewhere."""
    try:
        handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(handle)
    except FileExistsError:
        return False  # another execution already fired this fault
    except OSError:
        pass  # scratch dir gone: fire anyway
    return True


def _fire(spec: TaskFaultSpec) -> None:
    """Make one scheduled fault happen, inside the worker."""
    if spec.kind == "crash":
        raise InjectedTaskFault("injected task-attempt crash")
    if spec.kind == "delay":
        if spec.once_path is not None and not _claim_once(spec.once_path):
            return
        time.sleep(spec.seconds)
        return
    if spec.kind in ("worker_kill", "drop_frame"):
        if spec.once_path is not None and not _claim_once(spec.once_path):
            return  # a previous execution already paid this fault
        # Lazy import: only chaos runs that schedule cluster kinds pay
        # for the cluster plane, and only to ask "am I in a worker?".
        try:
            from .cluster import worker as cluster_worker
        except Exception:  # pragma: no cover - defensive
            cluster_worker = None
        on_cluster = (
            cluster_worker is not None and cluster_worker.in_worker()
        )
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
    max_attempts: int,
    backoff: float,
    specs: Tuple[Optional[TaskFaultSpec], ...],
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """Run a task unit with injected faults and bounded retries.

    Each attempt first fires its scheduled fault (if any), then runs
    the real task function.  A failed attempt's partial result — and
    crucially its task-local :class:`Counters` — is discarded whole,
    so only the successful attempt's counters ever reach the driver
    and totals stay bit-identical with the fault-free run.  The
    recovery meters (``task.retries``) land on the successful result's
    trailing counters under :data:`FAULT_COUNTER_GROUP`, which the
    bit-identical comparisons strip.

    Retries cover transient failures only (:meth:`RetryPolicy.
    retryable`: injected faults and ``OSError``): a deterministic job
    bug (a validation error, say) fails fast on its first attempt
    exactly as it does without a retry policy.
    """
    attempt = 0
    while True:
        spec = specs[attempt] if attempt < len(specs) else None
        try:
            if spec is not None:
                _fire(spec)
            result = fn(*args)
        except Exception as exc:
            attempt += 1
            if not RetryPolicy.retryable(exc) or attempt >= max_attempts:
                raise
            if backoff:
                time.sleep(backoff * attempt)
            continue
        if attempt:
            counters = result[-1]
            if isinstance(counters, Counters):
                counters.increment(
                    FAULT_COUNTER_GROUP, "task.retries", attempt
                )
        return result


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
        attempt = 0
        while True:
            try:
                return fn()
            except Exception as exc:
                attempt += 1
                if (
                    not self.policy.retryable(exc)
                    or attempt >= self.policy.max_attempts
                ):
                    raise
                if self.counters is not None:
                    self.counters.increment(
                        FAULT_COUNTER_GROUP, "storage.retries"
                    )
                delay = self.policy.retry_delay(attempt)
                if delay:
                    time.sleep(delay)

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
