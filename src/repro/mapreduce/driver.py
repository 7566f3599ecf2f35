"""Drivers for iterative MapReduce computations.

Every algorithm in the paper is *iterative*: GreedyMR runs one job per
round until no edge remains; StackMR alternates maximal-matching rounds,
dual updates, and stack pops.  :class:`IterativeDriver` factors out the
round accounting, the convergence loop, and the safety cap that turns a
non-terminating bug into a loud :class:`~repro.mapreduce.errors.
RoundLimitExceeded` instead of a hang.

The driver is also the natural home of the *delta iteration plane*
(see :mod:`repro.mapreduce.state`): :meth:`IterativeDriver.create_store`
attaches a per-partition resident state store backed by the runtime's
pluggable filesystem, :meth:`IterativeDriver.run_stateful` runs one
resident-state round against it, and :meth:`IterativeDriver.
quiescent_ratio` reports the fraction of resident records the delta
rounds never had to touch — the savings the plane exists to harvest.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, List, Mapping, Optional, Tuple, TypeVar

from .counters import Counters
from .errors import DriverError, RoundLimitExceeded
from .job import KeyValue, MapReduceJob
from .runtime import MapReduceRuntime
from .state import ResidentStateStore
from .storage import FileSystem

__all__ = ["IterativeDriver"]

State = TypeVar("State")

#: One round of an iterative computation: consume the current state and
#: round number, return ``(next_state, done)``.
RoundFunction = Callable[[State, int], Tuple[State, bool]]


class IterativeDriver(Generic[State]):
    """Run a round function to convergence on a simulated cluster.

    The driver does not interpret the state; it only loops, counts rounds,
    and optionally invokes a progress callback after each round (used by
    the experiment harness to record any-time solution values).
    """

    def __init__(
        self,
        runtime: MapReduceRuntime,
        name: str,
        max_rounds: int = 1_000_000,
        on_round_end: Optional[Callable[[State, int], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.max_rounds = max_rounds
        self.on_round_end = on_round_end
        self.rounds_completed = 0
        self.jobs_per_round: List[int] = []
        #: Resident state store of the delta iteration plane, attached
        #: by :meth:`create_store`; ``None`` until then.
        self.store: Optional[ResidentStateStore] = None

    @property
    def counters(self) -> Counters:
        """The counters of the underlying runtime."""
        return self.runtime.counters

    @property
    def backend(self) -> str:
        """Execution backend of the underlying runtime.

        Every job launched by every round runs on this backend; the
        driver itself is backend-agnostic, so iterative results are
        bit-identical across ``serial``/``processes``/``cluster``.
        """
        return self.runtime.backend

    @property
    def filesystem(self) -> FileSystem:
        """The storage backend of the underlying runtime.

        Rounds that persist per-iteration datasets (checkpoints,
        any-time snapshots) write here, so a driver constructed over a
        disk-backed runtime is out-of-core end to end.  Like
        :attr:`backend`, the driver is storage-agnostic: results are
        bit-identical across ``memory``/``disk``.
        """
        return self.runtime.filesystem

    @property
    def storage(self) -> str:
        """Canonical name of the runtime's storage backend."""
        return self.runtime.storage

    # -- the delta iteration plane ----------------------------------------

    def create_store(
        self, records: Optional[List[KeyValue]] = None
    ) -> ResidentStateStore:
        """Attach (and optionally seed) a resident state store.

        The store is created through the runtime, so its partitioning
        matches the shuffle's and it parks out-of-core on the runtime's
        filesystem past the configured spill threshold.
        """
        store = self.runtime.state_store(self.name)
        if records:
            store.load(records)
        self.store = store
        return store

    def run_stateful(
        self,
        job: MapReduceJob,
        deltas: Optional[List[KeyValue]] = None,
        scan: bool = False,
        side_data: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[List[KeyValue], List[KeyValue]]:
        """One resident-state round against the attached store.

        Thin delegation to :meth:`MapReduceRuntime.run_stateful`; see
        there for the scan/frontier modes and the delta contract.
        """
        if self.store is None:
            raise DriverError(
                f"driver {self.name!r} has no resident state store; "
                "call create_store first"
            )
        return self.runtime.run_stateful(
            job, self.store, deltas=deltas, scan=scan, side_data=side_data
        )

    def quiescent_ratio(self) -> float:
        """Fraction of resident records the rounds left untouched.

        Computed from the ``iteration.*`` counters accumulated across
        every stateful round this driver's runtime has run — 0.0 when
        nothing stateful ran yet.  This is the savings meter of the
        delta plane: the paper's formulation re-ships and re-reduces
        every record every round, so its ratio is by definition 0.
        """
        resident = self.counters.get(
            "runtime", "iteration.resident_records"
        )
        if not resident:
            return 0.0
        quiescent = self.counters.get(
            "runtime", "iteration.quiescent_records"
        )
        return quiescent / resident

    def close(self) -> None:
        """Release the resident state store (parked datasets included)."""
        if self.store is not None:
            self.store.close()
            self.store = None

    def iterate(self, step: RoundFunction, initial: State) -> State:
        """Run ``step`` until it reports completion and return the state.

        When the runtime carries a tracer, every round runs inside a
        ``round:<name>:<n>`` span, so each round's jobs (and their
        phase/task spans) nest under it in the span log.
        """
        state = initial
        for round_number in range(self.max_rounds):
            jobs_before = self.runtime.jobs_executed
            with self.runtime._span(
                f"round:{self.name}:{round_number}", kind="round"
            ):
                state, done = step(state, round_number)
            self.rounds_completed = round_number + 1
            self.jobs_per_round.append(
                self.runtime.jobs_executed - jobs_before
            )
            self.counters.increment(self.name, "rounds")
            if self.on_round_end is not None:
                self.on_round_end(state, round_number)
            if done:
                return state
        raise RoundLimitExceeded(self.name, self.max_rounds)
