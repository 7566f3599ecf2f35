"""The one round loop of every iterative MapReduce computation.

Both of the paper's algorithms are iterative, and their cost is counted
in rounds.  :meth:`IterativeDriver.iterate` is the only MapReduce round
loop in the package; four loops run on it, each under its own name:

* ``greedy-mr`` — GreedyMR, one frontier job per round
  (:func:`~repro.matching.greedy_mr.greedy_mr_b_matching`);
* ``stack-mr-push`` — StackMR's push rounds: the maximal subroutine,
  the dual update and the coverage job
  (:func:`~repro.matching.stack_mr.stack_mr_b_matching`);
* ``mr-maximal-b-matching`` — the maximal subroutine's rounds of four
  stage jobs, nested inside a push round when StackMR drives it
  (:func:`~repro.matching.maximal_mr.mr_maximal_b_matching`);
* ``online-matching`` — a serving flush's GreedyMR frontier rounds
  (:meth:`~repro.service.OnlineMatcher._reconverge`).

Every round runs inside a ``round:<name>:<n>`` span when the runtime
carries a tracer, so its jobs nest under it in the span log, and counts
``<name>.rounds`` on the runtime's counters.  A loop that would need
more than ``max_rounds`` rounds raises :class:`~repro.mapreduce.errors.
RoundLimitExceeded` naming itself instead of hanging, and a loop with
nothing to do runs no round, opens no span and counts nothing.

The driver is also where GreedyMR keeps its resident state store (see
:mod:`repro.mapreduce.state`): :meth:`IterativeDriver.create_store`
attaches a per-partition store backed by the runtime's filesystem, and
:meth:`IterativeDriver.run_stateful` runs one resident-state round
against it.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, List, Mapping, Optional, Tuple, TypeVar

from .errors import DriverError, RoundLimitExceeded
from .job import KeyValue, MapReduceJob
from .runtime import MapReduceRuntime
from .state import ResidentStateStore

__all__ = ["IterativeDriver"]

State = TypeVar("State")

#: One round of an iterative computation: consume the current state and
#: round number, return the next state.
RoundFunction = Callable[[State, int], State]


class IterativeDriver(Generic[State]):
    """Run a round function to convergence on a simulated cluster.

    The driver does not interpret the state; it only loops, traces and
    counts rounds, and enforces the round cap.
    """

    def __init__(
        self,
        runtime: MapReduceRuntime,
        name: str,
        max_rounds: int = 1_000_000,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.max_rounds = max_rounds
        self.rounds_completed = 0
        #: Resident state store attached by :meth:`create_store`;
        #: ``None`` until then.
        self.store: Optional[ResidentStateStore] = None

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

    def close(self) -> None:
        """Release the resident state store (parked datasets included)."""
        if self.store is not None:
            self.store.close()
            self.store = None

    def iterate(
        self,
        step: RoundFunction,
        state: State,
        pending: Callable[[State], Any] = bool,
    ) -> State:
        """Run ``step`` while ``pending(state)`` holds; return the state.

        Round ``n`` calls ``step(state, n)`` for the next state.  By
        default a state is pending while it is truthy — a non-empty
        delta stream, a non-empty store.
        """
        while pending(state):
            round_number = self.rounds_completed
            if round_number >= self.max_rounds:
                raise RoundLimitExceeded(self.name, self.max_rounds)
            with self.runtime._span(
                f"round:{self.name}:{round_number}", kind="round"
            ):
                state = step(state, round_number)
            self.rounds_completed = round_number + 1
            self.runtime.counters.increment(self.name, "rounds")
        return state
