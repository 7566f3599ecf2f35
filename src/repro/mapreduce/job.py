"""Job abstractions: user-defined map / combine / reduce functions.

A :class:`MapReduceJob` bundles the two user-defined functions of the
MapReduce paradigm (Dean & Ghemawat), with the signatures used in the
paper's Section 3.1::

    map:    <k1, v1>    -> [<k2, v2>]
    reduce: <k2, [v2]>  -> [<k3, v3>]

Jobs may additionally define a ``combine`` function (a map-side
pre-reducer) and may receive read-only *side data* — the analogue of
Hadoop's DistributedCache — through :meth:`MapReduceJob.configure`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Tuple

__all__ = ["KeyValue", "MapReduceJob"]

#: A single record flowing through the simulated cluster.
KeyValue = Tuple[Any, Any]


class MapReduceJob:
    """Base class for user-defined MapReduce jobs.

    Subclasses must override :meth:`map` and :meth:`reduce`; both are
    generators (or return iterables) of ``(key, value)`` pairs.  Jobs must
    be *stateless across records* except for configuration delivered by
    :meth:`configure` — the runtime is free to re-order record processing
    within a phase, exactly like a real cluster.
    """

    #: Name used for counter groups and driver logs.  Defaults to the
    #: class name; override for parameterized jobs.
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__
        self._side_data: Mapping[str, Any] = {}

    # -- configuration ---------------------------------------------------

    def configure(self, side_data: Optional[Mapping[str, Any]]) -> None:
        """Install read-only side data before the job runs.

        This models Hadoop's DistributedCache: small, immutable data
        (e.g. the document store used to verify similarity-join
        candidates) shipped to every task.
        """
        self._side_data = dict(side_data) if side_data else {}

    @property
    def side_data(self) -> Mapping[str, Any]:
        """The read-only side data installed by :meth:`configure`."""
        return self._side_data

    # -- user-defined functions ------------------------------------------

    def map(self, key: Any, value: Any) -> Iterable[KeyValue]:
        """Transform one input record into intermediate records."""
        raise NotImplementedError

    def reduce(self, key: Any, values: List[Any]) -> Iterable[KeyValue]:
        """Transform one intermediate key group into output records."""
        raise NotImplementedError

    # -- stateful hooks (delta iteration plane) ----------------------------
    #
    # Jobs run through :meth:`~repro.mapreduce.runtime.MapReduceRuntime.
    # run_stateful` keep their node records in a
    # :class:`~repro.mapreduce.state.ResidentStateStore` instead of
    # shuffling them every round.  Such jobs implement `reduce_state`
    # plus one of the two map hooks, depending on the execution mode.

    def map_resident(self, key: Any, state: Any) -> Iterable[KeyValue]:
        """Scan-mode map: emit this round's *messages* for one resident
        record.

        Unlike :meth:`map`, the record itself is never re-emitted — the
        reduce side reads it straight from the resident store — so only
        the lightweight cross-node messages enter the shuffle.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support resident-scan "
            "rounds (implement map_resident)"
        )

    def map_delta(self, key: Any, delta: Any) -> Iterable[KeyValue]:
        """Frontier-mode map: emit messages for one *changed* record.

        ``delta`` is either the record's new state or a
        :class:`~repro.mapreduce.state.Retired` naming surviving peers
        to notify of the record's departure.  Quiescent records are
        never mapped — the job's protocol must make their previously
        sent messages recoverable on the reduce side (GreedyMR keeps
        each node's current proposers in its inbox).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support frontier delta "
            "rounds (implement map_delta)"
        )

    def reduce_state(
        self, key: Any, state: Any, values: List[Any]
    ) -> Tuple[Any, Iterable[KeyValue]]:
        """Join one key's messages against its resident state.

        ``state`` is the resident value (``None`` when the key is not
        resident — e.g. stray messages to a node that already left).
        Returns ``(new_state, outputs)``:

        * ``new_state`` equal to ``state`` — quiescent, no delta;
        * a different value — stored, and emitted as a delta;
        * a :class:`~repro.mapreduce.state.Retired` — the key leaves
          the store (its ``notify`` peers get the final delta);
        * ``None`` — no resident state to keep (only meaningful for
          keys that were not resident, e.g. pass-through output keys).

        ``outputs`` are ordinary job output records.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not a stateful job "
            "(implement reduce_state)"
        )

    # -- optional hooks ----------------------------------------------------

    #: Set to ``True`` in subclasses that implement :meth:`combine`.
    has_combiner: bool = False

    def combine(self, key: Any, values: List[Any]) -> Iterable[KeyValue]:
        """Optional map-side combiner; by default the identity grouping.

        Only invoked when :attr:`has_combiner` is ``True``.  The combiner
        must be semantically idempotent with respect to ``reduce`` (it may
        run zero or more times).
        """
        for value in values:
            yield key, value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
