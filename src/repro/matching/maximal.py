"""Maximal b-matching via the randomized algorithm of Garrido et al.

This is the inner engine of StackMR (§5.3): each push round stacks a
*maximal* (not maximum) b-matching computed by iterating four stages —

1. **marking**: each node ``v`` marks ``⌈b(v)/2⌉`` incident edges;
2. **selection**: each node ``v`` selects ``max{⌊b(v)/2⌋, 1}`` edges
   *marked by its neighbors*;
3. **matching**: a node with ``b(v) = 1`` and two selected incident edges
   randomly drops one (the only case where stages 1–2 can oversubscribe);
4. **cleanup**: selected edges join the matching, capacities decrease,
   and saturated nodes leave the graph with their edges.

Garrido et al. prove expected ``O(log³ n)`` rounds.  The *marking
strategy* is the knob behind the paper's StackGreedyMR variant (§6):

* ``"uniform"`` — uniform random marks/selections (StackMR);
* ``"greedy"`` — prefer the heaviest edges (StackGreedyMR);
* ``"weighted"`` — random with probability proportional to weight (the
  third variant the paper mentions and dismisses).

One set of rules, two drivers
-----------------------------

Each stage is written once, as a per-node job (:class:`MMNode` records,
``map_resident`` messages, ``update`` on the senders).  A node draws
its random choices from its own stream, seeded by
``stable_hash((seed, round, stage, node))``, so a draw never depends on
which other nodes drew before it, nor on where a task ran.  Two drivers
run the same rules:

* :func:`maximal_b_matching_adjacency` (the centralized stack
  algorithm's subroutine) runs each stage as a scan round does, in
  process: every node's messages first, then every node's update;
* :func:`~repro.matching.maximal_mr.mr_maximal_b_matching` runs each
  stage as a resident scan round on the MapReduce runtime.

Both return the same matched edges, weights and round counts for the
same ``(seed, strategy, round_offset)``, which
``tests/matching/test_reference.py`` checks.

Edge states of the paper map onto the records as follows:

=====  =========================================================
``E``  ``v`` in ``u.adj`` and ``u`` in ``v.adj``, no flag set
``K``  ``u`` in ``v.marked_in`` or ``v`` in ``u.marked_in``
``F``  ``v`` in ``u.selected`` and ``u`` in ``v.selected``
``M``  edge emitted as a ``("matched", u, v)`` output record
``D``  edge absent from both endpoints' adjacency lists
=====  =========================================================

Each stage's map emits one ``(neighbor, node)`` message per
non-default fact — a mark, a selection, a demotion, or (cleanup) a
death notice from a saturated node to each unmatched neighbour, next
to the ``("matched", u, v)`` output records.  A neighbour that sends
nothing left the edge unchanged.  That reading rests on one invariant:
after every cleanup the adjacency is symmetric among the live nodes
(:func:`mm_records_from_adjacency` starts it so), so each end already
knows the edge's weight and its own decision, and the message carries
the other end's.  The selection and matchfix updates recompute the
node's own choice from its stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..graph.edges import EdgeKey, edge_key
from ..mapreduce import KeyValue, MapReduceJob, Retired, stable_hash
from ..mapreduce.errors import RoundLimitExceeded

__all__ = [
    "MARKING_STRATEGIES",
    "MAX_ROUNDS",
    "MMNode",
    "STAGES",
    "check_strategy",
    "choose_edges",
    "is_maximal",
    "maximal_b_matching_adjacency",
    "mm_records_from_adjacency",
]

MARKING_STRATEGIES = ("uniform", "greedy", "weighted")

#: Round cap of the subroutine, under either driver.  The stack
#: algorithms also space the random streams of their push rounds by it
#: (``round_offset``), so changing it changes their matchings.
MAX_ROUNDS = 10_000

Adjacency = Dict[str, Dict[str, float]]

_EMPTY: FrozenSet[str] = frozenset()


def check_strategy(strategy: str) -> None:
    """Raise ``ValueError`` unless ``strategy`` is a marking strategy.

    Entry points call this up front, so a bad name fails even on a
    graph with no live edge, where no mark is ever drawn.
    """
    if strategy not in MARKING_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{MARKING_STRATEGIES}"
        )


def choose_edges(
    candidates: List[Tuple[str, float]],
    count: int,
    rng: Optional[random.Random],
    strategy: str,
) -> List[str]:
    """Choose up to ``count`` neighbors from ``(neighbor, weight)`` pairs.

    ``candidates`` must be pre-sorted deterministically by the caller
    (the helpers here sort by neighbor id) so that a seeded RNG yields
    reproducible draws.  ``rng`` is drawn from only when ``count <
    len(candidates)`` and the strategy is not ``"greedy"``; it may be
    ``None`` otherwise.
    """
    check_strategy(strategy)
    if count >= len(candidates):
        return [neighbor for neighbor, _ in candidates]
    if strategy == "greedy":
        heaviest = sorted(candidates, key=lambda nw: (-nw[1], nw[0]))
        return [neighbor for neighbor, _ in heaviest[:count]]
    if strategy == "uniform":
        return rng.sample([neighbor for neighbor, _ in candidates], count)
    # strategy == "weighted": sequential weighted sampling w/o replacement
    pool = list(candidates)
    chosen: List[str] = []
    for _ in range(count):
        total = sum(weight for _, weight in pool)
        if total <= 0:
            chosen.extend(n for n, _ in pool[: count - len(chosen)])
            break
        pick = rng.random() * total
        cumulative = 0.0
        for index, (neighbor, weight) in enumerate(pool):
            cumulative += weight
            if pick <= cumulative:
                chosen.append(neighbor)
                pool.pop(index)
                break
        else:  # floating-point tail: take the last candidate
            chosen.append(pool.pop()[0])
    return chosen


@dataclass(frozen=True)
class MMNode:
    """A node record: remaining capacity, live edges and round flags.

    ``adj`` maps each live neighbour to the edge weight.  ``marked_in``
    names the neighbours that marked their edge to this node (set by
    the mark stage, consumed by selection); ``selected`` names the
    edges either end selected (set by selection, trimmed by matchfix,
    committed by cleanup).
    """

    b: int
    adj: Dict[str, float]
    marked_in: FrozenSet[str] = _EMPTY
    selected: FrozenSet[str] = _EMPTY


def mm_records_from_adjacency(
    adjacency: Adjacency, capacities: Dict[str, int]
) -> List[KeyValue]:
    """Build the initial node records, in sorted node order.

    Nodes with no capacity or no live edges are excluded up front (their
    edges can never be matched), so the records' adjacency is symmetric
    whenever ``adjacency`` is.  The inputs are not mutated.
    """
    records: List[KeyValue] = []
    for node in sorted(adjacency):
        if capacities.get(node, 0) <= 0:
            continue
        adj = {
            nbr: w
            for nbr, w in adjacency[node].items()
            if capacities.get(nbr, 0) > 0
        }
        if adj:
            records.append((node, MMNode(b=int(capacities[node]), adj=adj)))
    return records


class _StageJob(MapReduceJob):
    """Shared shape of the four stages.

    Each stage's map yields ``(neighbor, node)`` for every edge whose
    state this node changes; the reduce hands the senders to
    :meth:`update` as a set, so message order cannot matter.
    """

    stage = "abstract"

    def __init__(self, seed: int, round_index: int, strategy: str) -> None:
        self.name = f"maximal-{self.stage}"
        super().__init__()
        self.seed = seed
        self.round_index = round_index
        self.strategy = strategy

    def _rng(self, node: str) -> random.Random:
        """The node's reproducible generator for this round and stage."""
        return random.Random(
            stable_hash((self.seed, self.round_index, self.stage, node))
        )

    def _choose(
        self, node: str, candidates: List[Tuple[str, float]], count: int
    ) -> List[str]:
        """:func:`choose_edges`, building the RNG only if it is drawn."""
        rng = None
        if self.strategy != "greedy" and count < len(candidates):
            rng = self._rng(node)
        return choose_edges(candidates, count, rng, self.strategy)

    def update(self, node: str, state: MMNode, senders: FrozenSet[str]):
        """The node's record after this stage (``Retired`` if it leaves)."""
        raise NotImplementedError

    def reduce_state(self, node, state: Optional[MMNode], values: List):
        if state is None:
            # Only cleanup's ("matched", u, v) records have no state:
            # each is emitted once, by the smaller endpoint.
            return None, [(node, values[0])]
        return self.update(node, state, frozenset(values)), []


class _MarkJob(_StageJob):
    """Stage 1: each node marks ``⌈b/2⌉`` incident edges."""

    stage = "mark"

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        candidates = sorted(state.adj.items())
        for nbr in self._choose(node, candidates, (state.b + 1) // 2):
            yield nbr, node

    def update(self, node, state, senders):
        if senders == state.marked_in:
            return state
        return MMNode(state.b, state.adj, marked_in=senders)


class _SelectJob(_StageJob):
    """Stage 2: each node selects among edges marked by its neighbors."""

    stage = "select"

    def _picks(self, node: str, state: MMNode) -> List[str]:
        if not state.marked_in:
            return []
        candidates = sorted((nbr, state.adj[nbr]) for nbr in state.marked_in)
        return self._choose(node, candidates, max(state.b // 2, 1))

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        for nbr in self._picks(node, state):
            yield nbr, node

    def update(self, node, state, senders):
        if not state.marked_in and not senders:
            return state
        selected = senders.union(self._picks(node, state))
        return MMNode(state.b, state.adj, selected=selected)


class _MatchFixJob(_StageJob):
    """Stage 3: capacity-1 nodes with two selected edges drop one."""

    stage = "matchfix"

    def _demoted(self, node: str, state: MMNode) -> List[str]:
        if state.b != 1 or len(state.selected) < 2:
            return []
        in_f = sorted(state.selected)
        keep = self._rng(node).choice(in_f)
        return [nbr for nbr in in_f if nbr != keep]

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        for nbr in self._demoted(node, state):
            yield nbr, node

    def update(self, node, state, senders):
        # Demotion by either endpoint wins.
        dropped = senders.union(self._demoted(node, state))
        if not dropped:
            return state
        return MMNode(state.b, state.adj, selected=state.selected - dropped)


class _CleanupJob(_StageJob):
    """Stage 4: commit F to the matching, shrink budgets, drop saturated."""

    stage = "cleanup"

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        for nbr in sorted(state.selected):
            if node < nbr:
                yield ("matched", node, nbr), state.adj[nbr]
        if len(state.selected) >= state.b:
            # Saturated: a death notice to every unmatched neighbour.
            # The reduce folds notices into a set, so their order (and
            # the string hash seed behind ``selected``) cannot reach
            # any output.
            for nbr in state.adj:
                if nbr not in state.selected:
                    yield nbr, node

    def update(self, node, state, senders):
        b = state.b - len(state.selected)
        if b <= 0:
            return Retired()
        if not state.selected and not senders:
            return state
        adj = {
            nbr: w
            for nbr, w in state.adj.items()
            if nbr not in state.selected and nbr not in senders
        }
        return MMNode(b, adj) if adj else Retired()


#: One round of the subroutine: its four stages, in order.
STAGES = (_MarkJob, _SelectJob, _MatchFixJob, _CleanupJob)


def _scan(
    job: _StageJob, records: Dict[str, MMNode]
) -> Tuple[Dict[str, MMNode], List[KeyValue]]:
    """Run one stage in process, as a resident scan round runs it.

    Every node's messages are collected before any record changes;
    then each node's record goes through ``reduce_state`` with its
    senders, and keys no node holds (cleanup's ``("matched", u, v)``)
    yield the stage's output.  Returns ``(records, outputs)``.
    """
    inbox: Dict = {}
    for node, state in records.items():
        for key, value in job.map_resident(node, state):
            inbox.setdefault(key, []).append(value)
    updated: Dict[str, MMNode] = {}
    for node, state in records.items():
        new_state, _ = job.reduce_state(node, state, inbox.pop(node, ()))
        if not isinstance(new_state, Retired):
            updated[node] = new_state
    output: List[KeyValue] = []
    for key, values in inbox.items():
        output.extend(job.reduce_state(key, None, values)[1])
    return updated, output


def maximal_b_matching_adjacency(
    adjacency: Adjacency,
    capacities: Dict[str, int],
    seed: int = 0,
    strategy: str = "uniform",
    round_offset: int = 0,
) -> Tuple[Dict[EdgeKey, float], int]:
    """Run the four-stage loop in process to a maximal b-matching.

    The in-process driver of :data:`STAGES`: the same matched edges
    and round count as
    :func:`~repro.matching.maximal_mr.mr_maximal_b_matching` with the
    same arguments.  Nodes with capacity ``<= 0`` are treated as
    saturated from the start, and the inputs are not mutated.
    ``round_offset`` distinguishes the random streams of calls that
    share a seed.  Returns the matched edges as ``edge_key -> weight``
    and the number of rounds.
    """
    check_strategy(strategy)
    records = dict(mm_records_from_adjacency(adjacency, capacities))
    matched: Dict[EdgeKey, float] = {}
    rounds = 0
    while records:
        if rounds >= MAX_ROUNDS:
            raise RoundLimitExceeded("maximal-b-matching", MAX_ROUNDS)
        for stage_class in STAGES:
            job = stage_class(seed, round_offset + rounds, strategy)
            records, output = _scan(job, records)
            for key, value in output:
                matched[edge_key(key[1], key[2])] = value
        rounds += 1
    return matched, rounds


def is_maximal(
    adjacency: Adjacency,
    capacities: Dict[str, int],
    matched: Iterable[EdgeKey],
) -> bool:
    """Check maximality: no remaining edge could be added to ``matched``.

    Used as a test invariant: a b-matching ``M`` is maximal iff every
    non-matched edge has at least one endpoint whose matched degree
    already equals its capacity.
    """
    matched = set(matched)
    residual = {node: capacities.get(node, 0) for node in adjacency}
    for u, v in matched:
        residual[u] -= 1
        residual[v] -= 1
    if any(r < 0 for r in residual.values()):
        return False  # not even feasible
    for node, neighbors in adjacency.items():
        for neighbor in neighbors:
            key = edge_key(node, neighbor)
            if key in matched:
                continue
            if residual[node] > 0 and residual[neighbor] > 0:
                return False
    return True
