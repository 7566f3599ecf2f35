"""GreedyMR's node kernel: ranked once at seeding, pure ever after.

Three contracts of ``repro.matching.greedy_mr`` that the end-to-end
suites only see indirectly:

* the **rank** a record is seeded with is the global edge order
  restricted to the node — the key-less ``(-weight, neighbor)`` sort
  equals the ``edge_sort_key(edge_key(v, n), w)`` order for node names
  on either side of ``v`` and duplicate weights;
* **counting** (in the style of ``tests/mapreduce/
  test_encoded_plane.py``): ``rank_neighbors`` runs exactly once per
  seeded record and never inside a map or reduce method, where no
  ``edge_key`` / ``edge_sort_key`` call happens either — the
  machine-independent form of "the round loop does not sort";
* **sparse proposals**: a freshly seeded record ships only its
  proposals and a core change only the proposals it adds, so a round's
  shuffle is its proposals, flips, pings and death notices (pinned
  round by round on a hand-sized graph), an inbox holds exactly the
  neighbors that currently propose to the node, and no proposal is
  ever retracted;
* **purity**: ``reduce_state`` is a function of its arguments that
  leaves its input record untouched — retry attempts, speculative
  backups and the serving flush's rollback re-read pre-round objects.
"""

import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import Graph, ascending_path, random_graph
from repro.graph import edges as edges_module
from repro.graph.edges import edge_key, edge_sort_key
from repro.mapreduce import Counters, MapReduceRuntime, Quiet
from repro.matching import greedy_mr, greedy_mr_b_matching
from repro.matching.greedy_mr import (
    GreedyDeltaNode,
    GreedyDeltaRoundJob,
    rank_neighbors,
)
from repro.service import (
    Arrival,
    CapacityChange,
    EdgeArrival,
    OnlineMatcher,
)

from .test_golden_convergence import _flickr_graph

# -- the rank is the global order, restricted ---------------------------------

node_names = st.text(alphabet="abmz019_", min_size=1, max_size=3)
tied_weights = st.sampled_from([1, 1.0, 2.0, 2.5, 3.0, 0.1, 0.30000000000000004])


@given(
    node=node_names,
    adj=st.dictionaries(node_names, tied_weights, max_size=9),
)
def test_rank_is_the_global_edge_order_restricted_to_the_node(node, adj):
    adj.pop(node, None)  # no self-loops
    expected = sorted(
        adj, key=lambda n: edge_sort_key(edge_key(node, n), adj[n])
    )
    assert list(rank_neighbors(adj)) == expected


def test_seeded_records_carry_the_rank_and_share_the_adjacency():
    adj = {"c": 1.0, "a": 1.0, "b": 3.0}
    record = GreedyDeltaNode.seeded(2, adj)
    assert record.rank == ("b", "a", "c")
    assert record.adj is adj and list(record.adj) == ["c", "a", "b"]
    assert greedy_mr._proposals(record) == {"b", "a"}
    assert record.inbox == {} and record.props is None and record.flips == ()


# -- counting: once per seeded record, never in the round loop ---------------


class _KernelCounters:
    """Counts ranking / sort-key calls, split by where they happen."""

    def __init__(self):
        self.depth = 0  # > 0 while a map or reduce method is running
        self.ranked = 0
        self.ranked_in_kernel = 0
        self.sort_keys_in_kernel = 0

    def ranking(self, function):
        def counted(adj):
            self.ranked += 1
            self.ranked_in_kernel += self.depth > 0
            return function(adj)

        return counted

    def sort_key(self, function):
        def counted(*args):
            self.sort_keys_in_kernel += self.depth > 0
            return function(*args)

        return counted

    def kernel(self, method):
        """Run a (generator or plain) job method to completion inside
        the kernel bracket."""

        def bracketed(job, *args):
            self.depth += 1
            try:
                result = method(job, *args)
                if isinstance(result, tuple):
                    return result  # reduce_state's (state, outputs)
                return list(result)
            finally:
                self.depth -= 1

        return bracketed


@pytest.fixture
def kernel_counters(monkeypatch):
    counters = _KernelCounters()
    monkeypatch.setattr(
        greedy_mr, "rank_neighbors", counters.ranking(rank_neighbors)
    )
    for name, function in (
        ("edge_key", edge_key),
        ("edge_sort_key", edge_sort_key),
    ):
        counted = counters.sort_key(function)
        # The kernel no longer imports either name; patching both the
        # defining module and greedy_mr's namespace counts a regression
        # however it re-introduces them.
        monkeypatch.setattr(edges_module, name, counted)
        monkeypatch.setattr(greedy_mr, name, counted, raising=False)
    for name in ("map_delta", "reduce_state"):
        monkeypatch.setattr(
            GreedyDeltaRoundJob,
            name,
            counters.kernel(getattr(GreedyDeltaRoundJob, name)),
        )
    return counters


def _serial_runtime() -> MapReduceRuntime:
    # In-process on purpose: the counters live in this interpreter.
    return MapReduceRuntime(
        num_map_tasks=4, num_reduce_tasks=4, counters=Counters()
    )


def _flickr_graph_at(scale: float) -> Graph:
    from repro.datasets import load_dataset

    return load_dataset("flickr-small", seed=1, scale=scale).graph(
        sigma=2.0, alpha=2.0
    )


def _seeded_record_count(graph: Graph) -> int:
    capacities = graph.capacities()
    return sum(
        1
        for node, capacity in capacities.items()
        if capacity > 0
        and any(capacities[nbr] > 0 for nbr in graph.neighbors(node))
    )


@pytest.mark.parametrize(
    "make_graph",
    [_flickr_graph, lambda: ascending_path(40)],
    ids=["flickr-small", "ascending-path"],
)
def test_ranked_once_per_record_never_in_a_round(kernel_counters, make_graph):
    graph = make_graph()
    result = greedy_mr_b_matching(graph, runtime=_serial_runtime())
    assert result.rounds > 1 and kernel_counters.depth == 0
    assert kernel_counters.ranked == _seeded_record_count(graph) > 0
    assert kernel_counters.ranked_in_kernel == 0
    assert kernel_counters.sort_keys_in_kernel == 0


def test_flush_ranks_once_per_reseeded_node(kernel_counters, monkeypatch):
    rng = random.Random(5)
    graph = Graph()
    for i in range(12):
        graph.add_node(f"n{i:02d}", rng.randint(1, 3))
    for _ in range(30):
        u, v = rng.sample(sorted(graph.nodes()), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice((1.0, 2.0, 3.0)))
    with OnlineMatcher(runtime=_serial_runtime(), graph=graph) as matcher:
        bootstrap_ranked = kernel_counters.ranked
        assert bootstrap_ranked == _seeded_record_count(graph)
        seeded = []
        run_stateful = matcher.runtime.run_stateful

        def spy(job, store, deltas=None, **kwargs):
            seeded.append(len(deltas))
            return run_stateful(job, store, deltas=deltas, **kwargs)

        monkeypatch.setattr(matcher.runtime, "run_stateful", spy)
        report = matcher.flush(
            [
                EdgeArrival("n00", "n11", 2.0),
                CapacityChange("n03", 2),
                Arrival("x", capacity=2, edges=(("n01", 1.0), ("n02", 3.0))),
            ]
        )
        assert report.rounds == len(seeded) > 0
        # The first round's deltas are exactly the re-seeded records.
        assert kernel_counters.ranked - bootstrap_ranked == seeded[0] > 0
        assert kernel_counters.ranked_in_kernel == 0
        assert kernel_counters.sort_keys_in_kernel == 0
        assert matcher.verify()[0]


def test_messages_shuffle_as_one_record_per_task_and_node(monkeypatch):
    """A round's messages name each node many times per map task; the
    encoded plane folds them into one run per (task, node), so the
    map-side ``canonical_bytes`` calls — one per message before runs —
    are one per run while ``shuffle.records`` still counts every
    message."""
    from repro.mapreduce import runtime as runtime_module

    graph = _flickr_graph_at(0.2)
    encodes = []
    canonical_bytes = runtime_module.canonical_bytes

    def counted(key):
        encodes.append(key)
        return canonical_bytes(key)

    monkeypatch.setattr(runtime_module, "canonical_bytes", counted)
    records = distinct = 0
    shuffle = MapReduceRuntime._shuffle

    def spy(self, job, intermediate, spiller, *args):
        nonlocal records, distinct
        for task_output in intermediate:
            keys = [key for _, key, _ in task_output]
            assert all(type(key) is str for key in keys)
            records += len(keys)
            distinct += len(set(keys))
        return shuffle(self, job, intermediate, spiller, *args)

    monkeypatch.setattr(MapReduceRuntime, "_shuffle", spy)
    runtime = _serial_runtime()
    result = greedy_mr_b_matching(graph, runtime=runtime)
    assert result.mr_jobs == 14
    shuffled = runtime.counters.get("runtime", "shuffle.records")
    assert shuffled == 14339  # one per message, as before runs
    assert records == distinct == len(encodes) == 4356


# -- sparse proposals: what a round ships, what an inbox holds ---------------


def _sparse_proposal_graph():
    """Six nodes, three rounds, one proposal flip.

    Round 1 — every seeded node pings itself (6) and proposes its
    ``min(b, deg)`` best edges (9): u→v, u→w, v→u, w→u, w→v, w→y, x→u,
    y→w, z→x.  ``u`` (``b = 2``) matches ``v`` and ``w``, ``w`` also
    matches ``y``; ``u``, ``v`` and ``y`` leave.
    Round 2 — death notices u→x and v→w (2) and ``w``'s ping (1):
    ``w`` has no edge left, and ``x`` lost its proposal to ``u``.
    Round 3 — ``x``'s bit to ``z`` flips: its ping and the proposal (2),
    and ``x``–``z`` matches.
    """
    graph = Graph()
    for node, capacity in zip("uvwxyz", (2, 1, 3, 1, 1, 1)):
        graph.add_node(node, capacity)
    for u, v, w in (
        ("u", "v", 5.0),
        ("u", "w", 4.0),
        ("v", "w", 3.0),
        ("w", "y", 2.0),
        ("u", "x", 1.0),
        ("x", "z", 0.5),
    ):
        graph.add_edge(u, v, w)
    return graph


def _record_rounds(runtime, check=None):
    """Log each ``greedy-round``'s shuffled records; ``check(records,
    deltas)`` sees the store after every round."""
    shuffled = []
    run_stateful = runtime.run_stateful

    def recording(job, store, **kwargs):
        before = runtime.counters.get(job.name, "shuffle.records")
        output, deltas = run_stateful(job, store, **kwargs)
        after = runtime.counters.get(job.name, "shuffle.records")
        shuffled.append((job.name, after - before))
        if check is not None:
            check(dict(store.records()), deltas)
        return output, deltas

    runtime.run_stateful = recording
    return shuffled


def test_rounds_ship_proposals_pings_flips_and_notices():
    graph = _sparse_proposal_graph()
    runtime = _serial_runtime()
    shuffled = _record_rounds(runtime)
    result = greedy_mr_b_matching(graph, runtime=runtime)
    capacities = graph.capacities()
    proposals = sum(
        min(capacities[node], graph.degree(node)) for node in capacities
    )
    assert proposals == 9
    assert shuffled == [
        ("greedy-round", proposals + len(capacities)),
        ("greedy-round", 2 + 1),
        ("greedy-round", 2),
    ]
    assert result.rounds == 3 and result.value_history == [11.0, 11.0, 11.5]
    assert sorted(result.matching.edges()) == [
        ("u", "v", 5.0),
        ("u", "w", 4.0),
        ("w", "y", 2.0),
        ("x", "z", 0.5),
    ]


def _assert_inboxes_hold_live_proposals(records, deltas):
    """Each live inbox is exactly the neighbors proposing to the node.

    A record's ``props`` is what its neighbors hold once its pending
    delta is mapped; until then they hold ``props ^ flips``.
    """
    pending = {
        node: state
        for node, state in deltas
        if isinstance(state, GreedyDeltaNode)
    }
    published = {}
    for node, state in records.items():
        assert state.props is not None, node  # every record has reduced
        # A core change only ever adds proposals: no bit goes False.
        assert set(state.flips) <= state.props, (node, state.flips)
        if node in pending:
            published[node] = state.props.symmetric_difference(state.flips)
        else:
            published[node] = state.props
    for node, state in records.items():
        assert set(state.inbox.values()) <= {True}, (node, state.inbox)
        proposers = {
            peer for peer in state.adj
            if peer in records and node in published[peer]
        }
        assert set(state.inbox) == proposers, node


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: _flickr_graph_at(0.2),
        lambda: ascending_path(12),
        lambda: random_graph(40, 0.2, rng=random.Random(11), max_capacity=4),
    ],
    ids=["flickr-small-0.2", "ascending-path", "random"],
)
def test_inbox_holds_exactly_the_live_proposers(make_graph):
    runtime = _serial_runtime()
    shuffled = _record_rounds(runtime, _assert_inboxes_hold_live_proposals)
    result = greedy_mr_b_matching(make_graph(), runtime=runtime)
    assert result.rounds == len(shuffled) > 1


def test_flush_inboxes_hold_exactly_the_live_proposers():
    rng = random.Random(3)
    graph = random_graph(24, 0.25, rng=rng, max_capacity=3)
    with OnlineMatcher(runtime=_serial_runtime(), graph=graph) as matcher:
        shuffled = _record_rounds(
            matcher.runtime, _assert_inboxes_hold_live_proposals
        )
        nodes = sorted(graph.nodes())
        rounds = 0
        for step in range(4):
            u, v = rng.sample(nodes, 2)
            report = matcher.flush(
                [
                    EdgeArrival(u, v, rng.choice((1.0, 2.0, 4.0))),
                    CapacityChange(nodes[step], rng.randint(1, 3)),
                    Arrival(
                        f"new{step}",
                        capacity=2,
                        edges=((nodes[step + 5], 3.5), (u, 0.5)),
                    ),
                ]
            )
            rounds += report.rounds
            assert matcher.verify()[0]
        assert rounds == len(shuffled) > 0


# -- purity of the reducer -----------------------------------------------------


def _layout(state):
    """Everything observable about a record, dict key order included."""
    if isinstance(state, Quiet):
        state = state.state
    if not isinstance(state, GreedyDeltaNode):
        return state
    return (
        state.b,
        list(state.adj.items()),
        state.rank,
        list(state.inbox.items()),
        state.props,
        state.flips,
    )


def _recorded_calls(graph: Graph, monkeypatch):
    """Every ``(node, state, values)`` a real run hands ``reduce_state``."""
    calls = []
    reduce_state = GreedyDeltaRoundJob.reduce_state

    def recording(job, node, state, values):
        calls.append((node, state, list(values)))
        return reduce_state(job, node, state, values)

    with monkeypatch.context() as patch:
        patch.setattr(GreedyDeltaRoundJob, "reduce_state", recording)
        greedy_mr_b_matching(graph, runtime=_serial_runtime())
    return calls


@pytest.mark.parametrize(
    "make_graph",
    [_flickr_graph, lambda: ascending_path(12)],
    ids=["flickr-small", "ascending-path"],
)
def test_reduce_state_is_pure(make_graph, monkeypatch):
    calls = _recorded_calls(make_graph(), monkeypatch)
    kinds = set()
    job = GreedyDeltaRoundJob()
    for node, state, values in calls:
        before = copy.deepcopy(state)
        first = job.reduce_state(node, state, values)
        second = job.reduce_state(node, state, values)
        assert first == second
        assert _layout(first[0]) == _layout(second[0])
        # The input record is bit-for-bit what it was, key order too.
        assert state == before and _layout(state) == _layout(before)
        new_state = first[0]
        kinds.add(type(new_state).__name__)
        if isinstance(new_state, Quiet):
            new_state = new_state.state
        if isinstance(new_state, GreedyDeltaNode) and new_state is not state:
            # A changed container is a fresh one; an unchanged one is
            # shared, never copied.
            for name in ("adj", "inbox"):
                new, old = getattr(new_state, name), getattr(state, name)
                assert (new is old) == (list(new.items()) == list(old.items()))
            assert (new_state.rank is state.rank) == (
                new_state.adj is state.adj
            )
    # The run exercised every kind of outcome.
    assert kinds >= {"GreedyDeltaNode", "Quiet", "Retired"}


def test_quiet_round_returns_the_same_record():
    """No match, no death, no new proposal: nothing is rebuilt."""
    seeded = GreedyDeltaNode.seeded(1, {"x": 2.0, "y": 1.0})
    job = GreedyDeltaRoundJob()
    heard, outputs = job.reduce_state("m", seeded, [("ping",), ("prop", "y")])
    assert outputs == [] and isinstance(heard, Quiet)
    record = heard.state
    assert record.adj is seeded.adj and record.rank is seeded.rank
    assert record.props == frozenset({"x"}) and seeded.inbox == {}
    for values in ([("ping",)], [("prop", "y")], [("prop", "q")]):
        assert job.reduce_state("m", record, values) == (record, [])
        assert job.reduce_state("m", record, values)[0] is record

