"""The online matcher's contract: incremental == cold batch, always.

The deterministic tests pin the adversarial shapes that break naive
residual re-convergence (a heavy arrival that must displace an existing
matched edge; a benched node whose matches must drop; a retirement felt
two hops away).  The property test then drives seeded synthetic event
streams through micro-batched flushes across every configured execution
backend (× the storage/spill env knobs) and asserts, after *every*
flush, that the re-converged matching is bit-identical to sequential
greedy on the mirror graph — which equals cold-batch GreedyMR by the
matching layer's own equivalence tests.  The locality tests pin what
the repair plan reaches: nothing when a batch cannot change a decision,
two nodes when it can change one, and the whole path in the worst case.
"""

import os
import random
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.graph.generators import ascending_path
from repro.mapreduce import (
    FAULT_COUNTER_GROUP,
    Counters,
    FaultPlan,
    LocalDiskFileSystem,
    MapReduceRuntime,
    RetryPolicy,
)
from repro.mapreduce.state import STATE_POINT_COUNTERS
from repro.matching import greedy_b_matching, greedy_mr_b_matching
from repro.service import (
    SERVICE_COUNTER_GROUP,
    Arrival,
    CapacityChange,
    EdgeArrival,
    EventError,
    OnlineMatcher,
    Retirement,
    apply_event,
    plain_graph,
)
from repro.telemetry.loadgen import zipf_events

from ..conftest import BACKENDS, SPILL_THRESHOLD, STORAGE
from .test_events import INVALID_EVENTS, _base_graph

backend_matrix = pytest.mark.parametrize("backend", BACKENDS)


@contextmanager
def _cell_runtime(backend: str):
    """A fresh runtime per example (pristine counters, clean tmp)."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        if STORAGE == "memory":
            storage = None
        else:
            storage = LocalDiskFileSystem(root=os.path.join(tmp, "dfs"))
        yield MapReduceRuntime(
            num_map_tasks=4,
            num_reduce_tasks=4,
            counters=Counters(),
            backend=backend,
            storage=storage,
            spill_threshold=SPILL_THRESHOLD,
            spill_dir=os.path.join(tmp, "spills"),
        )


def _seeded_graph(seed: int, n: int = 8, min_capacity: int = 1) -> Graph:
    rng = random.Random(seed)
    g = Graph()
    for i in range(n):
        g.add_node(f"n{i}", rng.randint(min_capacity, 3))
    nodes = sorted(g.nodes())
    for _ in range(2 * n):
        u, v = rng.sample(nodes, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.choice((0.5, 1.0, 2.0, 3.0, 7.0)))
    return g


def _assert_cold_identical(matcher: OnlineMatcher, mirror: Graph):
    cold = greedy_b_matching(mirror)
    assert matcher.matching_edges() == sorted(cold.matching.edges())
    assert matcher.value == pytest.approx(cold.value)
    identical, cold_value = matcher.verify()
    assert identical and cold_value == pytest.approx(cold.value)


# -- deterministic scenarios ------------------------------------------------


def test_bootstrap_matches_cold_batch():
    g = _seeded_graph(0)
    with OnlineMatcher(graph=g) as m:
        _assert_cold_identical(m, g)
        assert m.num_nodes == g.num_nodes
        assert m.num_edges == g.num_edges


def test_heavy_arrival_displaces_existing_match():
    # a-b (w=2) is matched at bootstrap; then x arrives with a w=10
    # edge to a (capacity 1).  Greedy on the final graph matches x-a
    # and drops a-b: residual state could never produce this (greedy
    # cannot un-match), so it proves matched edges are really re-decided.
    g = Graph()
    g.add_node("a", 1)
    g.add_node("b", 1)
    g.add_edge("a", "b", 2.0)
    with OnlineMatcher(graph=g) as m:
        assert m.matching_edges() == [("a", "b", 2.0)]
        report = m.flush([Arrival("x", capacity=1, edges=(("a", 10.0),))])
        assert report.admitted == 1 and not report.rejected
        assert m.matching_edges() == [("a", "x", 10.0)]
        assert m.match_lookup("b") == {}


def test_benching_drops_matches_without_touching_edges():
    g = _seeded_graph(1)
    with OnlineMatcher(graph=g) as m:
        matched = [n for n in sorted(g.nodes()) if m.match_lookup(n)]
        node = matched[0]
        m.flush([CapacityChange(node, 0)])
        assert m.match_lookup(node) == {}
        mirror = Graph()
        for name, cap in g.capacities().items():
            mirror.add_node(name, 0 if name == node else cap)
        for e in g.edges():
            mirror.add_edge(e.u, e.v, e.weight)
        _assert_cold_identical(m, mirror)


def test_retirement_reconverges_former_neighborhood():
    g = _seeded_graph(2)
    with OnlineMatcher(graph=g) as m:
        node = next(iter(sorted(g.nodes(), key=g.degree, reverse=True)))
        m.flush([Retirement(node)])
        assert m.match_lookup(node) == {}
        mirror = Graph()
        for name, cap in g.capacities().items():
            if name != node:
                mirror.add_node(name, cap)
        for e in g.edges():
            if node not in (e.u, e.v):
                mirror.add_edge(e.u, e.v, e.weight)
        assert m.num_nodes == mirror.num_nodes
        assert m.num_edges == mirror.num_edges
        _assert_cold_identical(m, mirror)


def test_rejected_event_reports_without_poisoning_batch():
    g = _seeded_graph(3)
    with OnlineMatcher(graph=g) as m:
        report = m.flush(
            [
                Arrival("n0"),  # exists: rejected
                Arrival("fresh", capacity=1, edges=(("n0", 5.0),)),
                EdgeArrival("fresh", "fresh", 1.0),  # self-loop
            ]
        )
        assert report.admitted == 1
        assert len(report.rejected) == 2
        assert "existing node" in report.rejected[0][1]
        assert "self-loop" in report.rejected[1][1]
        assert m.graph_store.contains("fresh")
        counters = m.runtime.counters.group(SERVICE_COUNTER_GROUP)
        assert counters["events.rejected"] == 2
        assert counters["events.admitted"] == 1


@pytest.mark.parametrize("event, reason", INVALID_EVENTS)
def test_admission_rejects_what_apply_event_rejects(event, reason):
    """A malformed or invalid event is rejected with the message
    :func:`apply_event` gives, and its valid batchmate is admitted."""
    with pytest.raises(EventError, match=reason) as expected:
        apply_event(_base_graph(), event)
    valid = EdgeArrival("b", "c", 3.0)
    with OnlineMatcher(graph=_base_graph()) as m:
        report = m.flush([event, valid])
        assert report.rejected == ((event, str(expected.value)),)
        assert report.admitted == 1
        assert m.match_lookup("c") == {"b": 3.0}
        ok, value = m.verify()
        assert ok, value


def test_flush_counters_and_report_agree():
    g = _seeded_graph(4)
    with OnlineMatcher(graph=g) as m:
        events, mirror = zipf_events(g, 9, seed=4)
        reports = [m.flush(events[i : i + 3]) for i in range(0, 9, 3)]
        counters = m.runtime.counters.group(SERVICE_COUNTER_GROUP)
        assert counters["batches.flushed"] == 3
        assert counters["events.admitted"] == 9
        assert counters["reconverge.rounds"] == sum(
            r.rounds for r in reports
        )
        # Only event flushes are latency samples (not the bootstrap).
        assert len(m.flush_seconds) == 3
        _assert_cold_identical(m, mirror)


def test_empty_flush_is_a_noop_round_trip():
    g = _seeded_graph(5)
    with OnlineMatcher(graph=g) as m:
        before = m.matching_edges()
        report = m.flush([])
        assert report.admitted == 0 and report.rounds == 0
        assert m.matching_edges() == before


def test_bootstrap_equals_greedy_mr_cold_batch():
    g = _seeded_graph(6)
    with OnlineMatcher(graph=g) as m:
        cold = greedy_mr_b_matching(g)
        assert m.matching_edges() == sorted(cold.matching.edges())


def test_events_on_empty_bootstrap():
    with OnlineMatcher() as m:
        assert m.matching_edges() == []
        m.flush(
            [
                Arrival("a", capacity=1),
                Arrival("b", capacity=1, edges=(("a", 3.0),)),
            ]
        )
        assert m.matching_edges() == [("a", "b", 3.0)]
        mirror = Graph()
        mirror.add_node("a", 1)
        mirror.add_node("b", 1)
        mirror.add_edge("a", "b", 3.0)
        _assert_cold_identical(m, mirror)


def test_snapshot_shape():
    g = _seeded_graph(7)
    with OnlineMatcher(graph=g) as m:
        snap = m.snapshot()
        assert snap["nodes"] == g.num_nodes
        assert snap["candidate_edges"] == g.num_edges
        assert snap["matched_edges"] == len(snap["matching"])
        assert snap["value"] == pytest.approx(m.value)
        assert snap["counters"]["bootstrap.rounds"] >= 1


def test_parked_graph_store_serves_admission_via_point_ops():
    """Past the spill threshold the graph store parks between flushes
    and per-event admission flows through the single-key apply path —
    the point counters must fire and bit-identity must still hold."""
    runtime = MapReduceRuntime(spill_threshold=2, counters=Counters())
    g = _seeded_graph(8, n=10)
    with OnlineMatcher(runtime=runtime, graph=g) as m:
        events, mirror = zipf_events(g, 30, seed=8)
        for i in range(0, 30, 5):
            m.flush(events[i : i + 5])
        _assert_cold_identical(m, mirror)
        group = runtime.counters.group(m.graph_store.name)
        for name in STATE_POINT_COUNTERS:
            assert group.get(name, 0) > 0, name


# -- the property: incremental == cold batch, across the matrix -------------


@backend_matrix
@settings(max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nodes=st.integers(min_value=4, max_value=40),
    count=st.integers(min_value=5, max_value=60),
    batch=st.integers(min_value=1, max_value=9),
)
def test_incremental_equals_cold_batch_matrix(
    seed, nodes, count, batch, backend
):
    """Any seeded event stream (tied weights, benched ``b = 0`` nodes),
    any batching, any backend × storage: after every flush the
    re-converged matching equals sequential greedy on the mirror graph
    (hence cold-batch GreedyMR, by the matching layer's equivalence
    tests), the match store has drained and no snapshot is left."""
    graph = _seeded_graph(seed, n=nodes, min_capacity=0)
    events, _ = zipf_events(graph, count, seed=seed)
    mirror = plain_graph(graph)
    with _cell_runtime(backend) as runtime:
        with OnlineMatcher(runtime=runtime, graph=graph) as m:
            _assert_cold_identical(m, mirror)
            for start in range(0, len(events), batch):
                report = m.flush(events[start : start + batch])
                assert not report.rejected
                for event in events[start : start + batch]:
                    apply_event(mirror, event)
                _assert_cold_identical(m, mirror)  # includes verify()
                assert report.affected_nodes <= m.num_nodes
                assert not len(m.match_store) and not m._before


# -- locality: what the repair plan reaches ----------------------------------


def _saturated_chain() -> Graph:
    """One component: five pairs matched at 10..14 and chained by
    weight-5 edges that lose at both (saturated) ends, plus three
    capacity-1 bystanders hanging off saturated nodes by lighter edges —
    unmatched, hence unsaturated."""
    g = Graph()
    for i in range(5):
        g.add_node(f"p{i}", 1)
        g.add_node(f"q{i}", 1)
        g.add_edge(f"p{i}", f"q{i}", 10.0 + i)
    for i in range(4):
        g.add_edge(f"q{i}", f"p{i + 1}", 5.0)
    for name, anchor in (("u", "p0"), ("v", "q4"), ("z", "p2")):
        g.add_node(name, 1)
        g.add_edge(name, anchor, 3.0)
    return g


@pytest.mark.parametrize(
    "event",
    [
        # lighter than every matched edge of two saturated endpoints
        EdgeArrival("p0", "q3", 1.0),
        # re-scores of an unmatched edge: same weight; still losing
        EdgeArrival("q0", "p1", 5.0),
        EdgeArrival("q0", "p1", 4.0),
        # removes unmatched edges only / retires an unmatched node
        Retirement("z"),
        # capacity of an unsaturated node, up and down
        CapacityChange("u", 3),
        CapacityChange("u", 0),
        # a benched newcomer, and one whose only neighbor is full
        Arrival("w", capacity=0, edges=(("u", 9.0),)),
        Arrival("w", capacity=2, edges=(("p3", 9.0),)),
    ],
    ids=repr,
)
def test_sources_that_plan_nothing_run_no_job(event):
    graph = _saturated_chain()
    mirror = plain_graph(graph)
    with OnlineMatcher(graph=graph) as m:
        jobs = m.runtime.jobs_executed
        before = m.matching_edges()
        report = m.flush([event])
        assert report.admitted == 1
        assert report.affected_nodes == 0 and report.rounds == 0
        assert m.runtime.jobs_executed == jobs
        assert m.matching_edges() == before
        apply_event(mirror, event)
        _assert_cold_identical(m, mirror)


def test_edge_between_unsaturated_nodes_plans_exactly_its_endpoints():
    # u and v sit at the two ends of the component; each one's other
    # neighbor is saturated by a heavier edge, so the closure stops
    # there and the new edge is decided between the two of them.
    graph = _saturated_chain()
    mirror = plain_graph(graph)
    with OnlineMatcher(graph=graph) as m:
        event = EdgeArrival("u", "v", 1.0)
        report = m.flush([event])
        assert report.affected_nodes == 2 and report.rounds >= 1
        assert m.match_lookup("u") == {"v": 1.0}
        apply_event(mirror, event)
        _assert_cold_identical(m, mirror)
        counters = m.runtime.counters.group(SERVICE_COUNTER_GROUP)
        assert counters["reconverge.affected_nodes"] == 2


def test_worst_case_chain_plans_the_whole_path():
    # A heavier edge appended past the heavy end of the ascending path
    # wins its node, which frees the next, which ...: every matched
    # edge flips, so the plan legitimately covers every node — the
    # bound is the chain of decisions, not a constant.
    n = 12
    graph = ascending_path(n)
    mirror = plain_graph(graph)
    with OnlineMatcher(graph=graph) as m:
        before = set(m.matching_edges())
        event = Arrival(
            "tail", capacity=1, edges=((f"u{n - 1:06d}", float(n)),)
        )
        report = m.flush([event])
        assert report.affected_nodes == n + 1
        apply_event(mirror, event)
        _assert_cold_identical(m, mirror)
        assert not before & set(m.matching_edges())


# -- re-seeding: adjacency insertion order is not rank order -----------------


def _ascending_hub_batches():
    """Edges reach ``hub`` lightest first, with ties, while its capacity
    moves in the same batches: at every ``_reconverge`` the hub's
    adjacency insertion order is the reverse of its rank order."""
    return [
        [
            EdgeArrival("hub", "s1", 1.0),
            EdgeArrival("hub", "s0", 1.0),
            EdgeArrival("hub", "s2", 2.0),
            CapacityChange("hub", 2),
        ],
        [
            EdgeArrival("hub", "s3", 2.0),
            CapacityChange("hub", 3),
            EdgeArrival("hub", "s4", 3.0),
            Arrival("s9", capacity=1, edges=(("hub", 3.0), ("a", 0.5))),
        ],
        [
            CapacityChange("hub", 1),
            EdgeArrival("a", "hub", 7.0),
            Retirement("s4"),
        ],
    ]


@pytest.mark.parametrize("fault_seed", [None, 2], ids=["clean", "faults"])
@pytest.mark.parametrize("spill", [None, 8], ids=["resident", "spill8"])
@pytest.mark.parametrize("fs", ["memory", "disk"])
@pytest.mark.parametrize("backend", ["serial", "cluster"])
def test_reseeding_ranks_ascending_insertions(
    backend, fs, spill, fault_seed, tmp_path
):
    graph = Graph()
    graph.add_node("hub", 1)
    graph.add_node("a", 1)
    for i in range(5):
        graph.add_node(f"s{i}", 1)
    graph.add_edge("a", "s0", 0.5)
    plan = policy = None
    if fault_seed is not None:
        # Task crashes re-run reducers on the pre-round records; the
        # flush fault rolls a half-converged batch back and re-admits.
        plan = FaultPlan(fault_seed, crash_rate=0.3, flush_rate=1.0)
        policy = RetryPolicy(max_attempts=3)
    runtime = MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=4,
        counters=Counters(),
        backend=backend,
        storage=(
            LocalDiskFileSystem(root=str(tmp_path / "dfs"))
            if fs == "disk"
            else None
        ),
        spill_threshold=spill,
        spill_dir=str(tmp_path / "spills"),
        fault_plan=plan,
        retry_policy=policy,
    )
    mirror = plain_graph(graph)
    with OnlineMatcher(runtime=runtime, graph=graph) as m:
        for batch in _ascending_hub_batches():
            report = m.flush(batch)
            assert not report.rejected and report.admitted == len(batch)
            for event in batch:
                apply_event(mirror, event)
            _assert_cold_identical(m, mirror)  # includes verify()
        if plan is not None:
            faults = runtime.counters.group(FAULT_COUNTER_GROUP)
            assert faults.get("injected_flush", 0) == 3
            assert faults.get("injected_crash", 0) > 0
