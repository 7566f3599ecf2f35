"""The seven workloads of the benchmark of record.

Each workload is a class with four steps the child process drives in
order (see :func:`run.child_main`):

``setup()``    generate the inputs for the seed, compute the oracle,
               build the runtime, spawn and warm whatever pool the
               backend needs — all of it is ``setup_s``;
``run()``      the timed region, input to complete result — ``wall_s``;
``outcome()``  compare the result with the oracle, *off the clock*;
``close()``    release pools, workers and stores.

Inputs and seeds
----------------
Every workload runs on the repo's canonical ``flickr-small`` corpus
(corpus seed 1, the one every legacy bench uses).  ``--seed S`` *renames*
every item and consumer by a seeded permutation — which moves every key
to another partition, reorders every sort and re-rolls every
name-hashed choice — but leaves the instance isomorphic, and the match
and serve graphs get tie-free weights (a 1e-9-scale offset frozen in
canonical edge order) so that no comparison falls through to a name.
Why not a fresh corpus per seed: ten independently generated corpora
differ by 10 % in edges, 11 % in GreedyMR rounds and 21 % in wall-clock
(measured), which no regression bound could see through; under renaming
the job and record counts repeat exactly and the run-to-run spread is
the machine's.  The program still receives nothing but generated inputs.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import math
import random
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datasets import load_dataset
from repro.graph import BipartiteGraph
from repro.mapreduce import MapReduceRuntime
from repro.matching import greedy_b_matching
from repro.matching import greedy_mr, stack_mr
from repro.service import MatchingService, OnlineMatcher
from repro.service.events import apply_event, plain_graph
from repro.simjoin import mr_join
from repro.simjoin.allpairs import exact_similarity_join
from repro.telemetry.loadgen import zipf_events

import loadgen

CORPUS = "flickr-small"
CORPUS_SEED = 1
EVENT_SEED = 0
SIGMA = 2.0
ALPHA = 2.0
MAP_TASKS = REDUCE_TASKS = 4
#: Tie-breaking weight offset per canonical edge rank; 3e5 edges shift
#: a weight by < 3e-4, far below the corpus's integer weight steps.
WEIGHT_JITTER = 1e-9

#: Sizes.  ``record`` is what ``BENCHMARK.json`` runs; ``smoke`` finishes
#: all seven workloads in well under 30 s for the tests.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "smoke": {
        "join": {"scale": 0.08, "spill_threshold": 200},
        "greedy_match": {"scale": 0.1},
        "stack_match": {"scale": 0.08},
        "serve_closed": {"scale": 0.05, "events": 24},
        "serve_open": {"scale": 0.05, "events": 25, "rate": 40.0},
    },
    "record": {
        "join": {"scale": 0.48, "spill_threshold": 1500},
        "greedy_match": {"scale": 0.8},
        "stack_match": {"scale": 0.25},
        "serve_closed": {"scale": 0.12, "events": 560},
        "serve_open": {"scale": 0.12, "events": 250, "rate": 50.0},
    },
}


@dataclasses.dataclass
class Outcome:
    """What one run produced, judged against the oracle."""

    edges: int
    attempted: int
    failed: int
    failures: List[str]
    #: Per-event latencies in seconds; empty for a batch workload,
    #: whose one operation is the run itself.
    latencies: List[float]
    #: Fingerprint of the result; equal across repeats of one seed.
    digest: str
    #: Workload facts the per-layer report wants (never timed).
    facts: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _digest(rows: Sequence[Any]) -> str:
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(repr(row).encode("utf-8"))
    return hasher.hexdigest()[:16]


def _renaming(names, rng: random.Random) -> Dict[str, str]:
    ordered = sorted(names)
    shuffled = list(ordered)
    rng.shuffle(shuffled)
    return dict(zip(ordered, shuffled))


class Workload:
    """Common scaffolding: corpus, renaming, runtime, set-up timings."""

    name = "abstract"
    size_key = "abstract"

    def __init__(self, size: str, seed: int, tracer: Any = None) -> None:
        self.params = SIZES[size][self.size_key]
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.setup_seconds: Dict[str, float] = {}
        self.runtime: Optional[MapReduceRuntime] = None

    @contextlib.contextmanager
    def _timed(self, name: str):
        started = time.perf_counter()
        yield
        self.setup_seconds[name] = (
            self.setup_seconds.get(name, 0.0)
            + time.perf_counter() - started
        )

    def _corpus(self):
        with self._timed("datasets.generate_s"):
            return load_dataset(
                CORPUS, seed=CORPUS_SEED, scale=self.params["scale"]
            )

    def runtime_args(self) -> Dict[str, Any]:
        """What this workload's runtime has beyond the 4×4 task layout
        on the serial backend and the memory filesystem."""
        return {}

    def _runtime(self) -> MapReduceRuntime:
        return MapReduceRuntime(
            num_map_tasks=MAP_TASKS,
            num_reduce_tasks=REDUCE_TASKS,
            tracer=self.tracer,
            **self.runtime_args(),
        )

    def _instance(self, dataset) -> Tuple[List[Tuple], Dict, Dict]:
        """Problem 1 on the corpus under its canonical names, weights
        made tie-free: ``(edge rows, item caps, consumer caps)``."""
        with self._timed("graph.build_s"):
            rows = [
                (item, consumer, weight + (rank + 1) * WEIGHT_JITTER)
                for rank, (item, consumer, weight) in enumerate(
                    dataset.edges(SIGMA)
                )
            ]
            return (rows, *dataset.capacities(ALPHA))

    def _renamed(
        self, rows, item_caps, consumer_caps
    ) -> Tuple[BipartiteGraph, Dict[str, str]]:
        """The instance under this seed's renaming, and the renaming."""
        with self._timed("graph.build_s"):
            names = _renaming(item_caps, self.rng)
            names.update(_renaming(consumer_caps, self.rng))
            graph = BipartiteGraph.from_edges(
                ((names[t], names[c], w) for t, c, w in rows),
                {names[node]: cap for node, cap in item_caps.items()},
                {names[node]: cap for node, cap in consumer_caps.items()},
            )
        return graph, names

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def outcome(self, output: Any) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.executor.close()


# -- similarity join -----------------------------------------------------------


class JoinMem(Workload):
    """The paper's graph-building step, everything in memory."""

    name = "join_mem"
    size_key = "join"

    def setup(self) -> None:
        dataset = self._corpus()
        item_names = _renaming(dataset.items, self.rng)
        consumer_names = _renaming(dataset.consumers, self.rng)
        self.items = {
            item_names[doc]: vector for doc, vector in dataset.items.items()
        }
        self.consumers = {
            consumer_names[doc]: vector
            for doc, vector in dataset.consumers.items()
        }
        self.expected = exact_similarity_join(
            self.items, self.consumers, SIGMA
        )
        self.runtime = self._runtime()
        # One tiny job per stage: spawns and connects the backend's
        # workers and touches every code path before the clock starts.
        item, vector = next(iter(self.items.items()))
        mr_join.mapreduce_similarity_join(
            {item: vector}, {"warm-up": vector}, SIGMA, runtime=self.runtime
        )

    def run(self) -> Any:
        return mr_join.mapreduce_similarity_join(
            self.items, self.consumers, SIGMA, runtime=self.runtime
        )

    def outcome(self, rows: Any) -> Outcome:
        failures: List[str] = []
        expected = self.expected
        if [row[:2] for row in rows] != [row[:2] for row in expected]:
            failures.append(
                f"join pairs differ from exact_similarity_join "
                f"({len(rows)} rows vs {len(expected)})"
            )
        elif not all(
            # The MapReduce join sums per-term products in shuffle
            # order, the oracle in dict order: equal up to the last ulp.
            math.isclose(got[2], want[2], rel_tol=1e-9)
            for got, want in zip(rows, expected)
        ):
            failures.append("join weights differ from exact_similarity_join")
        return Outcome(
            edges=len(rows),
            attempted=1,
            failed=1 if failures else 0,
            failures=failures,
            latencies=[],
            digest=_digest(rows),
            facts={
                "documents": len(self.items) + len(self.consumers),
                "output_edges": len(rows),
            },
        )


class JoinSpill(JoinMem):
    """Same join, datasets on disk and the shuffle sorted and spilled."""

    name = "join_spill"

    def runtime_args(self) -> Dict[str, Any]:
        return {
            "storage": "disk",
            "spill_threshold": self.params["spill_threshold"],
        }


class JoinCluster(JoinMem):
    """Same join on one worker daemon over a localhost socket.

    One worker, not the two the box has cores for: with two, the run
    needs both virtual CPUs at full speed at once, and on the reference
    box that is bimodal (1.3 s or 1.7 s, each mode lasting minutes —
    the task seconds themselves change, so it is the host placing the
    two CPUs).  With one, either the driver or the worker is busy at
    any instant, and ``wall_s`` minus ``join_mem``'s is the wire tax
    with no parallel speed-up mixed in.
    """

    name = "join_cluster"

    def runtime_args(self) -> Dict[str, Any]:
        return {"backend": "cluster", "max_workers": 1}


# -- matching ------------------------------------------------------------------


class GreedyMatch(Workload):
    """GreedyMR on the delta plane: many short frontier rounds."""

    name = "greedy_match"
    size_key = "greedy_match"

    def setup(self) -> None:
        self.graph, _ = self._renamed(*self._instance(self._corpus()))
        self.expected = sorted(greedy_b_matching(self.graph).matching.edges())
        self.runtime = self._runtime()

    def run(self) -> Any:
        return greedy_mr.greedy_mr_b_matching(self.graph, runtime=self.runtime)

    def outcome(self, result: Any) -> Outcome:
        edges = sorted(result.matching.edges())
        failures = (
            []
            if edges == self.expected
            else ["GreedyMR matching differs from sequential greedy"]
        )
        return _match_outcome(self.graph, result, edges, failures)


class StackMatch(Workload):
    """StackGreedyMR: few heavy scans over the whole resident state.

    The marking strategy is ``"greedy"`` rather than the default
    ``"uniform"``: uniform marking makes the job count a random
    variable (30–41 jobs over ten renamings of one graph, measured),
    which cannot be held inside any bound; greedy marking runs the same
    stages and the same scans with a job count that repeats.
    """

    name = "stack_match"
    size_key = "stack_match"
    epsilon = 1.0

    def setup(self) -> None:
        self.graph, _ = self._renamed(*self._instance(self._corpus()))
        self.runtime = self._runtime()

    def run(self) -> Any:
        return stack_mr.stack_mr_b_matching(
            self.graph,
            epsilon=self.epsilon,
            strategy="greedy",
            runtime=self.runtime,
        )

    def outcome(self, result: Any) -> Outcome:
        edges = sorted(result.matching.edges())
        failures: List[str] = []
        report = result.violations(self.graph.capacities())
        if report.max_violation_ratio > self.epsilon:
            failures.append(
                f"StackMR exceeds (1+eps) capacities: max violation "
                f"{report.max_violation_ratio:.3f}"
            )
        if any(
            not self.graph.has_edge(u, v) or self.graph.weight(u, v) != w
            for u, v, w in edges
        ):
            failures.append("StackMR matched an edge the graph lacks")
        outcome = _match_outcome(self.graph, result, edges, failures)
        outcome.facts["max_violation"] = report.max_violation_ratio
        return outcome


def _match_outcome(graph, result, edges, failures) -> Outcome:
    return Outcome(
        edges=graph.num_edges,
        attempted=1,
        failed=1 if failures else 0,
        failures=failures,
        latencies=[],
        digest=_digest(edges),
        facts={
            "rounds": result.rounds,
            "value": result.value,
            "max_violation": 0.0,
        },
    )


# -- serving -------------------------------------------------------------------


def _rename_event(event: Any, names: Dict[str, str]) -> Any:
    changes: Dict[str, Any] = {}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if field.name in ("node", "u", "v"):
            changes[field.name] = names.get(value, value)
        elif field.name == "edges":
            changes["edges"] = tuple(
                (names.get(neighbor, neighbor), weight)
                for neighbor, weight in value
            )
    return dataclasses.replace(event, **changes)


class ServeClosed(Workload):
    """Saturation: eight callers, each waiting for its reply.

    Closed loop, 8 clients, ``max_batch=8``: every flush is a full
    batch of the same eight events, so jobs and shuffled records repeat
    exactly and ``events_per_s`` is the engine's capacity.  Latencies
    here include waiting for the seven batchmates by construction.
    """

    name = "serve_closed"
    size_key = "serve_closed"
    max_batch = 8
    max_delay = 0.02
    clients = 8

    def setup(self) -> None:
        instance = self._instance(self._corpus())
        graph, names = self._renamed(*instance)
        with self._timed("graph.build_s"):
            canonical = BipartiteGraph.from_edges(*instance)
        # The stream is generated against the canonical names and then
        # renamed with the graph, so the Zipf ranks hit the same
        # (renamed) nodes under every seed.
        stream, _ = zipf_events(
            canonical, self.params["events"], seed=EVENT_SEED, skew=1.1
        )
        self.events = [_rename_event(event, names) for event in stream]
        final = plain_graph(graph)
        for event in self.events:
            apply_event(final, event)
        self.expected = sorted(greedy_b_matching(final).matching.edges())
        self.graph_edges = graph.num_edges
        self.runtime = self._runtime()
        self.matcher = OnlineMatcher(runtime=self.runtime, graph=graph)

    async def _drive(self, service: MatchingService) -> loadgen.LoadResult:
        return await loadgen.closed_loop(
            service.submit_event, self.events, self.clients
        )

    def run(self) -> Any:
        async def stream() -> loadgen.LoadResult:
            service = MatchingService(
                self.matcher,
                max_batch=self.max_batch,
                max_delay=self.max_delay,
            )
            result = await self._drive(service)
            await service.drain()
            return result

        return asyncio.run(stream())

    def outcome(self, result: Any) -> Outcome:
        failures: List[str] = []
        failed = 0
        for sample, event in zip(result.samples, self.events):
            reason = None
            if sample.error is not None:
                reason = f"raised {sample.error!r}"
            elif any(event is bad for bad, _ in sample.reply.rejected):
                reason = "was rejected"
            elif sample.reply.dead_lettered:
                reason = "shared a flush with a dead-lettered event"
            if reason is not None:
                failed += 1
                failures.append(f"event {sample.index} {reason}")
        matched = self.matcher.matching_edges()
        if matched != self.expected:
            failed = len(self.events)
            failures.append(
                "served matching differs from a cold batch on the "
                "final graph"
            )
        answered = [s for s in result.samples if s.error is None]
        return Outcome(
            edges=self.graph_edges,
            attempted=len(self.events),
            failed=failed,
            failures=failures[:10],
            latencies=[sample.latency for sample in result.samples],
            digest=_digest(matched),
            facts={
                "lag_ms_p95": 1000.0 * loadgen.tail_latency(
                    [sample.lag for sample in result.samples]
                )[0],
                "backlog_max": result.backlog_max,
                "queue_wait_ms_p50": 1000.0 * statistics.median(
                    sample.latency - sample.reply.seconds
                    for sample in answered
                ) if answered else 0.0,
                "stream_wall_s": result.wall_seconds,
            },
        )

    def close(self) -> None:
        self.matcher.close()
        super().close()


class ServeOpen(ServeClosed):
    """Independent users: events sent on a schedule, timed from due.

    Open loop at a fixed rate, ``max_batch=5``: a flush starts with
    every fifth arrival (the ``max_delay`` timer is only a safety net
    and never fires on schedule), so which events share a flush — and
    with it the job and record counts — does not depend on timing.
    Latency is batching wait + queueing + flush.  The rate leaves the
    service ~60 % busy and the slowest flush (≈ 85 ms) well inside the
    100 ms between flushes; with four to a batch at this rate (80 ms)
    the slowest flushes filled their slot, and a box running a tenth
    slower queued the next batch behind them.  Five to a batch also
    puts the median event in the middle of a batch (the third to
    arrive), not on the gap between two arrivals.
    """

    name = "serve_open"
    size_key = "serve_open"
    max_batch = 5
    max_delay = 1.0

    async def _drive(self, service: MatchingService) -> loadgen.LoadResult:
        return await loadgen.open_loop(
            service.submit_event, self.events, self.params["rate"]
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        JoinMem, JoinSpill, JoinCluster,
        GreedyMatch, StackMatch,
        ServeClosed, ServeOpen,
    )
}
