"""The chaos checker that ``repro chaos`` and the tests share: a run
under a :class:`~repro.mapreduce.faults.FaultPlan` must equal the
fault-free run (:func:`observe`), or, when served, a cold batch
(:meth:`~repro.service.OnlineMatcher.verify`).  A run that injected
nothing fails too (:attr:`ChaosRun.passed`): chaos that cannot fail
proves nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence

from .graph import Graph
from .mapreduce import (
    FaultPlan,
    MapReduceRuntime,
    RetryPolicy,
    strip_volatile_counters,
)
from .matching import solve
from .service import OnlineMatcher
from .telemetry.loadgen import zipf_events

__all__ = ["ChaosRun", "chaos", "chaos_graph", "observe", "runtime_chaos"]

Workload = Callable[[MapReduceRuntime], Iterable]


@dataclass(frozen=True)
class ChaosRun:
    """One faulted run and its runtime's ``faults`` counter group."""

    half: str  # "runtime" or "service"
    seed: int
    identical: bool
    faults: Dict[str, int]

    @property
    def injected(self) -> int:
        return self.faults.get("injected_total", 0)

    @property
    def passed(self) -> bool:
        return self.identical and self.injected > 0


def chaos_graph(nodes: int = 12, seed: int = 0) -> Graph:
    """``nodes`` items + ``nodes`` consumers, three edges per item:
    small, but GreedyMR needs several rounds."""
    rng = random.Random(seed)
    graph = Graph()
    items = [f"i{k}" for k in range(nodes)]
    consumers = [f"c{k}" for k in range(nodes)]
    for node in items + consumers:
        graph.add_node(node, rng.randint(1, 3))
    for u in items:
        for v in rng.sample(consumers, min(3, len(consumers))):
            graph.add_edge(u, v, round(rng.uniform(0.1, 5.0), 3))
    return graph


def observe(runtime: MapReduceRuntime, workload: Workload) -> tuple:
    """Everything the determinism contract covers, for one run: a
    read/write burst through the (possibly faulty) filesystem, then
    ``workload``, which returns its output in a canonical order."""
    reads = []
    for index in range(8):
        path = f"/chaos/dataset-{index}"
        runtime.filesystem.write(
            path, [(k, k * index) for k in range(4)], overwrite=True
        )
        reads.append(runtime.filesystem.read(path))
    return (
        reads,
        list(workload(runtime)),
        list(runtime.job_log),
        strip_volatile_counters(runtime.counters.snapshot()),
    )


def runtime_chaos(
    make_runtime: Callable[..., MapReduceRuntime],
    plans: Sequence[FaultPlan],
    workload: Workload,
    policy: RetryPolicy,
) -> Iterator[ChaosRun]:
    """Observe ``workload`` on a fresh runtime fault-free
    (``make_runtime(retry_policy=None)``), then once per plan
    (``make_runtime(retry_policy=policy, fault_plan=plan)``)."""
    baseline = observe(make_runtime(retry_policy=None), workload)
    for plan in plans:
        runtime = make_runtime(retry_policy=policy, fault_plan=plan)
        identical = observe(runtime, workload) == baseline
        faults = runtime.counters.group("faults")
        yield ChaosRun("runtime", plan.seed, identical, faults)


def chaos(
    make_runtime: Callable[..., MapReduceRuntime],
    plans: Sequence[FaultPlan],
    policy: RetryPolicy,
    nodes: int,
    seed: int,
    events: int,
) -> Iterator[ChaosRun]:
    """GreedyMR on :func:`chaos_graph` once per plan, then ``events``
    Zipf events served in batches of 8 once per plan."""
    graph = chaos_graph(nodes, seed)

    def greedy(runtime: MapReduceRuntime) -> List:
        result = solve(graph, "greedy_mr", runtime=runtime)
        return sorted(result.matching.edges())

    yield from runtime_chaos(make_runtime, plans, greedy, policy)
    stream, _ = zipf_events(graph, events, seed=seed)
    for plan in plans:
        runtime = make_runtime(retry_policy=policy, fault_plan=plan)
        with OnlineMatcher(runtime=runtime, graph=graph) as matcher:
            for start in range(0, len(stream), 8):
                matcher.flush(stream[start : start + 8])
            identical, _ = matcher.verify()
            faults = runtime.counters.group("faults")
        yield ChaosRun("service", plan.seed, identical, faults)
