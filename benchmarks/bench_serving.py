"""Serving benchmark: incremental re-convergence vs cold re-batching.

Bootstraps the online matching service from a flickr-small Problem-1
instance, then streams a seeded synthetic event workload through the
asyncio facade's micro-batching and records the numbers to
``benchmarks/BENCH_serving.json``:

* **serving meters** — coalescing ratio (events per flush),
  p50/p95/p99 re-convergence latency, flush rate, and event
  throughput, straight from the service's always-on counters;
* the **shuffle ratio** the CI smoke gates on: total records a
  batch-only system would shuffle re-running cold GreedyMR after every
  admitted event (the freshness the service actually provides — every
  ``submit_event`` resolves with a converged state), divided by the
  records the service's coalesced incremental re-convergences shuffled.
  Like the BENCH_matching gate, both sides are pure functions of the
  seeded workload — no wall-clock in the gate — so the tolerance only
  absorbs deliberate protocol changes, never scheduler jitter;
* a **locality ratio** diagnostic: cold batch per *micro-batch* over
  incremental — the part of the shuffle ratio that is not coalescing.
  It read 1.0 while a flush re-ran every touched connected component
  (on a similarity graph, the giant one); with the matcher's repair
  plan it measures how much less than the whole graph a batch reaches.

Before anything is recorded, the incremental matching is asserted
bit-identical to a cold batch on the final graph (the service's
correctness anchor) — a benchmark of a wrong answer is worthless.

Usage::

    python benchmarks/bench_serving.py             # full run
    python benchmarks/bench_serving.py --quick     # CI smoke scale
    python benchmarks/bench_serving.py --write     # update JSON
    python benchmarks/bench_serving.py --quick --check-regression
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Dict

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # runnable without an installed package
    sys.path.insert(0, REPO_SRC)

from repro.datasets import load_dataset  # noqa: E402
from repro.mapreduce import Counters, MapReduceRuntime  # noqa: E402
from repro.matching import greedy_mr_b_matching  # noqa: E402
from repro.service import (  # noqa: E402
    MatchingService,
    OnlineMatcher,
    apply_event,
    plain_graph,
    synthetic_events,
)

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_serving.json"
)


def _cold_batch_shuffled(graph) -> int:
    """Records a cold GreedyMR batch on ``graph`` shuffles."""
    runtime = MapReduceRuntime(counters=Counters())
    greedy_mr_b_matching(graph, runtime=runtime)
    return runtime.counters.get("runtime", "shuffle.records")


def bench_serving(
    scale: float, sigma: float, events: int, batch: int, seed: int
) -> Dict:
    dataset = load_dataset("flickr-small", seed=1, scale=scale)
    graph = dataset.graph(sigma=sigma, alpha=2.0)
    stream, _ = synthetic_events(graph, events, seed=seed)

    runtime = MapReduceRuntime(counters=Counters())
    matcher = OnlineMatcher(runtime=runtime, graph=graph)
    after_bootstrap = runtime.counters.get("runtime", "shuffle.records")
    service = MatchingService(matcher, max_batch=batch, max_delay=0.5)

    async def drive():
        async with service:
            await asyncio.gather(
                *(service.submit_event(event) for event in stream)
            )
            identical, cold_value = matcher.verify()
            final_edges = matcher.matching_edges()
        return identical, cold_value, final_edges

    identical, cold_value, final_edges = asyncio.run(drive())
    assert identical, (
        "incremental re-convergence diverged from the cold batch — "
        "refusing to record a benchmark of a wrong answer"
    )
    metrics = service.metrics()
    incremental_shuffled = (
        runtime.counters.get("runtime", "shuffle.records")
        - after_bootstrap
    )

    # The gate's counterfactual: a cold GreedyMR batch after *every*
    # event — what a batch-only system must run to match the service's
    # read-your-writes freshness.  The locality diagnostic replays the
    # service's own flush boundaries instead (cold batch per
    # micro-batch), isolating repair locality from coalescing.
    mirror = plain_graph(graph)
    cold_per_event_shuffled = 0
    cold_per_batch_shuffled = 0
    for index, event in enumerate(stream):
        apply_event(mirror, event)
        cold_per_event_shuffled += _cold_batch_shuffled(mirror)
        if (index + 1) % batch == 0 or index + 1 == len(stream):
            cold_per_batch_shuffled += _cold_batch_shuffled(mirror)

    return {
        "workload": "flickr-small live stream (greedy_mr serving)",
        "scale": scale,
        "sigma": sigma,
        "seed": seed,
        "events": events,
        "batch_size": batch,
        "nodes": len(graph.capacities()),
        "edges": graph.num_edges,
        "matched_edges": len(final_edges),
        "matching_value": round(cold_value, 2),
        "batches_flushed": int(metrics["batches_flushed"]),
        "coalescing_ratio": round(metrics["coalescing_ratio"], 2),
        "reconverge_rounds": int(metrics["reconverge_rounds"]),
        "latency_p50_ms": round(metrics["latency_p50_ms"], 3),
        "latency_p95_ms": round(metrics["latency_p95_ms"], 3),
        "latency_p99_ms": round(metrics["latency_p99_ms"], 3),
        "throughput_events_per_s": round(
            metrics["throughput_events_per_s"], 1
        ),
        "flushes_per_sec": round(metrics["flushes_per_sec"], 2),
        "incremental_shuffled_records": incremental_shuffled,
        "cold_per_event_shuffled_records": cold_per_event_shuffled,
        "cold_per_batch_shuffled_records": cold_per_batch_shuffled,
        "shuffle_ratio": round(
            cold_per_event_shuffled / max(1, incremental_shuffled), 2
        ),
        "locality_ratio": round(
            cold_per_batch_shuffled / max(1, incremental_shuffled), 2
        ),
    }


def check_regression(
    results: Dict, key: str, tolerance: float = 0.10
) -> int:
    """Exit 1 when the serving shuffle ratio dropped > tolerance."""
    if not os.path.exists(BENCH_JSON):
        print(f"no committed baseline at {BENCH_JSON}; nothing to check")
        return 0
    with open(BENCH_JSON, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    baseline = committed.get(key, {}).get("shuffle_ratio")
    if not baseline:
        print(f"committed baseline has no {key} shuffle_ratio; skipping")
        return 0
    measured = results[key]["shuffle_ratio"]
    floor = baseline * (1.0 - tolerance)
    print(
        f"regression check: incremental serving shuffles "
        f"{measured:.2f}x fewer records than cold re-batching vs "
        f"committed {baseline:.2f}x (floor {floor:.2f}x); "
        f"p95 latency {results[key]['latency_p95_ms']:.1f}ms for "
        "reference"
    )
    if measured < floor:
        print(
            "FAIL: incremental re-convergence shuffles more than the "
            f"committed baseline allows (>{tolerance:.0%} drop)"
        )
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller graph and stream (the CI smoke configuration)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--sigma", type=float, default=2.0)
    parser.add_argument("--events", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"update {os.path.basename(BENCH_JSON)} with the results",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="compare against the committed JSON; exit 1 on >10% "
        "shuffle-ratio regression (deterministic, no wall-clock)",
    )
    args = parser.parse_args(argv)
    scale = args.scale or (0.08 if args.quick else 0.25)
    events = args.events or (40 if args.quick else 160)

    key = "serving_quick" if args.quick else "serving"
    row = bench_serving(
        scale, args.sigma, events, args.batch_size, args.seed
    )
    results = {key: row}
    print(
        f"serving: {row['events']} events in {row['batches_flushed']} "
        f"flushes (coalescing x{row['coalescing_ratio']:.1f}), "
        f"p50 {row['latency_p50_ms']:.1f}ms / "
        f"p95 {row['latency_p95_ms']:.1f}ms / "
        f"p99 {row['latency_p99_ms']:.1f}ms, "
        f"{row['throughput_events_per_s']:,.0f} ev/s"
    )
    print(
        f"{'':9s}shuffle: cold-per-event "
        f"{row['cold_per_event_shuffled_records']} records vs "
        f"incremental {row['incremental_shuffled_records']} "
        f"({row['shuffle_ratio']:.2f}x; locality "
        f"{row['locality_ratio']:.2f}x)"
    )
    if args.write:
        recorded: Dict = {}
        if os.path.exists(BENCH_JSON):
            try:
                with open(BENCH_JSON, "r", encoding="utf-8") as handle:
                    recorded = json.load(handle)
            except ValueError:
                recorded = {}
        recorded.update(results)
        with open(BENCH_JSON, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-> {BENCH_JSON}")
    if args.check_regression:
        return check_regression(results, key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
