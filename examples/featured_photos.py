"""Featured-photos scenario: the paper's flickr use case, end to end.

Pipeline (all pieces from the public API):

1. generate a synthetic flickr-like corpus (photos with tags, users
   with tag profiles, favorites, posting activity);
2. compute candidate edges with the MapReduce similarity join (§5.1);
3. derive budgets with the §4 formulas: ``b(u) = α·n(u)`` for users and
   favorites-proportional capacities for photos;
4. match photos to users with GreedyMR and StackMR, and compare
   quality, rounds, and capacity violations;
5. go *live*: keep the matching warm through the online service while
   photos arrive, scores change, budgets retune, and users leave.

Run:  python examples/featured_photos.py
"""

import asyncio

from repro.datasets import flickr_dataset
from repro.graph import BipartiteGraph
from repro.mapreduce import MapReduceRuntime
from repro.matching import (
    deliveries_by_consumer,
    greedy_mr_b_matching,
    stack_mr_b_matching,
)
from repro.service import MatchingService, OnlineMatcher
from repro.simjoin import mapreduce_similarity_join
from repro.telemetry.loadgen import zipf_events

SIGMA = 3.0  # minimum tag-overlap score for a candidate edge
ALPHA = 2.0  # system activity multiplier


def main(
    num_photos: int = 400, num_users: int = 80, live_events: int = 40
) -> None:
    dataset = flickr_dataset(
        "flickr-demo", num_photos=num_photos, num_users=num_users, seed=42
    )
    print(
        f"corpus: {dataset.num_items} photos, "
        f"{dataset.num_consumers} users"
    )

    # -- candidate edges via the 3-job MapReduce similarity join ------
    runtime = MapReduceRuntime(num_map_tasks=8, num_reduce_tasks=8)
    edges = mapreduce_similarity_join(
        dataset.items, dataset.consumers, SIGMA, runtime=runtime
    )
    shuffled = runtime.counters.get("runtime", "shuffle.records")
    print(
        f"similarity join: {len(edges)} edges >= {SIGMA} "
        f"({runtime.jobs_executed} jobs, {shuffled:,} records shuffled)"
    )

    # -- budgets per §4 ------------------------------------------------
    item_caps, consumer_caps = dataset.capacities(ALPHA)
    graph = BipartiteGraph.from_edges(edges, item_caps, consumer_caps)

    # -- matching --------------------------------------------------------
    greedy = greedy_mr_b_matching(graph)
    stack = stack_mr_b_matching(graph, epsilon=1.0, seed=7)
    capacities = graph.capacities()
    for result in (greedy, stack):
        report = result.violations(capacities)
        print(
            f"\n{result.algorithm}: value={result.value:,.0f} "
            f"edges={len(result.matching)} "
            f"mr_jobs={result.mr_jobs} "
            f"avg_violation={report.average_violation:.4f}"
        )
    print(
        f"\nGreedyMR/StackMR value ratio: "
        f"{greedy.value / stack.value:.3f} "
        "(paper: 1.11-1.31 depending on dataset)"
    )
    if stack.dual_upper_bound:
        print(
            "certified optimality gap (GreedyMR vs dual bound): "
            f">= {greedy.value / stack.dual_upper_bound:.1%} of optimum"
        )

    # -- §4's subscription-restricted variant --------------------------------
    # Instead of thresholding similarities, restrict candidates to
    # photos by producers the user follows.
    sub_graph = dataset.subscription_graph(alpha=ALPHA)
    sub_result = greedy_mr_b_matching(sub_graph)
    print(
        f"\nsubscription-only variant: {sub_graph.num_edges} candidate "
        f"edges (vs {graph.num_edges} thresholded), GreedyMR value "
        f"{sub_result.value:,.0f}"
    )

    # -- what one user sees -------------------------------------------------
    user = max(consumer_caps, key=consumer_caps.get)
    feed = deliveries_by_consumer(graph, greedy.matching).get(user, [])
    print(
        f"\nfeatured feed for {user} "
        f"(budget {consumer_caps[user]}): "
        + ", ".join(f"{item}({weight:.0f})" for item, weight in feed[:8])
    )

    # -- live mode: the feed stays warm as the site churns ---------------
    # The batch answer above is the bootstrap; from here the online
    # service admits uploads / re-scores / budget retunes / departures
    # in micro-batches and re-decides only what each batch can reach.
    events, _ = zipf_events(
        graph, live_events, seed=42, node_prefix="upload"
    )

    async def live():
        async with MatchingService(
            OnlineMatcher(graph=graph), max_batch=8, max_delay=0.02
        ) as service:
            await asyncio.gather(
                *(service.submit_event(event) for event in events)
            )
            snap = await service.snapshot()
            identical, _ = service.matcher.verify()
        return snap, service.metrics(), identical

    snap, metrics, identical = asyncio.run(live())
    print(
        f"\nlive mode: {metrics['events_admitted']:.0f} events in "
        f"{metrics['batches_flushed']:.0f} flushes "
        f"(coalescing x{metrics['coalescing_ratio']:.1f}), "
        f"p95 re-convergence {metrics['latency_p95_ms']:.0f}ms"
    )
    print(
        f"live matching: {snap['matched_edges']} edges, "
        f"value {snap['value']:,.0f} — cold-batch check "
        + ("identical" if identical else "MISMATCH")
    )


if __name__ == "__main__":
    main()
