"""Question-routing scenario: the paper's Yahoo! Answers use case.

Open questions must reach users likely to answer them.  Users are
profiled by the tf·idf vector of their past answers; questions get
uniform budgets ``b(q) = Σ_u α·n(u) / |Q|`` (§6).  The example also
shows the raw text pipeline: tokenize -> stop words -> stem -> tf·idf.

The closing section goes live: questions keep arriving while the
routing stays warm through the online matching service.

Run:  python examples/question_routing.py
"""

import asyncio

from repro.datasets import yahoo_answers_dataset
from repro.matching import greedy_mr_b_matching, solve
from repro.service import MatchingService, OnlineMatcher
from repro.telemetry.loadgen import zipf_events
from repro.text import (
    TfIdfModel,
    from_counts,
    remove_stop_words,
    stem,
    tokenize,
)

ALPHA = 1.0
SIGMA = 3.0


def text_pipeline_demo() -> None:
    """The §6 preprocessing chain on a real sentence."""
    raw = "How do I optimize my MapReduce jobs for matching problems?"
    tokens = remove_stop_words(tokenize(raw))
    stems = [stem(token) for token in tokens]
    print(f"raw:    {raw}")
    print(f"tokens: {tokens}")
    print(f"stems:  {stems}")
    model = TfIdfModel.fit([from_counts(stems)])
    print(f"tf-idf: {model.transform(from_counts(stems))}\n")


def main(
    num_questions: int = 300, num_users: int = 60, live_events: int = 30
) -> None:
    text_pipeline_demo()

    dataset = yahoo_answers_dataset(
        "ya-demo", num_questions=num_questions, num_users=num_users, seed=9
    )
    graph = dataset.graph(sigma=SIGMA, alpha=ALPHA)
    question_budget = graph.capacity(graph.items()[0])
    print(
        f"{dataset.num_items} open questions, "
        f"{dataset.num_consumers} answerers, "
        f"{graph.num_edges} candidate pairs at sigma={SIGMA}; "
        f"every question budget b(q)={question_budget}"
    )

    result = greedy_mr_b_matching(graph)
    print(
        f"\nGreedyMR routed {len(result.matching)} question-user pairs "
        f"(total relevance {result.value:,.1f}, "
        f"{result.rounds} MapReduce rounds)"
    )

    # Which questions reached a full audience?
    fully_served = sum(
        1
        for question in graph.items()
        if result.matching.degree(question) >= question_budget
    )
    print(
        f"questions at full budget: {fully_served}/{dataset.num_items}"
    )

    # Compare against the exact optimum on this instance.
    optimum = solve(graph, "exact_flow")
    print(
        f"exact optimum: {optimum.value:,.1f} "
        f"(GreedyMR at {result.value / optimum.value:.1%}, "
        "guarantee is 50%)"
    )

    # Sample assignment for one busy answerer.
    busiest = max(
        graph.consumers(), key=lambda user: result.matching.degree(user)
    )
    questions = [
        key[0] if key[0].startswith("t") else key[1]
        for key in result.matching
        if busiest in key
    ]
    print(
        f"\nuser {busiest} receives {len(questions)} questions, e.g. "
        + ", ".join(sorted(questions)[:6])
    )

    # -- live mode: new questions arrive, the routing stays warm ---------
    events, _ = zipf_events(
        graph, live_events, seed=9, node_prefix="question"
    )

    async def live():
        async with MatchingService(
            OnlineMatcher(graph=graph), max_batch=6, max_delay=0.02
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
        f"(coalescing x{metrics['coalescing_ratio']:.1f}); routing "
        f"value {snap['value']:,.1f} — cold-batch check "
        + ("identical" if identical else "MISMATCH")
    )


if __name__ == "__main__":
    main()
