"""Every MapReduce round loop runs on ``IterativeDriver.iterate``.

GreedyMR, StackMR's push phase, the maximal subroutine and the serving
flush each open one ``round:<name>:<n>`` span per round, count
``<name>.rounds`` as many times as the rounds they report, and raise
``RoundLimitExceeded`` under their own name when their cap is hit.
"""

import random

import pytest

from repro.graph import random_graph
from repro.mapreduce import RoundLimitExceeded
from repro.matching import (
    greedy_mr_b_matching,
    maximal_mr,
    stack_mr,
    stack_mr_b_matching,
)
from repro.matching.maximal_mr import (
    mm_records_from_adjacency,
    mr_maximal_b_matching,
)
from repro.service import OnlineMatcher
from repro.telemetry import Tracer
from repro.telemetry.loadgen import zipf_events


def _graph():
    # Three StackMR layers at ε = 0.25 and three maximal rounds.
    return random_graph(16, 0.4, rng=random.Random(2), max_capacity=3)


def _traced(runtime):
    runtime.tracer = Tracer()
    return runtime.tracer


def _round_spans(tracer, name):
    prefix = f"round:{name}:"
    return [
        span
        for span in tracer.spans
        if span.kind == "round" and span.name.startswith(prefix)
    ]


def _assert_one_span_per_round(tracer, name, rounds):
    assert rounds > 0
    assert [span.name for span in _round_spans(tracer, name)] == [
        f"round:{name}:{n}" for n in range(rounds)
    ]


def test_greedy_mr_rounds(runtime):
    tracer = _traced(runtime)
    result = greedy_mr_b_matching(_graph(), runtime=runtime)
    _assert_one_span_per_round(tracer, "greedy-mr", result.rounds)
    assert runtime.counters.get("greedy-mr", "rounds") == result.rounds


def test_maximal_subroutine_rounds(runtime):
    tracer = _traced(runtime)
    graph = _graph()
    records = mm_records_from_adjacency(
        graph.adjacency_copy(), graph.capacities()
    )
    _, rounds = mr_maximal_b_matching(records, runtime, seed=1)
    _assert_one_span_per_round(tracer, "mr-maximal-b-matching", rounds)
    assert runtime.counters.get("mr-maximal-b-matching", "rounds") == rounds
    # Four stage jobs per round, each nested under its round span.
    by_id = {span.span_id: span for span in tracer.spans}
    jobs = [span for span in tracer.spans if span.kind == "job"]
    assert len(jobs) == 4 * rounds
    assert all(by_id[job.parent_id].kind == "round" for job in jobs)


def test_stack_mr_push_rounds_nest_the_maximal_rounds(runtime):
    tracer = _traced(runtime)
    result = stack_mr_b_matching(
        _graph(), epsilon=0.25, seed=1, runtime=runtime
    )
    assert result.layers >= 2
    _assert_one_span_per_round(tracer, "stack-mr-push", result.layers)
    assert runtime.counters.get("stack-mr-push", "rounds") == result.layers
    assert result.rounds == 2 * result.layers
    inner = _round_spans(tracer, "mr-maximal-b-matching")
    assert len(inner) > result.layers
    assert (
        runtime.counters.get("mr-maximal-b-matching", "rounds")
        == len(inner)
    )
    pushes = {span.span_id for span in _round_spans(tracer, "stack-mr-push")}
    assert all(span.parent_id in pushes for span in inner)
    # Every push round holds its own inner loop, numbered from 0.
    for push in pushes:
        numbers = [
            int(span.name.rsplit(":", 1)[1])
            for span in inner
            if span.parent_id == push
        ]
        assert numbers == list(range(len(numbers))) and numbers


def test_serving_flush_rounds_nest_under_reconverge(runtime):
    graph = _graph()
    events, _ = zipf_events(graph, 24, seed=3)
    with OnlineMatcher(runtime=runtime, graph=graph) as matcher:
        bootstrap = runtime.counters.get("service", "bootstrap.rounds")
        assert runtime.counters.get("online-matching", "rounds") == bootstrap
        total = bootstrap
        for start in range(0, len(events), 6):
            tracer = _traced(runtime)
            report = matcher.flush(list(events[start : start + 6]))
            total += report.rounds
            assert runtime.counters.get("online-matching", "rounds") == total
            spans = _round_spans(tracer, "online-matching")
            assert [span.name for span in spans] == [
                f"round:online-matching:{n}" for n in range(report.rounds)
            ]
            by_id = {span.span_id: span for span in tracer.spans}
            assert all(
                by_id[span.parent_id].name == "reconverge" for span in spans
            )
        assert total > bootstrap  # some flush ran rounds


def test_stack_mr_push_cap_names_its_loop(runtime, monkeypatch):
    monkeypatch.setattr(stack_mr, "MAX_PUSH_ROUNDS", 1)
    with pytest.raises(RoundLimitExceeded) as excinfo:
        stack_mr_b_matching(_graph(), epsilon=0.25, seed=1, runtime=runtime)
    assert excinfo.value.name == "stack-mr-push"
    assert excinfo.value.max_rounds == 1


def test_maximal_cap_names_its_loop(runtime, monkeypatch):
    monkeypatch.setattr(maximal_mr, "MAX_ROUNDS", 1)
    graph = _graph()
    records = mm_records_from_adjacency(
        graph.adjacency_copy(), graph.capacities()
    )
    with pytest.raises(RoundLimitExceeded) as excinfo:
        mr_maximal_b_matching(records, runtime, seed=1)
    assert excinfo.value.name == "mr-maximal-b-matching"
    assert excinfo.value.max_rounds == 1
    assert runtime.counters.get("mr-maximal-b-matching", "rounds") == 1
