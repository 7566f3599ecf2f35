"""Span bookkeeping: self time, parentage across threads, wrapping."""

import threading
import types

import pytest

from spans import Span, SpanRecorder, layer_self_seconds


def _span(span_id, parent, layer, start, end):
    node = Span(span_id, parent, 1, f"{layer}.x", layer, start=start)
    node.end = end
    return node


def test_self_time_is_span_minus_children_on_a_synthetic_tree():
    #  root  0 ........................ 10
    #    a     1 ........ 5                  (child of root)
    #      b      2 .. 3                     (child of a)
    #    c                  6 ... 8          (child of root)
    root = _span(1, None, "bench", 0.0, 10.0)
    spans = [
        root,
        _span(2, 1, "alpha", 1.0, 5.0),
        _span(3, 2, "beta", 2.0, 3.0),
        _span(4, 1, "gamma", 6.0, 8.0),
    ]
    assert layer_self_seconds(spans, root) == pytest.approx(
        {"bench": 4.0, "alpha": 3.0, "beta": 1.0, "gamma": 2.0}
    )


def test_layers_sum_to_the_root_even_when_threads_overlap():
    # Two worker-thread spans of one layer overlap from 2 to 4: the
    # overlap is charged once, so the layers still add up to the root.
    root = _span(1, None, "bench", 0.0, 6.0)
    spans = [
        root,
        _span(2, 1, "executors", 1.0, 5.0),
        _span(3, 2, "cluster", 1.5, 4.0),
        _span(4, 2, "cluster", 2.0, 4.5),
    ]
    totals = layer_self_seconds(spans, root)
    assert totals == pytest.approx(
        {"bench": 2.0, "executors": 1.0, "cluster": 3.0}
    )
    assert sum(totals.values()) == pytest.approx(root.duration)


def test_leaf_records_and_spans_outside_the_root_take_no_time():
    root = _span(2, None, "bench", 10.0, 12.0)
    before = _span(1, None, "setup", 0.0, 9.0)
    leaf = Span(3, 2, 2, "map-0", "executors", seconds=5.0)
    assert layer_self_seconds([before, root, leaf], root) == pytest.approx(
        {"bench": 2.0}
    )


def test_recorder_speaks_the_runtime_tracer_protocol():
    recorder = SpanRecorder(lambda name, kind: f"layer-of-{kind}")
    with recorder.span("job:x", kind="job") as job:
        with recorder.span("phase:map", kind="phase", tasks=2) as phase:
            task = recorder.record("map-0", kind="task", seconds=0.25)
    assert [s.layer for s in recorder.spans] == [
        "layer-of-job", "layer-of-phase", "layer-of-task",
    ]
    assert phase.parent_id == job.span_id
    assert task.parent_id == phase.span_id and task.duration == 0.25
    assert phase.attrs == {"tasks": 2}
    assert {s.trace_id for s in recorder.spans} == {job.span_id}
    assert job.end >= phase.end >= phase.start >= job.start


def test_worker_thread_spans_hang_under_the_open_dispatch():
    recorder = SpanRecorder()
    seen = []

    def worker():
        with recorder.span("recv", layer="cluster") as node:
            seen.append(node)

    with recorder.span("run_tasks", layer="executors") as dispatch:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen[0].parent_id == dispatch.span_id
    assert seen[0].trace_id == dispatch.trace_id


def test_wrap_records_a_span_with_the_attributes_on_return_gives():
    module = types.SimpleNamespace()

    def send(payload):
        return len(payload)

    module.__dict__["send"] = send
    recorder = SpanRecorder()
    recorder.wrap(
        module, "send", "cluster",
        on_return=lambda result, payload: {"bytes": result},
    )
    assert module.send(b"abcd") == 4
    (node,) = recorder.spans
    assert (node.name, node.layer, node.attrs) == (
        "cluster.send", "cluster", {"bytes": 4},
    )
    assert module.send.__wrapped__ is send


def test_new_trace_gives_each_flush_its_own_trace_id():
    recorder = SpanRecorder()
    with recorder.span("root", layer="bench") as root:
        with recorder.span("flush", layer="service", new_trace=True) as one:
            with recorder.span("job", layer="runtime") as job:
                pass
        with recorder.span("flush", layer="service", new_trace=True) as two:
            pass
    assert one.trace_id != two.trace_id != root.trace_id
    assert job.trace_id == one.trace_id and one.parent_id == root.span_id
