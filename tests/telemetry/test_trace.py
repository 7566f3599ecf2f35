"""Span trees: nesting, JSON round-trips, rendering, runtime wiring."""

import pytest

from repro.mapreduce import Counters, MapReduceRuntime
from repro.telemetry import Span, Tracer, load_spans, render_spans

from ..mapreduce.test_state import CountDown
from .test_metrics import _Rollup


def test_span_nesting_follows_the_stack():
    tracer = Tracer()
    with tracer.span("job:x", kind="job"):
        with tracer.span("phase:map", kind="phase", tasks=2):
            tracer.record("map-0", seconds=0.25)
            tracer.record("map-1", seconds=0.75)
        with tracer.span("phase:reduce", kind="phase"):
            pass
    job, map_phase, task0, task1, reduce_phase = tracer.spans
    assert job.parent_id is None
    assert map_phase.parent_id == job.span_id
    assert task0.parent_id == task1.parent_id == map_phase.span_id
    assert reduce_phase.parent_id == job.span_id
    assert map_phase.attrs == {"tasks": 2}
    assert task0.seconds == 0.25
    assert job.seconds is not None and job.seconds >= 0


def test_span_stack_recovers_from_exceptions():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    # Both spans were closed on the way out; new spans are root-level.
    assert all(span.end is not None for span in tracer.spans)
    with tracer.span("after"):
        pass
    assert tracer.spans[-1].parent_id is None


def test_export_load_roundtrip(tmp_path):
    tracer = Tracer()
    with tracer.span("job", kind="job", mode="scan"):
        tracer.record("map-0", seconds=0.001, records=10)
    path = str(tmp_path / "spans.json")
    assert tracer.export(path) == 2
    loaded = load_spans(path)
    assert [span.to_dict() for span in loaded] == [
        span.to_dict() for span in tracer.spans
    ]


def test_load_rejects_unknown_versions(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "spans": []}')
    with pytest.raises(ValueError, match="version"):
        load_spans(str(path))


def test_render_elides_task_floods():
    tracer = Tracer()
    with tracer.span("phase:map", kind="phase"):
        for index in range(10):
            tracer.record(f"map-{index}", seconds=0.001)
    text = render_spans(tracer.spans, max_tasks_per_parent=3)
    assert "map-0 (task) 1.00ms" in text
    assert "map-2" in text and "map-3" not in text
    assert "... 7 more tasks (7.00ms total)" in text
    # Children indent under their parent.
    assert "\n  map-0" in text


def test_render_marks_open_spans():
    text = render_spans([Span(span_id=1, parent_id=None, name="x", kind="job")])
    assert text == "x (job) open"


def _plain_job(runtime, data):
    list(runtime.run_iter(_Rollup(), data))


def _scan_round(runtime, data):
    store = runtime.state_store("trace")
    store.load(data)
    runtime.run_stateful(CountDown(), store, scan=True)


def _frontier_round(runtime, data):
    store = runtime.state_store("trace")
    store.load(data)
    # One changed record: only its partition receives a message.
    runtime.run_stateful(CountDown(), store, deltas=data[:1])


@pytest.mark.parametrize(
    "run, job_name, mode, reduce_tasks",
    [
        (_plain_job, "job:_Rollup", None, 2),
        (_scan_round, "job:count-down", "scan", 2),
        (_frontier_round, "job:count-down", "frontier", 1),
    ],
    ids=["plain", "scan", "frontier"],
)
def test_runtime_emits_job_phase_task_spans(run, job_name, mode, reduce_tasks):
    """Plain jobs and both stateful modes emit the same span tree; a
    stateful job span names its mode, and a frontier round dispatches
    only the partitions that received messages."""
    tracer = Tracer()
    runtime = MapReduceRuntime(
        num_map_tasks=2,
        num_reduce_tasks=2,
        counters=Counters(),
        tracer=tracer,
    )
    run(runtime, [(f"r{index}", 4) for index in range(8)])
    kinds = {}
    for span in tracer.spans:
        kinds.setdefault(span.kind, []).append(span)
    assert [span.name for span in kinds["job"]] == [job_name]
    assert kinds["job"][0].attrs.get("mode") == mode
    assert {span.name for span in kinds["phase"]} == {
        "phase:map",
        "phase:shuffle",
        "phase:reduce",
    }
    # Per-task spans carry executor-measured seconds and hang off the
    # right phase.
    job = kinds["job"][0]
    by_id = {span.span_id: span for span in tracer.spans}
    for task in kinds["task"]:
        assert task.seconds is not None and task.seconds >= 0
        assert by_id[task.parent_id].kind == "phase"
        assert by_id[by_id[task.parent_id].parent_id] is job
    assert len([s for s in kinds["task"] if s.name.startswith("map-")]) == 2
    reduces = [s for s in kinds["task"] if s.name.startswith("reduce-")]
    assert len(reduces) == reduce_tasks
    (reduce_phase,) = [s for s in kinds["phase"] if s.name == "phase:reduce"]
    assert reduce_phase.attrs == {"tasks": reduce_tasks}


def test_untraced_runtime_records_nothing():
    runtime = MapReduceRuntime(
        num_map_tasks=2, num_reduce_tasks=2, counters=Counters()
    )
    assert runtime.tracer is None
    data = [(f"r{index}", 4) for index in range(8)]
    list(runtime.run_iter(_Rollup(), data))  # no tracer, no error
