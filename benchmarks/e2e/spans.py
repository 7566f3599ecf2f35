"""Spans recorded from outside the program, for the traced pass only.

A :class:`SpanRecorder` is handed to ``MapReduceRuntime(tracer=...)``
(it speaks the runtime's ``span`` / ``record`` tracer protocol, so the
job → phase → task and flush → admit → reconverge spans the runtime
already emits land in the same tree) and additionally *wraps public
callables at layer boundaries* — never per-record functions — so the
layers the runtime does not meter (pipeline, filesystem, executors,
cluster frames, driver, state store, matchers) get spans too without a
single edit under ``src/``.

Spans stay in memory and are written as JSON lines (name, layer, start,
end, parent, trace id) when the run ends.  :func:`layer_self_seconds`
turns them into per-layer self time: every instant of the root span is
charged to the innermost span open at that instant, so the layers sum
to the root's wall-clock exactly — also when worker threads (cluster
serving threads, the service's flush thread) run spans concurrently.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "SpanRecorder", "layer_self_seconds"]


class Span:
    """One node of the trace tree.

    ``start``/``end`` are ``time.perf_counter`` readings; a *leaf
    record* (a task timed inside a worker, a load-generator event) has
    neither and carries only ``seconds``.
    """

    __slots__ = (
        "span_id", "parent_id", "trace_id", "name", "layer",
        "start", "end", "seconds", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        trace_id: int,
        name: str,
        layer: str,
        start: Optional[float] = None,
        seconds: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None
        self.seconds = seconds
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        if self.seconds is not None:
            return self.seconds
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "seconds": self.duration,
            "attrs": self.attrs,
        }


#: ``layer_of(name, kind)`` for spans opened through the runtime's
#: tracer protocol, which names a *kind* rather than a layer.
LayerOf = Callable[[str, str], str]


class SpanRecorder:
    """Collects spans from the runtime's tracer hooks and from wraps.

    Parentage follows a per-thread stack of open spans.  A span opened
    on a thread with no open span of its own (a cluster serving thread,
    the service's flush thread) hangs under the innermost span open on
    the thread that created the recorder — the dispatch it is part of.
    """

    def __init__(self, layer_of: Optional[LayerOf] = None) -> None:
        self.spans: List[Span] = []
        self._layer_of = layer_of or (lambda name, kind: kind)
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: List[Span] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(
        self,
        name: str,
        layer: str,
        new_trace: bool,
        start: Optional[float],
        seconds: Optional[float],
        attrs: Dict[str, Any],
    ) -> Span:
        stack = self._stack()
        if stack:
            parent: Optional[Span] = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            node = Span(
                span_id,
                parent.span_id if parent is not None else None,
                span_id
                if new_trace or parent is None
                else parent.trace_id,
                name,
                layer,
                start=start,
                seconds=seconds,
                attrs=attrs,
            )
            self.spans.append(node)
        return node

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        layer: Optional[str] = None,
        new_trace: bool = False,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a timed span (also the runtime's ``tracer.span``)."""
        node = self._new(
            name,
            layer or self._layer_of(name, kind),
            new_trace,
            time.perf_counter(),
            None,
            attrs,
        )
        stack = self._stack()
        stack.append(node)
        try:
            yield node
        finally:
            node.end = time.perf_counter()
            stack.pop()

    def record(
        self,
        name: str,
        kind: str = "task",
        seconds: Optional[float] = None,
        layer: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Append a leaf whose duration was measured elsewhere (also
        the runtime's ``tracer.record`` for per-task seconds)."""
        return self._new(
            name,
            layer or self._layer_of(name, kind),
            False,
            None,
            seconds or 0.0,
            attrs,
        )

    # -- wrapping public callables ----------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_return: Optional[Callable[..., Dict[str, Any]]] = None,
        new_trace: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a method on a
        class) with a version that runs inside a ``layer.attr`` span.

        ``on_return(result, *args, **kwargs)`` may return attributes to
        attach (byte counts, record counts); it runs inside the span.
        The wrap lasts as long as the process: a traced run is one.
        """
        original = owner.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: not a plain function")
        name = f"{layer}.{attr}"

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer=layer, new_trace=new_trace) as node:
                result = original(*args, **kwargs)
                if on_return is not None:
                    node.attrs.update(on_return(result, *args, **kwargs))
                return result

        setattr(owner, attr, traced)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for node in self.spans:
                handle.write(json.dumps(node.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(self.spans)


def layer_self_seconds(spans: List[Span], root: Span) -> Dict[str, float]:
    """Self time per layer over the interval of ``root``.

    Self time of a span is its duration minus the part its children
    cover.  Computed as a sweep over span boundaries: each elementary
    interval inside ``root`` is charged to the span that *started last*
    among those open — the innermost one on a single thread, and one of
    the concurrent ones when worker threads overlap — so the result
    sums to ``root.duration`` exactly and concurrent spans of one layer
    are not double-counted.  Leaf records (no interval) take no part.
    """
    edges: List[Tuple[float, int, int, Span]] = []
    for order, node in enumerate(spans):
        if node.start is None or node.end is None:
            continue
        start = max(node.start, root.start)
        end = min(node.end, root.end)
        if end <= start and node is not root:
            continue
        # At equal times close before opening, so a zero-length gap is
        # never charged to a span that has already ended.
        edges.append((start, 1, order, node))
        edges.append((end, 0, order, node))
    edges.sort(key=lambda edge: (edge[0], edge[1], edge[2]))
    totals: Dict[str, float] = {}
    open_spans: Dict[int, Span] = {}
    previous = root.start
    for moment, opening, order, node in edges:
        if open_spans and moment > previous:
            innermost = open_spans[max(open_spans)]
            totals[innermost.layer] = (
                totals.get(innermost.layer, 0.0) + moment - previous
            )
        previous = moment
        if opening:
            open_spans[order] = node
        else:
            open_spans.pop(order, None)
    return totals
