"""Lightweight tracing: span trees over jobs, phases, tasks, flushes.

A :class:`Tracer` records a tree of :class:`Span` objects — ``round →
job → phase → task`` on the batch plane, ``flush → admit → reconverge
→ round`` on the serving plane — with parent ids, wall-clock
durations, and free-form attributes.  The tree is exported as a JSON
span log per run (``--trace PATH`` on the CLI) and rendered back as an
indented timing tree by ``repro trace <span-log.json>``.

Design constraints, in order:

* **Zero cost when off.**  The runtime's tracer defaults to ``None``
  and every instrumentation site guards on it; no span objects, no
  clock reads, no per-task timing wrappers unless a tracer is attached.
* **Backend-agnostic.**  Per-task durations are measured by wrapping
  the picklable task callables (see ``_timed_call`` in the runtime), so
  the same span shapes come back from the serial, process, and
  cluster executors.  Span construction itself happens driver-side only — the
  tracer is never shipped to workers.
* **No global state.**  A tracer is an ordinary object handed to the
  runtime; two runtimes can trace independently in one process.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "load_spans", "render_spans"]

_FORMAT_VERSION = 1


@dataclass
class Span:
    """One timed node in the trace tree."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    start: Optional[float] = None
    end: Optional[float] = None
    duration: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> Optional[float]:
        """Wall-clock duration: explicit for leaf records, measured
        start→end for context-managed spans, ``None`` while open."""
        if self.duration is not None:
            return self.duration
        if self.start is not None and self.end is not None:
            return self.end - self.start
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            name=payload["name"],
            kind=payload.get("kind", "span"),
            start=payload.get("start"),
            end=payload.get("end"),
            duration=payload.get("duration"),
            attrs=dict(payload.get("attrs", {})),
        )


class Tracer:
    """Collects a span tree for one run.

    Use :meth:`span` as a context manager around timed regions;
    :meth:`record` for leaf spans whose duration was measured elsewhere
    (per-task seconds returned from an executor).  Parentage follows
    the stack of open spans, so nesting falls out of call structure.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 1
        self._stack: List[int] = []

    def _current_parent(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs: Any) -> Iterator[Span]:
        """Open a timed span; closes (records ``end``) on exit."""
        node = Span(
            span_id=self._next_id,
            parent_id=self._current_parent(),
            name=name,
            kind=kind,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(node)
        self._stack.append(node.span_id)
        try:
            yield node
        finally:
            node.end = time.perf_counter()
            self._stack.pop()

    def record(
        self, name: str, kind: str = "task", seconds: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Append a leaf span with an externally measured duration."""
        node = Span(
            span_id=self._next_id,
            parent_id=self._current_parent(),
            name=name,
            kind=kind,
            duration=seconds,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(node)
        return node

    def export(self, path: str) -> int:
        """Write the span log as JSON; returns the span count."""
        payload = {
            "version": _FORMAT_VERSION,
            "spans": [span.to_dict() for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        return len(self.spans)


def load_spans(path: str) -> List[Span]:
    """Read a span log written by :meth:`Tracer.export`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported span log version: {version!r}")
    return [Span.from_dict(entry) for entry in payload.get("spans", [])]


def render_spans(spans: List[Span], max_tasks_per_parent: int = 4) -> str:
    """Render a span list as an indented timing tree.

    Task-kind leaves are elided past ``max_tasks_per_parent`` per
    parent (a 64-split map phase should not print 64 lines); the elided
    remainder is summarized with its aggregate seconds.
    """
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.span_id)

    lines: List[str] = []

    def describe(span: Span) -> str:
        seconds = span.seconds
        timing = f"{seconds * 1000:.2f}ms" if seconds is not None else "open"
        attrs = ""
        if span.attrs:
            rendered = " ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            attrs = f"  [{rendered}]"
        return f"{span.name} ({span.kind}) {timing}{attrs}"

    def walk(parent: Optional[int], depth: int) -> None:
        siblings = children.get(parent, [])
        tasks = [s for s in siblings if s.kind == "task"]
        shown_tasks = set(
            id(s) for s in tasks[:max_tasks_per_parent]
        ) if len(tasks) > max_tasks_per_parent else set(id(s) for s in tasks)
        elided = [s for s in tasks if id(s) not in shown_tasks]
        for span in siblings:
            if span.kind == "task" and id(span) not in shown_tasks:
                continue
            lines.append("  " * depth + describe(span))
            walk(span.span_id, depth + 1)
        if elided:
            total = sum(s.seconds or 0.0 for s in elided)
            lines.append(
                "  " * depth
                + f"... {len(elided)} more tasks ({total * 1000:.2f}ms total)"
            )

    walk(None, 0)
    return "\n".join(lines)
