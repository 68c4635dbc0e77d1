"""In-memory span tracing for the traced benchmark run.

The benchmark records spans around its calls into each layer and, for
the traced run only, wraps public entry points of the program from here
(:meth:`Tracer.patched`), restoring them afterwards.  Spans stay in
memory and are written as JSONL once the run ends; nothing here is
active in the untraced runs that give the end-to-end metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Tracer:
    """Nested spans: name, start, end, parent span and run/request id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()   # per-thread stack of open spans
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, run: Any = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if run is None and parent is not None:
            run = self.spans[parent]["run"]
        with self._lock:
            record = {"id": len(self.spans), "name": name,
                      "start": time.perf_counter(), "end": None,
                      "parent": parent,
                      "run": run}
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def _wrapped(self, func: Callable, name: str) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self, targets: Iterable[Tuple[Any, str, str]]):
        """Wrap ``owner.attr`` in a span named ``name`` for each target.

        ``owner`` is a class or module; class methods stay class
        methods.  A function re-exported into several modules is listed
        once per module that calls it.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                static = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, static))
                if isinstance(static, classmethod):
                    patched = classmethod(self._wrapped(static.__func__, name))
                else:
                    patched = self._wrapped(static, name)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, static in reversed(saved):
                setattr(owner, attr, static)

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"]))
    out = {}
    for record in spans:
        start, end = record["start"], record["end"]
        covered = union_length([(max(s, start), min(e, end))
                                for s, e in children.get(record["id"], ())
                                if min(e, end) > max(s, start)])
        out[record["id"]] = (end - start) - covered
    return out
