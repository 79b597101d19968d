"""Harness-side spans around the public calls of a workload.

A span records its name, start, end, parent and the workload's trace
id, plus the garbage-collector pause time that fell inside it and not
inside a child span.  Spans stay in memory and are written out when the
workload ends.  ``NullTracer`` is the untraced run's stand-in: the same
call sites, no recording and no ``gc.callbacks`` hook.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        yield attrs

    def close(self) -> None:
        pass


class Tracer:
    """Records nested spans and books GC pauses to the innermost one."""

    enabled = True

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count()
        # One stack per thread: concurrent clients nest their own spans.
        self._local = threading.local()
        self._gc_started: Optional[float] = None
        #: GC pauses outside every span (set-up, harness bookkeeping).
        self.unattributed_gc_s = 0.0
        self.gen2_collections = 0
        gc.callbacks.append(self._on_gc)

    @property
    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            if info.get("generation") == 2:
                self.gen2_collections += 1
            return
        if self._gc_started is None:
            return
        pause = time.perf_counter() - self._gc_started
        self._gc_started = None
        if self._stack:
            top = self._stack[-1]
            top["gc_pause_s"] += pause
            if info.get("generation") == 2:
                top["gc_gen2"] += 1
        else:
            self.unattributed_gc_s += pause

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the enclosed block; callers may add attrs to the yield."""
        stack = self._stack
        record = {
            "trace_id": self.trace_id,
            "span_id": next(self._ids),
            "parent": stack[-1]["span_id"] if stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "gc_pause_s": 0.0,
            "gc_gen2": 0,
            "attrs": attrs,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def close(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- derived figures ---------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def gc_pause_s(self) -> float:
        return (sum(s["gc_pause_s"] for s in self.spans)
                + self.unattributed_gc_s)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus its children's."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["span_id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def gc_by_span(self) -> Dict[str, float]:
        """GC pause seconds booked to each span name."""
        out: Dict[str, float] = {}
        for s in self.spans:
            if s["gc_pause_s"]:
                out[s["name"]] = out.get(s["name"], 0.0) + s["gc_pause_s"]
        if self.unattributed_gc_s:
            out["(outside spans)"] = self.unattributed_gc_s
        return out
