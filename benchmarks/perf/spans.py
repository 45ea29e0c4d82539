"""The harness's own span log: one record per call into a layer.

Spans are recorded here, in the benchmark's files, around the public calls
the harness makes (spans inside ``src/`` are a later change). Each span
names the per-layer metric it feeds, so a layer's number is its spans' *self
time*: duration minus the part of that interval its child spans cover.
Durations the program reports itself (``ExecutionResult.operators``,
``ParallelMetrics.worker_seconds``, a served reply's ``stats``) enter as
child spans through :meth:`Recorder.add`, marked ``reported``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["Span", "Recorder", "Off", "self_times", "to_chrome"]


@dataclass
class Span:
    span_id: int
    layer: str
    start: float
    end: float
    parent: Optional[int]
    tid: int
    #: Repetition the span belongs to; None for one-shot layer timings.
    rep: Optional[int]
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.rep: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, **args: Any):
        stack = self._stack()
        span = Span(
            next(self._ids), layer, time.perf_counter(), 0.0,
            stack[-1].span_id if stack else None, threading.get_ident(), self.rep, args,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def add(self, layer: str, start: float, seconds: float, parent: Span, **args: Any) -> Span:
        """Record a duration the program reported, as a child of ``parent``."""
        span = Span(
            next(self._ids), layer, start, start + seconds, parent.span_id, parent.tid,
            parent.rep, dict(args, reported=True),
        )
        self.spans.append(span)
        return span


class Off:
    """Recorder stand-in for the untraced run: records nothing."""

    rep: Optional[int] = None

    def span(self, layer: str, **args: Any):
        return contextlib.nullcontext()

    def add(self, *args: Any, **kwargs: Any) -> None:
        return None


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> seconds of its interval that no child span covers."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span.span_id] = max(0.0, span.seconds - covered)
    return out


def to_chrome(spans: Iterable[Span]) -> List[dict]:
    """Chrome/Perfetto ``X`` events (passes ``validate_chrome_trace``)."""
    spans = sorted(spans, key=lambda s: s.start)
    if not spans:
        return []
    origin = spans[0].start
    tids: Dict[int, int] = {}
    pid = os.getpid()
    events = []
    for span in spans:
        args = dict(span.args, span_id=span.span_id)
        if span.parent is not None:
            args["parent_id"] = span.parent
        if span.rep is not None:
            args["rep"] = span.rep
        events.append({
            "name": span.layer,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(max(0.0, span.seconds) * 1e6, 3),
            "pid": pid,
            "tid": tids.setdefault(span.tid, len(tids)),
            "args": args,
        })
    return events
