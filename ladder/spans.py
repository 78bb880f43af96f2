"""In-memory span recorder of the ladder benchmark.

The benchmark wraps every call it makes into a layer's public function
in ``tracer.span(name)``.  Untraced runs use the same code path with
the recorder switched off, so the difference between a traced and an
untraced run of one phase *is* the tracing overhead.  Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_start", "_parent")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack
        self._parent = stack[-1] if stack else None
        stack.append(len(tracer.spans))
        # reserve the slot so children can name this span as parent
        tracer.spans.append(None)
        self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.spans[tracer._stack.pop()] = (
            self._name, self._start, end, self._parent, tracer.round_id)


class Tracer:
    """Records ``(name, start, end, parent, round)`` spans when enabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: Identifier shared by every span of one round of one phase.
        self.round_id: str | None = None
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    #: Column names of :meth:`rows`.
    FIELDS = ("id", "name", "start", "end", "parent", "round")

    def rows(self) -> list[list]:
        """Finished spans as ``FIELDS`` rows; ``id`` is the list position."""
        return [[index, *span]
                for index, span in enumerate(self.spans) if span is not None]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total time, and time not in children."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out.setdefault(span[0],
                                   {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span[2] - span[1]
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(index, 0.0)
        return out
