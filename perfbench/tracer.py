"""In-memory span recorder used by the traced benchmark runs.

Spans are recorded from the benchmark's side of each call into a layer's
public function; nothing inside the package is instrumented. A layer's self
time is its span minus the time covered by its direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Collects spans and exact work counts for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self._stack: List[int] = []
        self.request: Optional[int] = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].child_time += span.end - span.start

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call; ``count(tracer, args, result)``
        records exact work counts after the span has closed."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> Counter:
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.self_time
        return totals

    def dump(self, path) -> None:
        records = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request}
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(records, handle)
