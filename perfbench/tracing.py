"""In-memory spans recorded around the benchmark's calls into the package.

A span is one call into a public function, named ``<module>.<function>``
after the package module (the layer) that owns it; the command a call
belongs to is its parent span (``cli.<command>``) and probes are roots
(``probe.<what>``).  Spans stay in memory and are written out once, when
the benchmark ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from statistics import median
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self.spans[index]["end"] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a leaf span and return its result."""
        index = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index]["end"] = perf_counter()
            self._open.pop()

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(
            {"name": name, "start": perf_counter(), "end": None, "parent": parent, "run": self.run_id}
        )
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap: the benchmark calls the package
    from a single thread.
    """
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer, the part of a span name before its first dot."""
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def total_seconds(spans: list[dict], name: str, parent: str | None = None) -> float:
    """Summed duration of the spans called ``name`` (under a parent so named)."""
    return sum(duration(s) for s in _matching(spans, name, parent))


def median_call_us(spans: list[dict], name: str, parent: str | None = None) -> float:
    """Median duration of the spans called ``name``, in microseconds; 0 if none."""
    values = [duration(s) for s in _matching(spans, name, parent)]
    return median(values) * 1e6 if values else 0.0


def count(spans: list[dict], name: str) -> int:
    return sum(1 for _ in _matching(spans, name, None))


def _matching(spans, name, parent):
    for s in spans:
        if s["name"] != name:
            continue
        if parent is not None and (s["parent"] is None or spans[s["parent"]]["name"] != parent):
            continue
        yield s
