"""In-memory span recorder for the benchmark's traced runs.

A span covers one call from the benchmark into a layer of the library: its
name ("<module>.<function>"), start and end on the monotonic clock, the span
that was open when it started (its parent), and the request it served.
Spans stay in a list until the run ends and are then written out as JSON.

Self time is what per-layer metrics are built from: a span's duration minus
the part of its interval covered by its child spans. Summed over every span,
self time accounts for exactly the time spent inside traced calls; whatever is
left of the measured wall time is the untraced remainder (benchmark code,
checks and interpreter overhead between calls).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the recorder's list
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; one instance per traced run."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.request: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        # Reserve the slot first so children can name it as parent.
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.request))
        self._open.append(idx)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, self.request)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)},
                fh,
                separators=(",", ":"),
            )


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    enabled = False
    request = None

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        pass


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = s.duration - _covered(children.get(i, []), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def traced_total(spans: list[Span]) -> float:
    """Wall time inside top-level spans (equal to the sum of all self times)."""
    return sum(s.duration for s in spans if s.parent is None)
