"""Spans recorded by the benchmark around its calls into each layer.

The ladder replays a request's layers one call at a time, so a span's
parent is not on the call stack when the span runs: ids are handed out up
front (:meth:`Recorder.new_id`) and a child names the id its parent *will*
record under. A span's self time is its duration minus the durations of
the spans that name it as parent, so over one request the self times of a
rung and everything below it add up to the rung's duration by construction.
Spans stay in memory until :meth:`Recorder.write`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    request: int
    layer: str
    name: str
    start_ns: int
    end_ns: int

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, request: int, layer: str, name: str,
             parent: Optional[int] = None,
             span_id: Optional[int] = None) -> Iterator[None]:
        """Time the body as one span; a body that raises records nothing."""
        if span_id is None:
            span_id = self.new_id()
        start = time.perf_counter_ns()
        yield
        end = time.perf_counter_ns()
        self.spans.append(Span(span_id, parent, request, layer, name,
                               start, end))

    def drop_request(self, request: int) -> None:
        """Forget a request whose ladder failed part-way."""
        self.spans = [span for span in self.spans if span.request != request]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def durations_ms(spans: List[Span]) -> Dict[str, List[float]]:
    """Span durations grouped by ``layer.name``."""
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span.key, []).append(span.ms)
    return grouped


def self_times_ms(spans: List[Span]) -> Dict[str, List[float]]:
    """Self times grouped by ``layer.name``, for spans that have children.

    A replayed child can run slower than it did inside its parent, so a
    thin layer's self time can come out slightly negative; it is reported
    as measured here and floored where a metric is derived from it.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.ms
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        if span.id in covered:
            grouped.setdefault(span.key, []).append(span.ms - covered[span.id])
    return grouped
