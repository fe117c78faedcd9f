"""In-memory spans for the traced benchmark run.

A span is one call into a layer: its name, start and end on the
``perf_counter`` clock, the span that was open when it began (its
parent), and the workload unit it served. Spans are kept in a list and
written out once the run ends; nothing touches the disk while a
traced pass is being timed.

The program under test is single-threaded during a run (the campaign
scheduler drives its serial backend on one event loop), so a plain
stack gives every span its parent.

A span's *self time* is its duration minus the part of its interval
that its child spans cover. Every instant inside a root span is
therefore attributed to exactly one span, which is what lets the
per-layer report add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    """One recorded call: ``parent`` is an index into the span list (-1 for a root)."""

    name: str
    start: float
    end: float
    parent: int
    unit: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters; ``unit`` tags every span begun while set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.unit = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.unit))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Optional[Callable[["Recorder", tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``on_call`` sees its positional args and result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "spans": [asdict(span) for span in self.spans],
            "counts": dict(self.counts),
        }


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus its children's.

    :meth:`Recorder.end` enforces strict nesting, so children never overlap.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
