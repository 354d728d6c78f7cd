"""In-memory span recording around calls into the package's modules.

A span is one call of a wrapped function: its name, start and end on
the recorder's clock (CPU time of the process by default), the index of the span that was open when it
started, and the id of the benchmark operation it belongs to. Wrappers
are installed as attributes in the namespaces where callers look the
functions up (``selector.sad_nearest`` as well as
``gopcodec.sad_nearest``), and removed again when the ``installed``
block exits. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class SpanRecorder:
    """Collects spans and per-name counts for one traced run."""

    def __init__(self, clock=time.process_time):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._clock = clock

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recorded as span ``name``.

        ``counter`` is an optional ``(count_name, f)`` pair; ``f`` gets the
        call's arguments and returns an amount to add to that count.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.count(counter[0], counter[1](*args, **kwargs))
            span = Span(name, self._clock(), 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()

        return wrapper


@contextmanager
def installed(recorder: SpanRecorder, targets):
    """Replace each ``(owner, attribute, span_name[, counter])`` target.

    ``owner`` is a module or a class. Originals come back on exit, also
    when the block raises.
    """
    saved = []
    try:
        for owner, attr, name, *counter in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr,
                    recorder.wrap(name, original, counter[0] if counter else None))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        inside = [(max(s, span.start), min(e, span.end))
                  for s, e in children.get(i, ()) if e > span.start and s < span.end]
        out.append((span.end - span.start) - covered(inside))
    return out


def has_ancestor(spans: list[Span], index: int, names) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return out
