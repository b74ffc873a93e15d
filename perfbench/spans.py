"""Host-time spans and counts recorded by the benchmark itself.

The traced run wraps every call it makes into the stack in a
``perf_counter`` span (name, start, end, parent, run id) and records the
counts those calls return. Nothing inside ``src/repro`` is instrumented:
every per-layer number is measured from outside the program.

Spans live in memory and are written out once, when the run ends. The
untraced run uses :data:`NULL_RECORDER`, whose ``span`` hands back one
shared no-op context manager, so the timed code path stays the same.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    """One timed call; ``parent`` indexes the enclosing span (or None)."""

    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans plus per-segment counts for one run.

    A *segment* is a top-level span: the runner opens one ``setup``
    segment and one ``sweep`` segment per traced sweep. Counts are
    attributed to the segment open when they are recorded, so a count
    and a span time taken in the same sweep can be divided.
    """

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to ``name`` in the open segment."""
        if not self._stack:
            raise RuntimeError(f"count {name!r} recorded outside a segment")
        segment = self.counts.setdefault(self._stack[0], {})
        segment[name] = segment.get(name, 0.0) + value

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run_id": self.run_id,
            "spans": [asdict(span) for span in self.spans],
            "counts": [
                {"segment": index, "name": self.spans[index].name,
                 "counts": counts}
                for index, counts in sorted(self.counts.items())
            ],
        }
        path.write_text(json.dumps(document, indent=1) + "\n")


class _NullRecorder:
    """Tracing off: no spans, no counts, no clock reads."""

    enabled = False
    _context = nullcontext()

    def span(self, name: str):
        return self._context

    def count(self, name: str, value: float) -> None:
        pass


NULL_RECORDER = _NullRecorder()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so a child is never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


def per_rotation(
    spans: list[Span], values: list[float] | None = None,
    rotations: float = 1.0,
) -> dict[str, float]:
    """Per span name: its total in set-up plus its sweep total per rotation.

    Spans under the top-level ``setup`` span count once. Spans under
    sweep spans are summed and divided by ``rotations``, the number of
    times the traced sweeps covered the workload. ``values`` defaults
    to span durations; pass :func:`self_times` to sum self time instead.
    """
    if values is None:
        values = [span.duration for span in spans]
    roots: list[int] = []
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        roots.append(index if span.parent is None else roots[span.parent])
        if span.parent is None:
            continue
        weight = 1.0 if spans[roots[index]].name == "setup" else 1 / rotations
        totals[span.name] = totals.get(span.name, 0.0) + values[index] * weight
    return totals


def counts_per_rotation(rec: SpanRecorder, rotations: float) -> dict[str, float]:
    """Counts like :func:`per_rotation`: set-up once, sweeps per rotation."""
    totals: dict[str, float] = {}
    for segment, counts in rec.counts.items():
        setup = rec.spans[segment].name == "setup"
        weight = 1.0 if setup else 1 / rotations
        for name, value in counts.items():
            totals[name] = totals.get(name, 0.0) + value * weight
    return totals
