"""Pinned reference implementations the production fast paths must match.

Every fast path in the stack replaced an obviously correct original
whose behaviour is the contract: the optimized code must reproduce it
bit for bit (results, architectural charges, register state, error
behaviour), not merely closely. The originals live here, outside the
modules they anchor, so production code carries only the fast path:

- :class:`ReferenceSimulator` — the one-pop-per-event loop the fast
  :class:`~repro.sim.kernel.Simulator` is pinned against
  (``tests/sim/test_engine_equivalence.py``);
- :class:`ReferenceRouter` — the O(N) replica scans the
  :class:`~repro.serving.routing.HeapRouter` is pinned against
  (``tests/serving/test_routing.py``); ``make_router("reference")``
  still selects it by name for the CI byte-compare runs;
- :func:`gemm_reference` — the per-tile VMM loop behind
  :meth:`~repro.engines.matrix.MatrixEngine.gemm`
  (``tests/engines/test_matrix_fastpath.py``);
- :func:`compress_rle_loop` / :func:`decompress_rle_loop` — the
  element-at-a-time RLE codec behind :mod:`repro.dma.sparse`
  (``tests/dma/test_sparse.py``);
- :func:`busy_time_reference` — the full-trace scan behind
  :meth:`~repro.sim.trace.Trace.busy_time` (``tests/sim/test_trace.py``).

Do not optimize anything in this module: its value is being obviously
identical to the historical behaviour. No production module imports it
(``tests/integration/test_oracle_isolation.py``).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.dma.sparse import CompressedTensor, SparseCodecError
from repro.engines.matrix import (
    MATRIX_REGISTER_ROWS,
    NUM_ACCUMULATION_REGISTERS,
    MatrixEngine,
    VmmPatternError,
)
from repro.serving.routing import FleetRouter, ReplicaStatus
from repro.sim.kernel import Event, Process, SimulationError
from repro.sim.trace import Trace

__all__ = [
    "ReferenceRouter",
    "ReferenceSimulator",
    "busy_time_reference",
    "compress_rle_loop",
    "decompress_rle_loop",
    "gemm_reference",
]


class ReferenceSimulator:
    """The original event loop: one ``heapq`` pop and one resume per event.

    It shares the waitable types (:class:`~repro.sim.kernel.Event`,
    :class:`~repro.sim.kernel.Timeout`, :class:`~repro.sim.kernel.AllOf`,
    :class:`~repro.sim.kernel.Process`, :class:`~repro.sim.kernel.Resource`)
    with the fast engine; what it pins is the *scheduling contract*
    (docs/sim-internals.md):

    - the event queue is a min-heap ordered by ``(time, sequence)`` where
      ``sequence`` is a per-simulator monotonic counter — ties at one
      timestamp resolve in scheduling order, never by object identity;
    - every wakeup is dispatched one at a time: pop the head, set ``now``,
      resume the target with its value;
    - ``run(until=...)`` stops the clock exactly at ``until`` and leaves
      later entries queued.

    Inject it where a simulator is taken, e.g.
    ``Accelerator(chip=dtu2_config(), sim=ReferenceSimulator())``.
    """

    #: engines report which core they are so traces can be labelled
    engine = "reference"

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list = []
        self._counter = itertools.count()
        #: events dispatched since construction (observability parity with
        #: the fast engine's dispatch accounting)
        self.events_dispatched: int = 0

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def spawn(self, generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        process = Process(self, generator, name=name)
        self._schedule(self.now, process, None)
        return process

    def timer(self, delay: float, value=None, name: str = "") -> Event:
        """An event that fires by itself ``delay`` ns from now.

        Mirrors :meth:`repro.sim.kernel.Simulator.timer` so processes
        written against the fast engine run unchanged here.
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        event = self.event(name=name or "timer")
        self._schedule(self.now + delay, event, value)
        return event

    def _schedule(self, when: float, target, value) -> None:
        if when < self.now:
            raise SimulationError(f"scheduling into the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, next(self._counter), target, value))

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; returns the final simulated time.

        ``until`` caps simulated time: events scheduled later stay queued
        and the clock stops exactly at ``until``.
        """
        while self._queue:
            when, _seq, target, value = self._queue[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            self.now = when
            self.events_dispatched += 1
            target._resume(value)
        if until is not None:
            self.now = max(self.now, until)
        return self.now


class ReferenceRouter(FleetRouter):
    """The original O(N) ``min()``/list-scan replica routing."""

    name = "reference"

    def rebuild(self, replicas: list) -> None:
        self._replicas = replicas

    def _active(self) -> list:
        return [
            replica for replica in self._replicas
            if replica.status is ReplicaStatus.ACTIVE
        ]

    def pick(self, now: float, excluded=frozenset()):
        candidates = [
            replica for replica in self._active()
            if replica.index not in excluded
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (max(r.free_at, now), r.index),
        )

    def earliest_start(self, now: float) -> float:
        return min(
            max(replica.free_at, now) for replica in self._active()
        )

    def active_count(self) -> int:
        return len(self._active())

    def standby(self):
        for replica in self._replicas:
            if replica.status is ReplicaStatus.STANDBY:
                return replica
        return None

    def drain_victim(self):
        active = self._active()
        if not active:
            return None
        return max(active, key=lambda replica: replica.index)

    def due_repair(self, now: float | None = None):
        due = [
            replica for replica in self._replicas
            if replica.status is ReplicaStatus.QUARANTINED
            and replica.repair_due_ns is not None
            and (now is None or replica.repair_due_ns <= now)
        ]
        if not due:
            return None
        return min(due, key=lambda r: (r.repair_due_ns, r.index))


def gemm_reference(
    engine: MatrixEngine,
    a: np.ndarray,
    b: np.ndarray,
    tile_rows: int | None = None,
) -> np.ndarray:
    """The original tile-loop GEMM on ``engine``: one VMM call per (row,
    column tile, K tile), charging and leaving register state exactly as
    the hardware sequence would."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise VmmPatternError(f"bad GEMM shapes {a.shape} x {b.shape}")
    m, k = a.shape
    _, n = b.shape
    lanes = engine.lanes
    tile_k = tile_rows or lanes
    tile_k = min(tile_k, lanes, MATRIX_REGISTER_ROWS)
    out = np.zeros((m, n), dtype=np.float64)
    for col0 in range(0, n, lanes):
        col1 = min(col0 + lanes, n)
        for row in range(m):
            acc_id = row % NUM_ACCUMULATION_REGISTERS
            engine.clear_accumulator(acc_id)
            for k0 in range(0, k, tile_k):
                k1 = min(k0 + tile_k, k)
                tile = np.zeros((tile_k, lanes), dtype=np.float64)
                tile[: k1 - k0, : col1 - col0] = b[k0:k1, col0:col1]
                vec = np.zeros(tile_k, dtype=np.float64)
                vec[: k1 - k0] = a[row, k0:k1]
                engine.load_matrix(0, tile)
                engine.vmm(vec, slot=0, acc=acc_id, accumulate=True)
            out[row, col0:col1] = engine.read_accumulator(acc_id)[: col1 - col0]
    return out


def compress_rle_loop(flat: np.ndarray) -> bytes:
    """Element-at-a-time RLE encoder: ``(zero_run: u16, value: f32)``
    records, runs capped at 0xFFFF, trailing zeros as ``(run-1, 0.0)``."""
    records_runs: list[int] = []
    records_values: list[float] = []
    run = 0
    for value in flat:
        if value == 0 and run < 0xFFFF:
            run += 1
            continue
        records_runs.append(run)
        records_values.append(float(value))
        run = 0
    # Trailing zeros: emit (run-1, 0.0) so decode reproduces them.
    if run:
        records_runs.append(run - 1)
        records_values.append(0.0)
    runs = np.asarray(records_runs, dtype=np.uint16)
    values = np.asarray(records_values, dtype=np.float32)
    return runs.tobytes() + values.tobytes()


def decompress_rle_loop(compressed: CompressedTensor) -> np.ndarray:
    """Record-at-a-time RLE decoder (flat, before the reshape)."""
    count = 1
    for extent in compressed.shape:
        count *= extent
    raw = compressed.payload
    if len(raw) % 6 != 0:
        raise SparseCodecError("RLE payload is not a whole number of records")
    records = len(raw) // 6
    runs = np.frombuffer(raw[: records * 2], dtype=np.uint16)
    values = np.frombuffer(raw[records * 2 :], dtype=np.float32)
    pieces: list[np.ndarray] = []
    for run, value in zip(runs, values):
        if run:
            pieces.append(np.zeros(int(run), dtype=np.float32))
        pieces.append(np.asarray([value], dtype=np.float32))
    flat = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.float32)
    if flat.size != count:
        raise SparseCodecError(
            f"RLE decodes to {flat.size} elements, shape wants {count}"
        )
    return flat


def busy_time_reference(
    trace: Trace, engine: str, start: float, end: float
) -> float:
    """The original full scan: clip every ``engine`` interval overlapping
    [start, end), sort, and merge left to right."""
    clipped = sorted(
        (max(interval.start, start), min(interval.end, end))
        for interval in trace.intervals
        if interval.engine == engine
        and interval.end > start
        and interval.start < end
    )
    busy = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            busy += hi - lo
            cursor = hi
    return busy
