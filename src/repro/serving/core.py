"""The serving request loop shared by the inference server and the fleet.

:class:`~repro.serving.server.InferenceServer` (isolated and shared mode)
and :class:`~repro.serving.fleet.FleetManager` both replay a trace through
:func:`serve_requests`. For each request not yet batched, in arrival
order, it does:

1. **advance** the pool to the arrival (the fleet fires its due
   governor / autoscaler / SDC-screen ticks and repair probes here);
2. **capacity check** — if no slot can take traffic the arrival is shed
   ``no-capacity``;
3. **admission** — an :class:`~repro.serving.admission.AdmissionController`
   (bounded class queues, deadline-aware shedding, brownout) or else the
   flat per-tenant ``RasConfig.queue_depth_limit``;
4. **collect** the batch: later requests of the head's tenant and SLO
   class not yet batched, in arrival order, within the pool's window;
5. **serve** the batch (retries, failover, faults: all inside the pool);
6. **account** each member: deadline, served / failed counts, latencies,
   per-class stats and the queue depths admission reads.

The loop owns only those shared steps. A *pool* owns what really differs
— one tenant's group slice, the whole chip, or a replica fleet — behind a
duck-typed seam:

- ``advance(now)``, returning whether any slot can take traffic;
- ``earliest_start(now)``, ``admission_service_ns(request)`` and
  ``pressure_floor()`` — the predicted wait, the one-request service
  estimate and a floor under the backpressure signal (the fleet's power
  governor) that admission reads;
- ``batch_window(head)`` returning ``(horizon_ns, max_batch)``: the
  latest arrival that may join the head's batch and the batch cap; and
  ``fifo``: when true, the batch also closes at the first request of
  another tenant or class (a queue served strictly in order);
- ``serve(batch)`` returning ``(finish_ns, status)``;
- ``settle(request, finish_ns, ok, latency_ms)`` — per-member pool-side
  bookkeeping (the server's per-request records, the fleet autoscaler's
  latency window), called only when ``settles`` is true.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.routing import DepthView, PrunedFinishes
from repro.serving.workload import Request

__all__ = [
    "Ledger",
    "SloClassStats",
    "TenantTally",
    "fault_outcome",
    "group_chains",
    "retry_backoff_ns",
    "serve_requests",
]


@dataclass
class SloClassStats:
    """Per-SLO-class request accounting (shared by server and fleet).

    ``p99_ms`` is interpolated from histogram buckets via
    :meth:`~repro.obs.metrics.HistogramSeries.quantile` — the same
    estimator the autoscaler uses — so reports and control decisions
    read one number.
    """

    slo_class: str
    offered: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    """Shed counts by reason: ``queue-full`` / ``deadline`` / ``brownout``
    / ``no-capacity``."""
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    def record_shed(self, reason: str) -> None:
        self.shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def shed_for(self, reason: str) -> int:
        return self.shed_reasons.get(reason, 0)

    @property
    def availability(self) -> float:
        """Served fraction of offered requests (1.0 on zero offered)."""
        if self.offered == 0:
            return 1.0
        return self.served / self.offered

    @property
    def availability_while_healthy(self) -> float:
        """Availability among arrivals that found >= 1 replica active."""
        eligible = self.offered - self.shed_for("no-capacity")
        if eligible == 0:
            return 1.0
        return self.served / eligible

    def set_percentiles(self, latencies_ms: list[float], buckets) -> None:
        """Fill p50/p95/p99 from bucket interpolation (0s when empty)."""
        from repro.obs.metrics import HistogramSeries

        if not latencies_ms:
            return
        series = HistogramSeries(tuple(buckets))
        for value in latencies_ms:
            series.observe(value)
        self.p50_ms = series.quantile(0.50)
        self.p95_ms = series.quantile(0.95)
        self.p99_ms = series.quantile(0.99)

    def to_dict(self) -> dict:
        return {
            "slo_class": self.slo_class, "offered": self.offered,
            "served": self.served, "failed": self.failed, "shed": self.shed,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "p50_ms": self.p50_ms, "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "availability": self.availability,
        }


def fault_outcome(
    rng, transient_rate: float, fatal_rate: float, events: int
) -> str:
    """Outcome of one service attempt exposed to ``events`` hardware fault
    events at the given per-event rates: ``"fatal"``, ``"transient"`` or
    ``"ok"``. A zero rate draws no randomness, so quiet runs stay
    bit-identical to fault-free ones."""
    p_fatal = 1.0 - (1.0 - fatal_rate) ** events
    p_transient = 1.0 - (1.0 - transient_rate) ** events
    if p_fatal > 0.0 and rng.random() < p_fatal:
        return "fatal"
    if p_transient > 0.0 and rng.random() < p_transient:
        return "transient"
    return "ok"


def retry_backoff_ns(ras, retries: int) -> float:
    """Backoff before replay number ``retries`` (>= 1) of a faulted batch:
    ``retry_backoff_ms`` growing by ``backoff_factor`` per replay."""
    return ras.retry_backoff_ms * 1e6 * (ras.backoff_factor ** (retries - 1))


@dataclass(slots=True)
class TenantTally:
    """One tenant's request accounting over a run.

    ``retried`` and ``degraded`` are filled by the server's pools,
    ``hedged`` by the fleet's; every other field by :func:`serve_requests`.
    """

    served: int = 0
    failed: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    """Latency of every served request."""
    batched: int = 0
    """Sum over served requests of the size of the batch they rode."""
    retried: int = 0
    """Requests whose batch needed >= 1 service replay."""
    degraded: int = 0
    """Requests served on a circuit-breaker-degraded slice."""
    hedged: int = 0
    """Requests whose batch needed >= 1 re-dispatch."""
    by_class: dict[str, SloClassStats] = field(default_factory=dict)
    class_latencies_ms: dict[str, list[float]] = field(default_factory=dict)

    @property
    def offered(self) -> int:
        return self.served + self.failed + self.shed

    def class_stats(self, slo_class: str) -> SloClassStats:
        entry = self.by_class.get(slo_class)
        if entry is None:
            entry = self.by_class[slo_class] = SloClassStats(slo_class)
        return entry

    def percentiles(self) -> tuple[float, float, float]:
        """(p50, p95, p99) of served latencies; zeros when none served."""
        if not self.latencies_ms:
            return 0.0, 0.0, 0.0
        latencies = np.asarray(self.latencies_ms)
        return (
            float(np.percentile(latencies, 50)),
            float(np.percentile(latencies, 95)),
            float(np.percentile(latencies, 99)),
        )


class Ledger:
    """Per-tenant tallies of one run, plus its completion horizon.

    ``classes`` turns on the per-SLO-class breakdown (an admission policy
    is attached). ``shed_log``, when a list, records every shed
    ``(request, reason)`` in loop order.
    """

    def __init__(self, tenants, classes: bool, shed_log=None) -> None:
        self.tallies = {name: TenantTally() for name in tenants}
        self.classes = classes
        self.shed_log = shed_log
        self.horizon_ns = 0.0
        """Latest batch finish seen (0.0 before any service)."""

    def shed(self, request: Request, reason: str) -> None:
        tally = self.tallies[request.tenant]
        tally.shed += 1
        tally.shed_reasons[reason] = tally.shed_reasons.get(reason, 0) + 1
        if self.classes:
            entry = tally.class_stats(request.slo_class)
            entry.offered += 1
            entry.record_shed(reason)
        if self.shed_log is not None:
            self.shed_log.append((request, reason))

    def close(self) -> None:
        """Fill the per-class percentiles once the run is over."""
        from repro.obs.metrics import DEFAULT_BUCKETS_MS

        for tally in self.tallies.values():
            for slo_class, values in tally.class_latencies_ms.items():
                tally.by_class[slo_class].set_percentiles(
                    values, DEFAULT_BUCKETS_MS
                )


def group_chains(trace: list[Request]) -> list[int]:
    """``chain[i]`` = index of the next same-(tenant, class) request
    after ``i`` (-1 at the tail) — batch collection walks this instead
    of rescanning every following arrival."""
    chain = [-1] * len(trace)
    last: dict[tuple[str, str], int] = {}
    for index in range(len(trace) - 1, -1, -1):
        request = trace[index]
        key = (request.tenant, request.slo_class)
        chain[index] = last.get(key, -1)
        last[key] = index
    return chain


def serve_requests(
    trace: list[Request],
    pool,
    ledger: Ledger,
    ras,
    admission=None,
    class_finishes: dict[str, PrunedFinishes] | None = None,
) -> None:
    """Replay ``trace`` (arrival-ordered) through ``pool`` into ``ledger``.

    ``ras`` supplies the flat ``queue_depth_limit`` (used only without an
    ``admission`` controller) and the per-request ``deadline_ms``: a
    request finishing past it counts failed. ``class_finishes`` holds the
    per-SLO-class finish times the admission depths read; a caller that
    also reads them elsewhere (the fleet autoscaler) passes its own dict.
    """
    if class_finishes is None:
        class_finishes = {}
    # Depth tracking is maintained only for the admission path that
    # actually reads it, pruned as arrivals move forward.
    limit = ras.queue_depth_limit if admission is None else None
    finishes = (
        {name: PrunedFinishes() for name in ledger.tallies}
        if limit is not None else None
    )
    deadline_ns = None if ras.deadline_ms is None else ras.deadline_ms * 1e6
    classes = admission is not None
    tallies = ledger.tallies
    settle = pool.settle if pool.settles else None
    fifo = pool.fifo
    chain = group_chains(trace)
    taken = [False] * len(trace)
    for index, head in enumerate(trace):
        if taken[index]:
            continue  # batched with an earlier head, accounted there
        now = head.arrival_ns
        if not pool.advance(now):
            ledger.shed(head, "no-capacity")
            continue
        if admission is not None:
            # The brownout level steps on every arrival from the
            # backpressure signal (worst per-class queue fullness), then
            # the class's bounded queue and deadline decide its fate.
            depths = DepthView(class_finishes, now)
            admission.update(
                max(admission.backpressure(depths), pool.pressure_floor())
            )
            decision = admission.decide(
                head.slo_class,
                depths.get(head.slo_class, 0),
                pool.earliest_start(now) - now,
                pool.admission_service_ns(head),
            )
            if not decision.admitted:
                ledger.shed(head, decision.reason)
                continue
        elif limit is not None and finishes[head.tenant].depth(now) >= limit:
            ledger.shed(head, "queue-full")
            continue
        horizon, max_batch = pool.batch_window(head)
        batch = [head]
        previous, probe = index, chain[index]
        # Arrivals are non-decreasing, so stopping at the first chain
        # member past the horizon visits every candidate a forward scan
        # of the trace would.
        while (
            probe != -1
            and len(batch) < max_batch
            and trace[probe].arrival_ns <= horizon
            and not (fifo and probe != previous + 1)
        ):
            if not taken[probe]:
                batch.append(trace[probe])
                taken[probe] = True
            previous, probe = probe, chain[probe]
        finish, status = pool.serve(batch)
        # Every member shares the head's tenant and class.
        tally = tallies[head.tenant]
        if classes:
            entry = tally.class_stats(head.slo_class)
            entry.offered += len(batch)
            class_latencies = tally.class_latencies_ms.setdefault(
                head.slo_class, []
            )
            class_done = class_finishes.get(head.slo_class)
            if class_done is None:
                class_done = class_finishes[head.slo_class] = PrunedFinishes()
        tenant_done = finishes[head.tenant] if finishes is not None else None
        for member in batch:
            latency_ms = (finish - member.arrival_ns) / 1e6
            ok = status == "ok" and (
                deadline_ns is None
                or (finish - member.arrival_ns) <= deadline_ns
            )
            if ok:
                tally.served += 1
                tally.latencies_ms.append(latency_ms)
                tally.batched += len(batch)
            else:
                tally.failed += 1
            if classes:
                if ok:
                    entry.served += 1
                    class_latencies.append(latency_ms)
                else:
                    entry.failed += 1
                class_done.push(finish)
            if tenant_done is not None:
                tenant_done.push(finish)
            if settle is not None:
                settle(member, finish, ok, latency_ms)
        if finish > ledger.horizon_ns:
            ledger.horizon_ns = finish
